"""Seed-node bootstrap and peer discovery for multi-process fleets.

When every node lives in one Python process the address book can be a
shared dict; once nodes become independent OS processes (``repro
node``), the book itself must travel the wire.  This module is that
protocol, riding the existing framed envelope encoding as three
control-plane message kinds:

* ``disc_hello`` — a joiner announces itself to a *seed node*:
  ``{address, host, port, role}`` (``port`` is None for connect-only
  endpoints such as drivers, which are reachable over the reverse
  route only);
* ``disc_peers`` — the seed's reply: its full peer table, the joiner's
  freshly-recorded entry included, so one round trip bootstraps the
  newcomer;
* ``disc_announce`` — push notification flooded to known *full* peers
  whenever an entry is learned or **changed** — a node rejoining after
  a crash binds a fresh ephemeral port, and the announcement is what
  retires the stale address fleet-wide.

Every node runs the same :class:`DiscoveryService`; "seed" is a role
in a conversation, not a node type — whichever node a ``disc_hello``
reaches records and re-announces the sender.  Announcements are
idempotent: re-learning an identical ``(host, port, role)`` entry
neither re-floods nor re-registers the gossip peer, so announcement
storms converge instead of echoing forever.

Bootstrap is crash-tolerant: hellos retry under the node's
:class:`~repro.faults.backoff.BackoffPolicy` until a ``disc_peers``
reply lands or attempts exhaust, so a fleet whose seed comes up *last*
still assembles (the seed-down-at-start case the sandboxed fixture
exercises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..faults.backoff import BackoffPolicy
from ..telemetry.registry import coerce_registry
from .transport import Message

__all__ = ["DiscoveryService", "PeerInfo", "parse_seed"]

HELLO_KIND = "disc_hello"
PEERS_KIND = "disc_peers"
ANNOUNCE_KIND = "disc_announce"

ROLE_FULL = "full"
ROLE_LIGHT = "light"
ROLE_DRIVER = "driver"
_ROLES = frozenset({ROLE_FULL, ROLE_LIGHT, ROLE_DRIVER})


@dataclass(frozen=True)
class PeerInfo:
    """One directory entry as discovery sees it."""

    address: str
    host: Optional[str]
    port: Optional[int]
    role: str

    @property
    def dialable(self) -> bool:
        return self.host is not None and self.port is not None

    def to_body(self) -> Dict[str, object]:
        return {"address": self.address, "host": self.host,
                "port": self.port, "role": self.role}

    @classmethod
    def from_body(cls, body) -> "PeerInfo":
        """The entry *body* describes; anything else — a body that is
        not a dict included — is a :class:`ValueError`."""
        if not isinstance(body, dict):
            raise ValueError("peer entry must be a dict")
        address = body.get("address")
        host = body.get("host")
        port = body.get("port")
        role = body.get("role", ROLE_FULL)
        if not isinstance(address, str) or not address:
            raise ValueError("peer address must be a non-empty str")
        if host is not None and not isinstance(host, str):
            raise ValueError("peer host must be a str or None")
        if port is not None and (not isinstance(port, int)
                                 or isinstance(port, bool)
                                 or not 1 <= port <= 65535):
            raise ValueError("peer port must be in [1, 65535] or None")
        if not isinstance(role, str) or role not in _ROLES:
            raise ValueError(f"unknown peer role {role!r}")
        return cls(address=address, host=host, port=port, role=role)


def parse_seed(spec: str) -> Tuple[str, str, int]:
    """Parse an ``address=host:port`` seed spec.

    The node *address* is part of the spec because the transport routes
    by address: the joiner must know what to call the seed before the
    seed can introduce itself.
    """
    try:
        address, endpoint = spec.split("=", 1)
        host, port_text = endpoint.rsplit(":", 1)
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"seed spec {spec!r} is not address=host:port") from None
    if not address or not host or not 1 <= port <= 65535:
        raise ValueError(f"seed spec {spec!r} is not address=host:port")
    return address, host, port


class DiscoveryService:
    """Peer discovery bound to one :class:`~repro.network.aio.
    AsyncioTransport`.

    Args:
        transport: the node's transport; discovery registers handlers
            for the three ``disc_*`` kinds and reads/writes the
            transport's directory.
        address: the local node's address (the transport may not have a
            node attached yet when the service is built).
        role: ``"full"`` / ``"light"`` / ``"driver"`` — only full peers
            are offered to ``on_full_peer`` (gossip flooding targets).
        seeds: ``(address, host, port)`` triples to hello at startup.
        policy: retry pacing for unanswered hellos (the node's
            :class:`~repro.faults.backoff.BackoffPolicy`).
        on_full_peer: callback invoked once per *newly learned* full
            peer (typically ``FullNode.add_peer``); never called for
            the local address, and never called twice for an unchanged
            entry.
    """

    def __init__(self, transport, *, address: str, role: str = ROLE_FULL,
                 seeds: Iterable[Tuple[str, str, int]] = (),
                 policy: Optional[BackoffPolicy] = None,
                 on_full_peer: Optional[Callable[[str], None]] = None,
                 telemetry=None):
        if role not in _ROLES:
            raise ValueError(f"unknown discovery role {role!r}")
        self.transport = transport
        self.address = address
        self.role = role
        self.seeds = list(seeds)
        self.policy = policy if policy is not None else BackoffPolicy(
            base_delay=0.2, multiplier=2.0, max_delay=2.0, jitter=0.25,
            max_attempts=8)
        self.on_full_peer = on_full_peer
        self.peers: Dict[str, PeerInfo] = {}
        self.bootstrapped = False
        self.hello_attempts = 0
        self.malformed_messages = 0
        registry = coerce_registry(telemetry)
        self._m_hellos = registry.counter(
            "repro_discovery_hellos_total",
            "disc_hello messages sent to seed nodes (retries included)")
        self._m_learned = registry.counter(
            "repro_discovery_peers_learned_total",
            "Peer table entries learned or updated via discovery")
        self._m_announces = registry.counter(
            "repro_discovery_announces_total",
            "disc_announce floods emitted for new/changed entries")
        self._m_duplicates = registry.counter(
            "repro_discovery_duplicate_entries_total",
            "Idempotently re-learned (unchanged) peer entries")
        self._m_exhausted = registry.counter(
            "repro_discovery_bootstrap_exhausted_total",
            "Bootstrap loops that ran out of hello attempts")
        transport.register_handler(HELLO_KIND, self._handle_hello)
        transport.register_handler(PEERS_KIND, self._handle_peers)
        transport.register_handler(ANNOUNCE_KIND, self._handle_announce)
        # Seeds are dialable before they are *known*: prime the routing
        # directory so the first hello has somewhere to go.
        for seed_address, host, port in self.seeds:
            if seed_address != self.address:
                transport.directory.setdefault(seed_address, (host, port))

    # -- local facts -------------------------------------------------------

    def _self_info(self) -> PeerInfo:
        advertised = getattr(self.transport, "advertised_address", None)
        host, port = (advertised if advertised is not None
                      else (None, None))
        return PeerInfo(address=self.address, host=host, port=port,
                        role=self.role)

    def full_peers(self) -> List[str]:
        """Known full-node addresses, the local one excluded."""
        return sorted(
            address for address, info in self.peers.items()
            if info.role == ROLE_FULL and address != self.address)

    # -- bootstrap ---------------------------------------------------------

    def start(self) -> None:
        """Begin helloing the seeds; no-op without seeds (a genesis
        seed node has nobody to ask — it just answers)."""
        if not self.seeds:
            self.bootstrapped = True
            return
        self._hello_round(attempt=1)

    def _hello_round(self, attempt: int) -> None:
        if self.bootstrapped:
            return
        self.hello_attempts = attempt
        body = self._self_info().to_body()
        for seed_address, _, _ in self.seeds:
            if seed_address == self.address:
                continue
            self._m_hellos.inc()
            self.transport.send(self.address, seed_address, HELLO_KIND,
                                dict(body))
        if self.policy.exhausted(attempt):
            self._m_exhausted.inc()
            return
        delay = self.policy.delay(attempt, self.transport._rng)
        self.transport.scheduler.schedule(
            delay, lambda: self._hello_round(attempt + 1))

    # -- table maintenance -------------------------------------------------

    def _learn(self, info: PeerInfo) -> bool:
        """Absorb one entry; returns True when it was new or changed
        (the announce-worthy cases)."""
        if info.address == self.address:
            return False
        known = self.peers.get(info.address)
        if known == info:
            self._m_duplicates.inc()
            return False
        newly_known = known is None
        self.peers[info.address] = info
        if info.dialable:
            # Upsert: a rejoining node's fresh (host, port) replaces the
            # stale mapping everywhere this announce reaches.
            self.transport.directory[info.address] = (info.host, info.port)
        self._m_learned.inc()
        if (info.role == ROLE_FULL and self.on_full_peer is not None
                and newly_known):
            self.on_full_peer(info.address)
        return True

    def _announce(self, info: PeerInfo, *, exclude: str) -> None:
        body = info.to_body()
        for peer in self.full_peers():
            if peer in (exclude, info.address):
                continue
            self._m_announces.inc()
            self.transport.send(self.address, peer, ANNOUNCE_KIND,
                                dict(body))

    # -- handlers ----------------------------------------------------------

    def _parse(self, body) -> Optional[PeerInfo]:
        """The entry a ``disc_hello`` / ``disc_announce`` carries, or
        None — counted — when the body is not one: a hostile frame must
        not unwind the transport's read loop and cost its sender the
        connection and the frames behind it in the same read."""
        try:
            return PeerInfo.from_body(body)
        except ValueError:
            self.malformed_messages += 1
            return None

    def _handle_hello(self, message: Message) -> None:
        info = self._parse(message.body)
        if info is None:
            return
        changed = self._learn(info)
        table = [p.to_body() for _, p in sorted(self.peers.items())]
        table.append(self._self_info().to_body())
        self.transport.send(self.address, info.address, PEERS_KIND,
                            {"peers": table})
        if changed:
            self._announce(info, exclude=info.address)

    def _handle_peers(self, message: Message) -> None:
        """A reply is taken whole or refused whole: one bad entry
        refuses the table, and the hellos keep retrying."""
        body = message.body
        entries = body.get("peers", []) if isinstance(body, dict) else None
        try:
            if not isinstance(entries, list):
                raise ValueError("disc_peers body carries no peer list")
            infos = [PeerInfo.from_body(entry) for entry in entries]
        except ValueError:
            self.malformed_messages += 1
            return
        for info in infos:
            self._learn(info)
        self.bootstrapped = True

    def _handle_announce(self, message: Message) -> None:
        info = self._parse(message.body)
        if info is not None and self._learn(info):
            # Re-flood changes so announcements reach full nodes the
            # origin did not know; idempotence stops the echo.
            self._announce(info, exclude=message.sender)
