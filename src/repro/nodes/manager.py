"""The manager — Section IV-A.3.

"Manager is a specific full node, which is responsible for managing IoT
devices in a smart factory.  The public key of the manager will be
hard-coded into genesis config of blockchain, which means only the
manager has the rights to publish or update the authorization list of
devices."

:class:`ManagerNode` extends :class:`~repro.nodes.full_node.FullNode`
with the three manager duties of the Fig. 6 workflow:

1. create the genesis configuration (trust anchor);
2. authorise/deauthorise devices and register gateways by posting ACL
   transactions (Eqn. 1);
3. drive the Fig. 4 key-distribution handshakes with devices that
   collect sensitive data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.acl import AclAction, AuthorizationList, GenesisConfig, Role
from ..core.authority import KeyDistributionError, ManagerKeyDistributor
from ..crypto.keys import KeyPair, PublicIdentity
from ..faults.backoff import RetryLoop
from ..network.transport import Message
from ..pow.engine import PowEngine
from ..tangle.transaction import Transaction, TransactionKind
from ..telemetry.registry import SECONDS_BUCKETS
from .full_node import FullNode

__all__ = ["ManagerNode"]


@dataclass
class _Handshake:
    """An in-flight Fig. 4 handshake; M3 is set once M2 verified."""

    address: str
    device: PublicIdentity
    group: str
    started: float
    session_id: bytes = b""
    m3: Optional[bytes] = None


class ManagerNode(FullNode):
    """The trusted management full node.

    Besides everything a gateway does, the manager issues ACL updates
    and distributes symmetric group keys.  Construct the shared genesis
    with :meth:`create_genesis`, then instantiate every full node
    (including the manager itself) from it.
    """

    def __init__(self, address: str, keypair: KeyPair, genesis: Transaction,
                 **kwargs):
        super().__init__(address, genesis, **kwargs)
        config = GenesisConfig.from_genesis(genesis)
        manager_ids = {identity.node_id for identity in config.all_managers}
        if keypair.node_id not in manager_ids:
            raise ValueError(
                "manager keypair does not match the genesis trust anchor"
            )
        self.keypair = keypair
        self.distributor = ManagerKeyDistributor(keypair)
        # A _Handshake per device node_id, found by session from M2/ack.
        self._keydist = RetryLoop(self, "keydist", ask_first=True,
                                  send=self._send_keydist,
                                  gave_up=self._keydist_gave_up)
        self._by_session: Dict[bytes, _Handshake] = {}
        self.keydist_retries = 0
        self.keydist_exhausted = 0
        self.engine: Optional[PowEngine] = None
        self._handlers["keydist_m2"] = self._handle_keydist_m2
        self._handlers["keydist_ack"] = self._handle_keydist_ack
        self._m_keydist_initiated = self.telemetry.counter(
            "repro_keydist_initiated_total",
            "Key-distribution handshakes initiated (M1 sent)")
        self._m_keydist_completed = self.telemetry.counter(
            "repro_keydist_completed_total",
            "Key-distribution handshakes completed (M2 verified, M3 sent)")
        self._m_keydist_roundtrip = self.telemetry.histogram(
            "repro_keydist_roundtrip_seconds",
            "Manager-observed handshake round-trip (initiate to M2 verified)",
            buckets=SECONDS_BUCKETS)

    # -- genesis -----------------------------------------------------------

    @staticmethod
    def create_genesis(keypair: KeyPair, *, network_name: str = "b-iot",
                       token_allocations: Iterable[Tuple[bytes, int]] = (),
                       extra_managers: Iterable[PublicIdentity] = (),
                       timestamp: float = 0.0) -> Transaction:
        """Create the genesis transaction embedding the manager public
        key(s) and optional initial token balances.

        *extra_managers* federates several factories' managers onto one
        ledger (Section IV-A permits "one or more managers").
        """
        config = GenesisConfig(
            manager=keypair.public,
            network_name=network_name,
            token_allocations=tuple(token_allocations),
            extra_managers=tuple(extra_managers),
        )
        return Transaction.create_genesis(
            keypair, payload=config.to_bytes(), timestamp=timestamp
        )

    # -- lifecycle -----------------------------------------------------------

    def bind(self, network) -> None:
        super().bind(network)
        self.engine = PowEngine(
            self.profile, network.scheduler.clock,
            rng=self.rng, advance_clock=False,
            telemetry=self.telemetry,
        )

    def _issue_transaction(self, kind: str, payload: bytes) -> Transaction:
        """Create, seal and locally ingest a manager transaction.

        The manager follows the same tangle rules as everyone: select
        two tips, solve PoW at its credit-assigned difficulty, sign.
        """
        branch, trunk = self.tip_selector.select(self.tangle, self.rng)
        now = self._now()
        difficulty = self.consensus.required_difficulty(self.keypair.node_id, now)
        draft = Transaction(
            kind=kind,
            issuer=self.keypair.public,
            payload=payload,
            timestamp=now,
            branch=branch,
            trunk=trunk,
            difficulty=difficulty,
            nonce=0,
            signature=b"",
        )
        if self.engine is not None:
            result = self.engine.solve(draft.pow_challenge, difficulty)
            nonce = result.proof.nonce
        else:
            nonce = None
        tx = Transaction.create(
            self.keypair,
            kind=kind,
            payload=payload,
            timestamp=now,
            branch=branch,
            trunk=trunk,
            difficulty=difficulty,
            nonce=nonce,
        )
        self.ingest_local(tx)
        return tx

    # -- device management (workflow steps 1-2) -------------------------------

    def register_gateways(self, identities: Iterable[PublicIdentity]) -> Transaction:
        """Record gateway identifiers on the ledger (workflow step 1)."""
        payload = AuthorizationList.make_update(
            identities, action=AclAction.AUTHORIZE, role=Role.GATEWAY
        )
        return self._issue_transaction(TransactionKind.ACL, payload.to_bytes())

    def authorize_devices(self, identities: Iterable[PublicIdentity]) -> Transaction:
        """Publish an authorisation-list update (Eqn. 1, workflow step 2)."""
        payload = AuthorizationList.make_update(
            identities, action=AclAction.AUTHORIZE, role=Role.DEVICE
        )
        return self._issue_transaction(TransactionKind.ACL, payload.to_bytes())

    def deauthorize_devices(self, identities: Iterable[PublicIdentity]) -> Transaction:
        """Revoke devices; gateways stop serving them at once."""
        payload = AuthorizationList.make_update(
            identities, action=AclAction.DEAUTHORIZE, role=Role.DEVICE
        )
        return self._issue_transaction(TransactionKind.ACL, payload.to_bytes())

    # -- key distribution (workflow step 3) ------------------------------------

    def distribute_key(self, device_address: str, device: PublicIdentity, *,
                       group: str = "sensitive") -> None:
        """Start the Fig. 4 handshake with one device.

        The handshake is retried end-to-end on the node's
        :class:`~repro.faults.backoff.BackoffPolicy`: if M1 or M2 is
        lost, a *fresh* session is initiated per attempt (a replayed M1
        would trip the device's nonce_a replay defence), and after M2
        verifies, M3 is retransmitted until the device acknowledges it.
        A handshake already in flight for the device is not duplicated.
        """
        if device.node_id in self._keydist.pending:
            return
        self._m_keydist_initiated.inc()
        self._keydist.start(device.node_id, _Handshake(
            device_address, device, group, self._now()), "keydist_m1")

    def _send_keydist(self, node_id: bytes, handshake: _Handshake,
                      attempt: int) -> None:
        """M3 once M2 verified; before that M1, in a fresh session per
        attempt (a late M2 for the abandoned one is dropped)."""
        if attempt > 1:
            self.keydist_retries += 1
        if handshake.m3 is not None:
            self.send(handshake.address, "keydist_m3", {
                "m3": handshake.m3, "session_id": handshake.session_id,
            }, size_bytes=len(handshake.m3))
            return
        if attempt > 1:
            self._forget_session(handshake)
        handshake.session_id, m1 = self.distributor.initiate(
            handshake.device, now=self._now(), group=handshake.group)
        self._by_session[handshake.session_id] = handshake
        self.send(handshake.address, "keydist_m1", {
            "session_id": handshake.session_id, "m1": m1,
        }, size_bytes=len(m1))

    def _handle_keydist_m2(self, message: Message) -> None:
        handshake = self._by_session.get(message.body.get("session_id"))
        if handshake is None or handshake.address != message.sender:
            return
        try:  # a verified session left the distributor: a repeat fails
            handshake.m3 = self.distributor.handle_m2(
                handshake.session_id, message.body["m2"], now=self._now())
        except KeyDistributionError:
            return  # forged/stale response: keep waiting
        self._m_keydist_completed.inc()
        self._m_keydist_roundtrip.observe(self._now() - handshake.started)
        self._keydist.start(handshake.device.node_id, handshake, "keydist_m3")

    def _handle_keydist_ack(self, message: Message) -> None:
        handshake = self._by_session.get(message.body.get("session_id"))
        if handshake is None or handshake.address != message.sender \
                or handshake.m3 is None:
            return  # forged, or no M3 sent in this session yet
        self._forget_session(handshake)
        self._keydist.stop(handshake.device.node_id)

    def _keydist_gave_up(self, node_id: bytes, handshake: _Handshake) -> None:
        self._forget_session(handshake)
        self.keydist_exhausted += 1

    def _forget_session(self, handshake: _Handshake) -> None:
        del self._by_session[handshake.session_id]
        self.distributor.abandon(handshake.session_id)
