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

from typing import Dict, Iterable, Optional, Tuple

from ..core.acl import AclAction, AuthorizationList, GenesisConfig, Role
from ..core.authority import KeyDistributionError, ManagerKeyDistributor
from ..crypto.keys import KeyPair, PublicIdentity
from ..network.transport import Message
from ..pow.engine import PowEngine
from ..tangle.transaction import Transaction, TransactionKind
from ..telemetry.registry import SECONDS_BUCKETS
from .full_node import FullNode

__all__ = ["ManagerNode"]


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
        self._keydist_sessions: Dict[bytes, str] = {}  # session id -> device addr
        self._keydist_started: Dict[bytes, float] = {}  # session id -> start time
        # session id -> retry context for the M1/M2 half of the handshake
        self._keydist_meta: Dict[bytes, Dict] = {}
        # device node_id -> in-flight session id (dedups distribute_key)
        self._keydist_active: Dict[bytes, bytes] = {}
        # session id -> retransmit context for the M3/ack half
        self._keydist_m3: Dict[bytes, Dict] = {}
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
        if device.node_id in self._keydist_active:
            return
        self._m_keydist_initiated.inc()
        self._start_keydist_attempt(device_address, device, group,
                                    attempt=1, started=self._now())

    def _start_keydist_attempt(self, device_address: str,
                               device: PublicIdentity, group: str, *,
                               attempt: int, started: float) -> None:
        session_id, m1 = self.distributor.initiate(
            device, now=self._now(), group=group
        )
        self._keydist_sessions[session_id] = device_address
        self._keydist_started[session_id] = started
        self._keydist_meta[session_id] = {
            "device": device, "address": device_address,
            "group": group, "attempt": attempt, "started": started,
        }
        self._keydist_active[device.node_id] = session_id
        self.send(device_address, "keydist_m1", {
            "session_id": session_id,
            "m1": m1,
        }, size_bytes=len(m1))
        timeout = self.retry_policy.delay(attempt, self.rng)
        self._m_retry_backoff.observe(timeout)
        self.network.scheduler.schedule(
            timeout, lambda: self._keydist_m1_expired(session_id))

    def _keydist_m1_expired(self, session_id: bytes) -> None:
        """No M2 verified within the attempt's window: abandon the
        session (late M2s for it are dropped — retransmit dedup) and
        either start a fresh attempt or give up."""
        meta = self._keydist_meta.get(session_id)
        if meta is None or self.distributor.is_completed(session_id):
            return  # handshake advanced to the M3 stage (or finished)
        self._keydist_meta.pop(session_id, None)
        self._keydist_sessions.pop(session_id, None)
        self._keydist_started.pop(session_id, None)
        attempt = meta["attempt"]
        if self.retry_policy.exhausted(attempt):
            self._keydist_active.pop(meta["device"].node_id, None)
            self.keydist_exhausted += 1
            self._m_retry_exhausted.inc(protocol="keydist_m1")
            return
        self.keydist_retries += 1
        self._m_retry_attempts.inc(protocol="keydist_m1")
        self._start_keydist_attempt(
            meta["address"], meta["device"], meta["group"],
            attempt=attempt + 1, started=meta["started"])

    def _handle_keydist_m2(self, message: Message) -> None:
        session_id = message.body.get("session_id")
        device_address = self._keydist_sessions.get(session_id)
        if device_address is None or device_address != message.sender:
            return
        try:
            m3 = self.distributor.handle_m2(
                session_id, message.body["m2"], now=self._now()
            )
        except KeyDistributionError:
            return  # forged/stale response: abandon the session
        started = self._keydist_started.pop(session_id, None)
        if started is not None:
            self._m_keydist_completed.inc()
            self._m_keydist_roundtrip.observe(self._now() - started)
        meta = self._keydist_meta.pop(session_id, None)
        self._keydist_m3[session_id] = {
            "address": device_address,
            "m3": m3,
            "attempt": 1,
            "m1_attempts": meta["attempt"] if meta else 1,
            "node_id": meta["device"].node_id if meta else None,
        }
        self.send(device_address, "keydist_m3", {
            "m3": m3,
            "session_id": session_id,
        }, size_bytes=len(m3))
        self._arm_keydist_m3(session_id)

    def _arm_keydist_m3(self, session_id: bytes) -> None:
        """Retransmit M3 until the device acknowledges installation."""
        entry = self._keydist_m3.get(session_id)
        if entry is None:
            return
        attempt = entry["attempt"]
        timeout = self.retry_policy.delay(attempt, self.rng)
        self._m_retry_backoff.observe(timeout)

        def expire() -> None:
            current = self._keydist_m3.get(session_id)
            if current is None or current["attempt"] != attempt:
                return  # acked, or a later retransmit owns the timer
            if self.retry_policy.exhausted(attempt):
                self._keydist_m3.pop(session_id, None)
                if current["node_id"] is not None:
                    self._keydist_active.pop(current["node_id"], None)
                self.keydist_exhausted += 1
                self._m_retry_exhausted.inc(protocol="keydist_m3")
                return
            current["attempt"] = attempt + 1
            self.keydist_retries += 1
            self._m_retry_attempts.inc(protocol="keydist_m3")
            self.send(current["address"], "keydist_m3", {
                "m3": current["m3"],
                "session_id": session_id,
            }, size_bytes=len(current["m3"]))
            self._arm_keydist_m3(session_id)

        self.network.scheduler.schedule(timeout, expire)

    def _handle_keydist_ack(self, message: Message) -> None:
        session_id = message.body.get("session_id")
        entry = self._keydist_m3.pop(session_id, None)
        if entry is None:
            return  # duplicate ack (or ack for an abandoned session)
        if entry["address"] != message.sender:
            self._keydist_m3[session_id] = entry  # forged ack: keep waiting
            return
        if entry["node_id"] is not None:
            self._keydist_active.pop(entry["node_id"], None)
        if entry["attempt"] > 1 or entry["m1_attempts"] > 1:
            self._m_retry_recoveries.inc(protocol="keydist")
