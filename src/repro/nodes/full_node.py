"""Full nodes (gateways) — Section IV-A.2.

"Gateways play the role of full nodes, which are committed to
maintaining the tangle network ... they receive the requests from
various sensors, verify and broadcast the transactions in the tangle,
they only process transactions from legal sensors that are authorized
by the manager."

A :class:`FullNode` keeps a complete tangle replica with the token
ledger and ACL state layered on as validators, runs the credit-based
consensus bookkeeping, serves the light-node RPC interface (the
reproduction of IRI's HTTP API), and floods new transactions to peer
full nodes with solidification for out-of-order arrivals.

RPC message kinds:

* ``get_tips_request`` → ``get_tips_response`` — returns two tips to
  approve *and* the credit-assigned PoW difficulty for the caller
  (workflow step 4, Fig. 6);
* ``submit_transaction`` → ``submit_response`` — validate, attach,
  gossip (workflow step 5);
* ``gossip_transaction`` — full-node flood traffic;
* ``sync_request`` → ``sync_response`` — anti-entropy: a (re)joining
  full node announces the transactions it knows; the peer returns what
  is missing, in arrival order, so gossip gaps (crashes, partitions)
  heal without replaying the whole history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.acl import AuthorizationList, GenesisConfig
from ..core.consensus import CreditBasedConsensus
from ..crypto import verify_workers
from ..crypto.accel import get_backend
from ..devices.profiles import PC
from ..faults.backoff import DEFAULT_BACKOFF, BackoffPolicy
from ..network.gossip import GossipRelay, SolidificationBuffer
from ..network.network import NetworkNode
from ..network.transport import Message
from ..tangle.errors import (
    DuplicateTransactionError,
    UnknownParentError,
    ValidationError,
)
from ..tangle.ledger import TokenLedger
from ..tangle.tangle import Tangle
from ..telemetry.lifecycle import coerce_lifecycle
from ..telemetry.registry import SECONDS_BUCKETS, coerce_registry
from ..tangle.tip_selection import TipSelector, UniformRandomTipSelector
from ..tangle.transaction import (
    Transaction,
    TransactionDecodeCache,
    TransactionKind,
)
from ..tangle.validation import (
    PreverifiedSet,
    VerificationCache,
    crypto_validator,
)

__all__ = ["FullNode", "FullNodeStats"]

_REPLAY_PREVERIFY_SLICE = 256
"""Journal records batch-verified ahead of each stretch of a cold
restore's replay: the top ``repro_crypto_batch_size`` bucket, and far
enough under ``DEFAULT_PREVERIFIED_SIZE`` that no verdict is evicted
before its record is replayed."""


@dataclass
class FullNodeStats:
    """Counters a gateway accumulates while serving the network."""

    tips_served: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0
    gossip_accepted: int = 0
    gossip_duplicates: int = 0
    gossip_parked: int = 0
    double_spends_detected: int = 0
    unauthorized_rejected: int = 0
    sync_requests_served: int = 0
    sync_transactions_sent: int = 0
    sync_transactions_received: int = 0
    parent_requests_sent: int = 0
    parent_requests_served: int = 0
    parent_fetch_recoveries: int = 0
    parent_fetch_exhausted: int = 0
    malformed_messages: int = 0
    rejection_reasons: Dict[str, int] = field(default_factory=dict)

    def count_rejection(self, error: Exception) -> None:
        reason = type(error).__name__
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1


class FullNode(NetworkNode):
    """A gateway: tangle replica + validation + gossip + light-node RPC.

    Args:
        address: network address.
        genesis: the shared genesis transaction (carries the
            :class:`~repro.core.acl.GenesisConfig` trust anchor).
        consensus: the node's credit-based consensus instance (each
            replica tracks credit from its own observations).
        tip_selector: strategy used to answer ``get_tips_request``.
        rng: seeded randomness for tip selection.
        enforce_pow: verify nonces cryptographically; pure-simulation
            sweeps with sampled PoW disable this.
        retry_policy: the :class:`~repro.faults.backoff.BackoffPolicy`
            pacing parent re-requests (and, on the manager subclass,
            key-distribution retransmissions).  ``None`` uses
            :data:`~repro.faults.backoff.DEFAULT_BACKOFF`.
        verification_cache: optional
            :class:`~repro.tangle.validation.VerificationCache`; on a
            hit, signature+PoW re-verification of an already-verified
            transaction is skipped.  Deployments share one cache across
            their full nodes so each transaction is verified once, not
            once per hop.
        decode_cache: optional :class:`~repro.tangle.transaction.
            TransactionDecodeCache`; gossip/sync/submit payload bytes
            already decoded (by this node or a cache-sharing peer) are
            served as the same immutable instance instead of re-parsed.
        crypto_backend: accepted for callers that still name the
            Ed25519 lane; ``"accel"`` is the only valid value and it
            selects nothing — signatures are always checked by
            :mod:`repro.crypto.ed25519`, and transactions that arrive
            together (a sync or parent response, the frames of one
            stream read) through its batch path.
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` shared
            across the deployment; threaded into this node's tangle,
            gossip relay and solidification accounting.  ``None`` keeps
            the zero-overhead null registry.
        lifecycle: a :class:`~repro.telemetry.lifecycle.LifecycleTracker`
            shared across the deployment; the ingest path records
            per-node lifecycle stages (received/verified/attached/…)
            and opens causal hop spans for sampled transactions.
            ``None`` keeps the zero-overhead null tracker.
    """

    def __init__(self, address: str, genesis: Transaction, *,
                 consensus: Optional[CreditBasedConsensus] = None,
                 tip_selector: Optional[TipSelector] = None,
                 rng: Optional[random.Random] = None,
                 enforce_pow: bool = True,
                 retry_policy: Optional[BackoffPolicy] = None,
                 verification_cache: Optional[VerificationCache] = None,
                 decode_cache: Optional[TransactionDecodeCache] = None,
                 crypto_backend: str = "accel",
                 telemetry=None, lifecycle=None):
        super().__init__(address)
        self.telemetry = coerce_registry(telemetry)
        self.lifecycle = coerce_lifecycle(lifecycle)
        self.retry_policy = retry_policy if retry_policy is not None \
            else DEFAULT_BACKOFF
        self.profile = PC  # hardware class compute time is charged to
        # Set to a ReadingQualityMonitor to screen plaintext readings
        # and punish flagged issuers through credit (``bad-data``).  Its
        # state depends on per-replica arrival order, so pair it with a
        # difficulty tolerance >= 1.
        self.quality_monitor = None
        self.rng = rng if rng is not None else random.Random()
        self.consensus = consensus if consensus is not None else CreditBasedConsensus()
        self.tip_selector = tip_selector if tip_selector is not None else UniformRandomTipSelector()

        config = GenesisConfig.from_genesis(genesis)
        self.acl = AuthorizationList(config.manager, config.extra_managers)
        self.ledger = TokenLedger(dict(config.token_allocations))
        # NOTE: the token ledger is deliberately NOT an attach validator.
        # Conflicting transfers must still *attach* (and gossip) so every
        # replica holds the same DAG; their ledger effect is arbitrated
        # deterministically afterwards (TokenLedger.apply_or_conflict).
        # Refusing them structurally would strand all their descendants
        # in the solidification buffer on replicas that saw the other
        # conflict branch first.
        # Only *stateless* checks gate replication: structurally valid
        # transactions must attach identically everywhere.  Stateful
        # policy (ACL membership, credit-required difficulty) is an
        # ADMISSION rule applied on the submission path below — replicas
        # evaluate credit from whatever subset of history has reached
        # them, so making policy a replication-validity rule would let
        # knowledge races fork the replicas permanently.
        self.verification_cache = verification_cache
        self.decode_cache = decode_cache
        self._enforce_pow = enforce_pow
        get_backend(crypto_backend)  # validates the name only
        self._preverified = PreverifiedSet()
        self._handlers = {
            "get_tips_request": self._handle_get_tips,
            "submit_transaction": self._handle_submit,
            "gossip_transaction": self._handle_gossip,
            "sync_request": self._handle_sync_request,
            "sync_response": self._handle_sync_response,
            "parent_request": self._handle_parent_request,
            "parent_response": self._handle_parent_response,
        }
        # encoded bytes -> the Transaction prepare_run already parsed
        # from them; the handler of the same frame takes it back out.
        self._run_decoded: Dict[bytes, Transaction] = {}
        self.tangle = Tangle(genesis, validators=self._base_validators(),
                             telemetry=self.telemetry)
        self.consensus.bind_tangle(self.tangle)
        self.relay = GossipRelay(telemetry=self.telemetry, node=address)
        self.relay.mark_seen(genesis.tx_hash)
        self.solidification: SolidificationBuffer = SolidificationBuffer()
        self.stats = FullNodeStats()
        self._m_gossip_duplicates = self.telemetry.counter(
            "repro_network_gossip_duplicates_total",
            "Gossip items suppressed as already seen, by node")
        self._m_retry_attempts = self.telemetry.counter(
            "repro_retry_attempts_total",
            "Recovery retransmissions sent, by protocol")
        self._m_retry_exhausted = self.telemetry.counter(
            "repro_retry_exhausted_total",
            "Recovery loops that gave up after max_attempts, by protocol")
        self._m_retry_recoveries = self.telemetry.counter(
            "repro_retry_recoveries_total",
            "Recovery loops that succeeded after at least one retry, "
            "by protocol")
        self._m_retry_backoff = self.telemetry.histogram(
            "repro_retry_backoff_seconds",
            "Jittered backoff delays armed by recovery loops",
            buckets=SECONDS_BUCKETS)
        self._m_crypto_batch_rounds = self.telemetry.counter(
            "repro_crypto_batch_rounds_total",
            "Batch signature-verification rounds run on ingest bursts")
        self._m_crypto_batch_verified = self.telemetry.counter(
            "repro_crypto_batch_verified_total",
            "Signatures accepted through batch verification")
        self._m_crypto_batch_fallback = self.telemetry.counter(
            "repro_crypto_batch_fallback_total",
            "Batch items rejected by the combined equation and settled "
            "by individual verification")
        self._m_crypto_batch_size = self.telemetry.histogram(
            "repro_crypto_batch_size",
            "Transactions per batch signature-verification round",
            buckets=(2, 4, 8, 16, 32, 64, 128, 256))
        # parent hash -> {"attempt": int, "source": peer or None}
        self._parent_requests: Dict[bytes, Dict] = {}
        # Transactions at or before this ledger time have their credit
        # effects already baked into the registry (imported snapshot
        # state); re-ingesting them must not re-record behaviour.
        self.credit_horizon = -float("inf")
        # Durable journalling (repro.storage): None keeps the node
        # fully in-memory, exactly as before the storage layer existed.
        self.persistence = None

    def _base_validators(self):
        """The stateless replication validators every tangle this node
        owns (initial, snapshot-restored, cold-restored) must run."""
        return [
            crypto_validator(allow_simulated_pow=not self._enforce_pow,
                             cache=self.verification_cache,
                             preverified=self._preverified),
        ]

    # -- peers -------------------------------------------------------------

    def add_peer(self, address: str) -> None:
        """Register another full node for gossip flooding."""
        self.relay.add_peer(address)

    # -- snapshots / bootstrap -----------------------------------------------

    def export_snapshot(self, *, now: float,
                        keep_recent_seconds: float = 60.0,
                        min_weight_to_prune: int = 5) -> "EpochSnapshot":
        """Capture this node's state as an epoch-0 :class:`~repro.storage.
        checkpoint.EpochSnapshot`: the pruned tangle plus ACL, ledger and
        credit state — storage control for this node, bootstrap artifact
        for a new one."""
        from ..storage.checkpoint import EpochSnapshot
        from ..tangle.snapshot import take_snapshot

        return EpochSnapshot(
            created_at=now,
            tangle=take_snapshot(
                self.tangle, now=now,
                keep_recent_seconds=keep_recent_seconds,
                min_weight_to_prune=min_weight_to_prune),
            acl_state=self.acl.export_state(),
            ledger_state=self.ledger.export_state(),
            credit_state=self.consensus.registry.export_state(now=now),
        )

    def adopt_snapshot(self, snapshot: "EpochSnapshot") -> None:
        """Replace this node's ledger state with *snapshot* (storage
        reclamation on a live node, the second half of bootstrap, or
        the first half of a cold restore).

        Behaviour observed in the snapshot's history is final: the
        credit horizon is advanced so re-ingesting pre-snapshot
        transactions (e.g. via sync) cannot double-count credit.
        """
        self.tangle = snapshot.tangle.restore(
            validators=self._base_validators(), telemetry=self.telemetry)
        self.acl.import_state(snapshot.acl_state)
        self.ledger.import_state(snapshot.ledger_state)
        # Reversal payloads are not part of the ledger wire state;
        # rebuild them from the retained region so conflict arbitration
        # spanning the snapshot boundary replays exactly.
        self.ledger.rehydrate(tx for tx, _ in snapshot.tangle.retained)
        self.consensus.registry.import_state(snapshot.credit_state)
        # Re-bind: the weight provider must point at the freshly
        # restored tangle, not the discarded one.
        self.consensus.bind_tangle(self.tangle)
        self.credit_horizon = snapshot.created_at
        self.relay.mark_seen_batch(
            [snapshot.tangle.genesis.tx_hash]
            + [tx.tx_hash for tx, _ in snapshot.tangle.retained])

    @classmethod
    def bootstrap_from_snapshot(cls, address: str, snapshot: "EpochSnapshot",
                                **kwargs) -> "FullNode":
        """Build a brand-new gateway from a peer's :class:`~repro.storage.
        checkpoint.EpochSnapshot`.

        The newcomer starts with the snapshot's DAG region and the full
        derived state (who is authorised, who owns what, who behaved
        how), then anti-entropy sync fills whatever arrived after the
        snapshot was taken.
        """
        node = cls(address, snapshot.tangle.genesis, **kwargs)
        node.adopt_snapshot(snapshot)
        return node

    # -- durability (repro.storage) ------------------------------------------

    def attach_persistence(self, persistence) -> None:
        """Start journalling to *persistence* (a :class:`~repro.storage.
        persistence.NodePersistence`).

        The store is bound to this node's genesis; any transactions
        already attached before the journal existed are backfilled so
        the log covers the whole history (skipped when the store already
        holds that history — a checkpoint or journal records).
        """
        persistence.initialize(self.tangle.genesis)
        if persistence.epoch == 0 and persistence.transactions_logged == 0:
            for tx in self.tangle:
                if not tx.is_genesis:
                    persistence.record_transaction(
                        tx, self.tangle.arrival_time(tx.tx_hash))
        self.persistence = persistence

    def replay_attach(self, tx: Transaction, *, arrival_time: float) -> bool:
        """Re-attach one journalled transaction during a restore.

        Replay is trusted local history, not network traffic: no
        admission policy, no flooding, no parent fetching — and credit
        *is* observed regardless of the horizon, because the journal
        tail postdates the snapshot that set the horizon by
        construction.  A journalled transaction whose parents are
        missing means the log and snapshot disagree, which is
        corruption, not gossip reordering.
        """
        from ..storage.errors import StorageCorruptionError

        try:
            result = self.tangle.attach(tx, arrival_time=arrival_time)
        except DuplicateTransactionError:
            return False
        except UnknownParentError as exc:
            raise StorageCorruptionError(
                f"journal replay references a missing parent "
                f"({exc}) — log and snapshot disagree") from exc
        self.consensus.observe_attach(result)
        self._apply_side_effects(tx, arrival_time)
        self.relay.mark_seen(tx.tx_hash)
        return True

    def cold_restore(self) -> int:
        """Rebuild this node's entire state from its durable store.

        This is the crash/restart path: volatile state (tangle, ledger,
        ACL, credit, gossip memory, solidification buffer) is discarded
        and reconstructed from the newest checkpoint plus the journal
        tail.  Anti-entropy (:meth:`resync_with_peers`) then covers
        whatever the journal missed.  Returns the number of journal
        records replayed.
        """
        from ..storage.errors import StorageError

        if self.persistence is None:
            raise StorageError(
                f"cold restart of {self.address} has no durable store to "
                f"restore from — the node would silently regenerate "
                f"genesis state; configure BIoTConfig.storage_backend/"
                f"storage_dir")
        persistence, self.persistence = self.persistence, None
        restore = persistence.load()
        genesis = restore.genesis
        if genesis.tx_hash != self.tangle.genesis.tx_hash:
            self.persistence = persistence
            raise StorageError(
                f"store genesis does not match {self.address}'s deployment")

        config = GenesisConfig.from_genesis(genesis)
        self.acl = AuthorizationList(config.manager, config.extra_managers)
        self.ledger = TokenLedger(dict(config.token_allocations))
        self.consensus.registry.import_state({"nodes": {}})
        self.tangle = Tangle(genesis, validators=self._base_validators(),
                             telemetry=self.telemetry)
        self.consensus.bind_tangle(self.tangle)
        self.relay.reset_seen()
        self.relay.mark_seen(genesis.tx_hash)
        self.solidification = SolidificationBuffer()
        self._parent_requests.clear()
        self.credit_horizon = -float("inf")

        if restore.snapshot is not None:
            self.adopt_snapshot(restore.snapshot)
        replayed = 0
        tail = restore.tail
        for start in range(0, len(tail), _REPLAY_PREVERIFY_SLICE):
            records = tail[start:start + _REPLAY_PREVERIFY_SLICE]
            self._preverify([tx for tx, _ in records])
            for tx, arrival_time in records:
                if self.replay_attach(tx, arrival_time=arrival_time):
                    replayed += 1
        self.persistence = persistence
        return replayed

    def _check_admission(self, tx: Transaction) -> Optional[str]:
        """Stateful admission policy for directly submitted transactions.

        Gateways "only process transactions from legal sensors that are
        authorized by the manager" and assign the credit-required PoW
        difficulty — both checks belong at the service boundary, where
        this gateway's own state is authoritative for its own clients.
        Gossip and sync traffic skips them: the admitting peer already
        applied policy, and re-judging with *different local knowledge*
        (a malice report still in flight, a pruned credit window) would
        desynchronise the replicas.

        Transactions at or before the credit horizon are settled history
        vouched for by an adopted snapshot and are never re-judged.
        Returns an error string, or None when admitted.
        """
        if tx.timestamp <= self.credit_horizon:
            return None
        try:
            self.acl.validator(self.tangle, tx)
            self.consensus.validator(self.tangle, tx)
        except ValidationError as exc:
            self.stats.count_rejection(exc)
            return str(exc)
        return None

    # -- message handling ----------------------------------------------------

    def handle_message(self, message: Message) -> None:
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unknown kinds are dropped silently (open network)
        try:
            if not isinstance(message.body, dict):
                # The frame layer does not type the body; without this
                # check ``body.get`` raises AttributeError, which would
                # unwind the transport's read loop.
                raise TypeError("message body must be a dict")
            handler(message)
        except (ValueError, KeyError, TypeError) as exc:
            # A malformed message from the open network must never take
            # the gateway down — count it and move on.
            self.stats.malformed_messages += 1
            self.stats.rejection_reasons.setdefault("malformed", 0)
            self.stats.rejection_reasons["malformed"] += 1

    def _now(self) -> float:
        if self.network is None:
            return 0.0
        return self.network.scheduler.clock.now()

    def _decode(self, data: bytes) -> Transaction:
        """Decode wire bytes, through the shared decode LRU when one is
        wired (the same bytes object reaches every node on a flood)."""
        if self.decode_cache is not None:
            return self.decode_cache.decode(data)
        return Transaction.from_bytes(data)

    def _handle_get_tips(self, message: Message) -> None:
        body = message.body
        issuer_node_id = body["node_id"]
        if not self.acl.is_authorized(issuer_node_id):
            self.stats.unauthorized_rejected += 1
            self.send(message.sender, "get_tips_response", {
                "request_id": body.get("request_id"),
                "ok": False,
                "error": "unauthorized",
            })
            return
        branch, trunk = self.tip_selector.select(self.tangle, self.rng)
        difficulty = self.consensus.required_difficulty(issuer_node_id, self._now())
        self.stats.tips_served += 1
        self.send(message.sender, "get_tips_response", {
            "request_id": body.get("request_id"),
            "ok": True,
            "branch": branch,
            "trunk": trunk,
            "difficulty": difficulty,
        })

    # -- runs: what one read() of a stream transport carried ----------------

    def prepare_run(self, messages: List[Message]) -> None:
        """Batch-verify the signatures a run's ``submit_transaction``
        and ``gossip_transaction`` frames will need, before the frames
        are handled one by one.

        Only verdicts move: positive ones are parked in the
        :class:`~repro.tangle.validation.PreverifiedSet`, exactly as
        for a ``sync_response``, and the per-message handlers stay the
        only code that admits, attaches, answers and floods.  The cheap
        gates a handler applies before it reaches the signature check
        apply here first (:meth:`_worth_preverifying`), so a run of
        duplicates, strangers or unsealed transactions buys no
        signature work.  Whatever is filtered out, fails the batch, or
        becomes eligible only through an earlier frame of the same run
        (an ACL grant, then the grantee's first submit) is verified
        singly by the validator as ever.  Each frame's transaction is
        parsed once: the handler collects it from ``_run_decoded``.
        """
        self._run_decoded.clear()
        carriers = [m for m in messages
                    if m.kind in ("submit_transaction", "gossip_transaction")]
        if len(carriers) < 2:
            return
        pending: List[Transaction] = []
        for message in carriers:
            body = message.body
            encoded = body.get("transaction") \
                if isinstance(body, dict) else None
            if not isinstance(encoded, bytes):
                continue  # the handler counts it as malformed
            try:
                tx = self._decode(encoded)
            except ValueError:
                continue
            self._run_decoded[encoded] = tx
            if self._worth_preverifying(
                    tx, submitted=message.kind == "submit_transaction"):
                pending.append(tx)
        self._preverify(pending)

    def _worth_preverifying(self, tx: Transaction, *,
                            submitted: bool) -> bool:
        """Whether a transaction from the network may enter a batch —
        the one gate in front of :meth:`_preverify` for both network
        entries (:meth:`prepare_run`, :meth:`_ingest_batch`).  It is
        the stateless / O(1) refusals that precede the signature check
        on the per-message path, in the same order: already attached,
        issuer the ACL does not list (submissions only — peers' gossip
        was admitted where it entered), nonce that does not meet the
        declared difficulty.  (The difficulty floor needs no line here:
        a transaction declaring less does not decode.)"""
        if tx.tx_hash in self.tangle:
            return False
        if submitted and not self.acl.is_authorized(tx.issuer.node_id):
            return False
        return not self._enforce_pow or tx.verify_pow()

    def _carried_transaction(self, message: Message) -> Transaction:
        """The transaction a submit/gossip frame carries — taken from
        the run's memo when :meth:`prepare_run` parsed it already."""
        encoded = message.body["transaction"]
        if self._run_decoded and isinstance(encoded, bytes):
            tx = self._run_decoded.pop(encoded, None)
            if tx is not None:
                return tx
        return self._decode(encoded)

    def _handle_submit(self, message: Message) -> None:
        tx = self._carried_transaction(message)
        ok, error = self._ingest(tx, source=None, admit=True)
        if ok:
            self.stats.submissions_accepted += 1
        else:
            self.stats.submissions_rejected += 1
        self.send(message.sender, "submit_response", {
            "request_id": message.body.get("request_id"),
            "ok": ok,
            "error": error,
            "tx_hash": tx.tx_hash,
        })

    def _handle_gossip(self, message: Message) -> None:
        tx = self._carried_transaction(message)
        self._ingest(tx, source=message.sender, admit=False)

    # -- anti-entropy sync -------------------------------------------------

    def request_sync(self, peer: str) -> bool:
        """Ask *peer* for everything we are missing.

        Used by a gateway rejoining after a crash or partition: gossip
        is fire-and-forget, so anything flooded while we were down is
        gone unless explicitly reconciled.
        """
        known = [tx.tx_hash for tx in self.tangle]
        return self.send(peer, "sync_request", {"known": known},
                         size_bytes=32 * len(known))

    def _handle_sync_request(self, message: Message) -> None:
        known = set(message.body.get("known", ()))
        missing = [
            tx.to_bytes() for tx in self.tangle  # arrival order: parents first
            if tx.tx_hash not in known and not tx.is_genesis
        ]
        self.stats.sync_requests_served += 1
        self.stats.sync_transactions_sent += len(missing)
        self.send(message.sender, "sync_response", {"transactions": missing},
                  size_bytes=sum(len(m) for m in missing))

    def _handle_sync_response(self, message: Message) -> None:
        accepted = self._ingest_batch(message.body.get("transactions", ()),
                                      source=message.sender)
        self.stats.sync_transactions_received += accepted

    def resync_with_peers(self) -> int:
        """Anti-entropy sweep against every gossip peer (post-heal or
        post-restart recovery).  Returns the number of peers reached."""
        reached = 0
        for peer in self.relay.peers:
            if self.request_sync(peer):
                reached += 1
        return reached

    # -- targeted parent recovery ------------------------------------------

    _PARENT_RESPONSE_BUDGET = 32
    """Max transactions in one parent response: the asked-for tx plus
    its nearest ancestors (deeper gaps re-request recursively)."""

    def _schedule_parent_fetch(self, missing, source: Optional[str]) -> None:
        """Arm a backoff-paced re-request loop for each missing parent.

        Gossip is fire-and-forget, so a dropped parent strands its whole
        subtree in the solidification buffer.  Instead of waiting for a
        global sync, ask a peer for the specific hash, retrying on the
        node's :class:`~repro.faults.backoff.BackoffPolicy` until the
        parent attaches or attempts are exhausted.
        """
        if self.network is None or not self.relay.peers:
            return
        for parent in missing:
            if parent in self._parent_requests or parent in self.tangle:
                continue
            self._parent_requests[parent] = {
                "attempt": 0, "sent": 0, "source": source,
            }
            self._arm_parent_fetch(parent)

    def _arm_parent_fetch(self, parent: bytes) -> None:
        state = self._parent_requests.get(parent)
        if state is None:
            return
        state["attempt"] += 1
        attempt = state["attempt"]
        delay = self.retry_policy.delay(attempt, self.rng)
        self._m_retry_backoff.observe(delay)

        def fire() -> None:
            current = self._parent_requests.get(parent)
            if current is None or current["attempt"] != attempt:
                return  # resolved, superseded, or cancelled
            if parent in self.tangle:
                self._parent_requests.pop(parent, None)
                return
            peer = self._parent_fetch_peer(current["source"], attempt)
            if peer is not None:
                current["sent"] += 1
                self.stats.parent_requests_sent += 1
                self._m_retry_attempts.inc(protocol="parent_fetch")
                self.send(peer, "parent_request", {"hashes": [parent]},
                          size_bytes=32)
            if self.retry_policy.exhausted(attempt):
                self._parent_requests.pop(parent, None)
                self.stats.parent_fetch_exhausted += 1
                self._m_retry_exhausted.inc(protocol="parent_fetch")
            else:
                self._arm_parent_fetch(parent)

        self.network.scheduler.schedule(delay, fire)

    def _parent_fetch_peer(self, source: Optional[str],
                           attempt: int) -> Optional[str]:
        """The peer to ask: the gossip source first, then round-robin
        over the peer list so a dead source does not starve recovery."""
        if source is not None and attempt == 1 and self.relay.has_peer(source):
            return source
        if not self.relay.peers:
            return source
        return self.relay.peers[(attempt - 1) % len(self.relay.peers)]

    def _settle_parent_fetch(self, tx_hash: bytes) -> None:
        """A transaction attached: stop any re-request loop for it."""
        state = self._parent_requests.pop(tx_hash, None)
        if state is not None and state["sent"] >= 1:
            self.stats.parent_fetch_recoveries += 1
            self._m_retry_recoveries.inc(protocol="parent_fetch")

    def _handle_parent_request(self, message: Message) -> None:
        # Honest requesters ask for one hash (_arm_parent_fetch); the
        # budget covers the whole response so that repeating or piling
        # up hashes buys neither more bytes nor more ancestor walks.
        transactions: List[bytes] = []
        for tx_hash in dict.fromkeys(message.body.get("hashes", ())):
            room = self._PARENT_RESPONSE_BUDGET - len(transactions)
            if room <= 0:
                break
            if tx_hash in self.tangle:
                transactions.extend(
                    self._parent_response_chain(tx_hash, room))
        self.stats.parent_requests_served += 1
        self.send(message.sender, "parent_response",
                  {"transactions": transactions},
                  size_bytes=sum(len(t) for t in transactions))

    def _parent_response_chain(self, tx_hash: bytes, room: int) -> list:
        """The requested transaction plus its nearest non-genesis
        ancestors (parents-first order), *room* transactions at most.

        We cannot know which ancestors the requester already holds;
        sending the closest ones covers the common a-few-drops gap, and
        anything still missing parks again and re-requests recursively.
        """
        ancestors = [
            h for h in self.tangle.ancestors(tx_hash)
            if not self.tangle.get(h).is_genesis
        ]
        ancestors.sort(key=lambda h: self.tangle.arrival_time(h))
        chain = (ancestors + [tx_hash])[-room:]
        return [self.tangle.get(h).to_bytes() for h in chain]

    def _handle_parent_response(self, message: Message) -> None:
        self._ingest_batch(message.body.get("transactions", ()),
                           source=message.sender)

    # -- ingestion -------------------------------------------------------

    def ingest_local(self, tx: Transaction) -> bool:
        """Attach a locally created transaction (manager/gateway own
        traffic) and gossip it."""
        ok, _ = self._ingest(tx, source=None, admit=True)
        return ok

    def _ingest_batch(self, encoded_transactions, *, source: Optional[str]) -> int:
        """Shared path for multi-transaction messages (sync and parent
        responses): decode everything, batch-verify once the signatures
        the per-item path would reach (:meth:`_worth_preverifying`, as
        for a run), then attach in order.  Returns how many attached.
        Corrupt entries are skipped without poisoning the rest, exactly
        as the per-item loops did."""
        transactions: List[Transaction] = []
        for encoded in encoded_transactions:
            try:
                transactions.append(self._decode(encoded))
            except ValueError:
                continue
        self._preverify([tx for tx in transactions
                         if self._worth_preverifying(tx, submitted=False)])
        accepted = 0
        for tx in transactions:
            ok, _ = self._ingest(tx, source=source, admit=False)
            if ok:
                accepted += 1
        return accepted

    def _preverify(self, transactions: List[Transaction]) -> None:
        """Batch-verify a burst's signatures ahead of per-item attach.

        Instances already verified (verification cache) or already
        batch-verified (preverified set) are skipped; everything else
        goes through :func:`repro.crypto.verify_workers.verify_batch`
        in one round — one multi-scalar multiplication instead of N
        sequential verifies, shared out among a ``repro node``'s verify
        workers, if it forked any.  Positive verdicts are parked
        in the :class:`~repro.tangle.validation.PreverifiedSet` for the
        validator to consume; negative ones are left for the validator
        to re-verify (and reject) individually, so batch and sequential
        ingestion always agree transaction by transaction.
        """
        pending: List[Transaction] = []
        seen = set()
        for tx in transactions:
            digest = tx.full_digest
            if digest in seen or digest in self._preverified:
                continue
            if (self.verification_cache is not None
                    and digest in self.verification_cache):
                continue
            seen.add(digest)
            pending.append(tx)
        if len(pending) < 2:
            return  # nothing to amortise; the validator handles singles
        items = [(tx.issuer.sign_public, tx.tx_hash, tx.signature)
                 for tx in pending]
        verdicts = verify_workers.verify_batch(items)
        passed = 0
        for tx, ok in zip(pending, verdicts):
            if ok:
                self._preverified.add(tx.full_digest)
                passed += 1
        self._m_crypto_batch_rounds.inc()
        self._m_crypto_batch_size.observe(len(pending))
        self._m_crypto_batch_verified.inc(passed)
        if passed != len(pending):
            self._m_crypto_batch_fallback.inc(len(pending) - passed)

    def _ingest(self, tx: Transaction, *, source: Optional[str],
                admit: bool) -> tuple:
        """Shared attach path for submissions, gossip and local issues.

        *admit* runs the stateful admission policy (ACL + credit
        difficulty) — True on the service boundary (submissions, local
        issues), False for peer traffic (gossip, sync, solidification
        releases of peer traffic).  Returns ``(ok, error_string)``.
        """
        if self.relay.has_seen(tx.tx_hash) and tx.tx_hash in self.tangle:
            if source is not None:
                self.stats.gossip_duplicates += 1
                self._m_gossip_duplicates.inc(node=self.address)
            return False, "duplicate"
        if admit:
            admission_error = self._check_admission(tx)
            if admission_error is not None:
                return False, admission_error
        now = self._now()
        self.lifecycle.record(tx.tx_hash, "received", self.address)
        try:
            result = self.tangle.attach(tx, arrival_time=now)
        except UnknownParentError:
            missing = [p for p in (tx.branch, tx.trunk) if p not in self.tangle]
            self.solidification.park(tx.tx_hash, (tx, admit), missing)
            self.stats.gossip_parked += 1
            self._schedule_parent_fetch(missing, source)
            return False, "parked-missing-parent"
        except DuplicateTransactionError:
            self.stats.gossip_duplicates += 1
            self._m_gossip_duplicates.inc(node=self.address)
            return False, "duplicate"
        except ValidationError as exc:
            self.stats.count_rejection(exc)
            return False, str(exc)

        # Attach success implies the stateless validators (signature +
        # PoW) all passed — "verified" and "attached" are one event on
        # this code path, recorded as two stages for the timeline.
        self.lifecycle.record(tx.tx_hash, "verified", self.address)
        self.lifecycle.record(tx.tx_hash, "attached", self.address)
        # For sampled transactions the whole post-attach tail (side
        # effects, flood, solid-child releases) runs under a tx.ingest
        # hop span, so downstream gossip chains onto this node causally.
        with self.lifecycle.ingest(tx.tx_hash, node=self.address,
                                   source=source):
            if self.persistence is not None:
                self.persistence.record_transaction(tx, now)
            if tx.timestamp > self.credit_horizon:
                self.consensus.observe_attach(result)
                self.lifecycle.record(tx.tx_hash, "credit_observed",
                                      self.address)
            self._settle_parent_fetch(tx.tx_hash)
            error = self._apply_side_effects(tx, now)
            self.relay.mark_seen(tx.tx_hash)
            if source is not None:
                self.stats.gossip_accepted += 1
            self._flood(tx, exclude=source)
            self._release_solid_children(tx)
        if error is not None:
            return False, error
        return True, None

    def _apply_side_effects(self, tx: Transaction, now: float) -> Optional[str]:
        """Post-attach state updates; returns an error string when the
        transaction attached but its *effect* was voided (conflicts)."""
        if tx.kind == TransactionKind.TRANSFER:
            try:
                outcome = self.ledger.apply_or_conflict(tx, now=now)
            except ValidationError as exc:
                self.stats.count_rejection(exc)
                return str(exc)
            if outcome in ("conflict-rejected", "conflict-replaced"):
                self.stats.double_spends_detected += 1
                # Attribute at the ledger timestamp so every replica
                # derives the same credit penalty for the same conflict.
                self.consensus.report_double_spend(tx.issuer.node_id,
                                                   tx.timestamp)
                return "double-spend conflict (transfer canceled)"
            if outcome == "insufficient":
                return "insufficient funds (transfer void)"
        elif tx.kind == TransactionKind.ACL:
            self.acl.apply(tx)
        elif tx.kind == TransactionKind.DATA:
            self._screen_data_quality(tx)
        return None

    def _screen_data_quality(self, tx: Transaction) -> None:
        """Optional quality control over plaintext readings (the data
        transaction still stands; bad data costs credit, not attach)."""
        if self.quality_monitor is None:
            return
        from ..core.authority import DataProtector
        from ..core.quality import BAD_DATA_BEHAVIOUR
        from ..devices.sensors import SensorReading
        if DataProtector.is_encrypted(tx.payload):
            return  # opaque by design; key holders screen these
        if not tx.payload or tx.payload[0] != 0x00:
            return  # not a protector-framed payload
        try:
            reading = SensorReading.from_bytes(tx.payload[1:])
        except ValueError:
            return  # free-form data payloads are not screened
        verdict = self.quality_monitor.assess(tx.issuer.node_id, reading)
        if not verdict.ok:
            self.consensus.registry.record_malicious(
                tx.issuer.node_id, BAD_DATA_BEHAVIOUR, tx.timestamp)

    def _flood(self, tx: Transaction, *, exclude: Optional[str]) -> None:
        encoded = tx.to_bytes()
        targets = self.relay.relay_targets(tx.tx_hash, exclude=exclude)
        for peer in targets:
            self.send(peer, "gossip_transaction", {"transaction": encoded},
                      size_bytes=len(encoded))

    def _release_solid_children(self, tx: Transaction) -> None:
        for child_hash, (parked_tx, admit) in \
                self.solidification.satisfy(tx.tx_hash):
            self.lifecycle.record(child_hash, "solidified", self.address)
            self._ingest(parked_tx, source=None, admit=admit)

    # -- convenience -----------------------------------------------------

    def health_digest(self) -> Dict[str, object]:
        """Deterministic per-node health snapshot for convergence
        reports: solidification pressure, recovery backlog, gossip and
        cache effectiveness.  Uses only plain simulation state (no
        telemetry), so it is byte-identical run to run with telemetry
        on or off.  The cache blocks reflect the *deployment-shared*
        caches when those are wired (see ``BIoTSystem.build``)."""
        digest: Dict[str, object] = {
            "tangle_size": len(self.tangle),
            "tips": self.tangle.tip_count,
            "solidification_depth": len(self.solidification),
            "solidification_peak": self.solidification.depth_peak,
            "solidification_evictions": self.solidification.evictions,
            "pending_parent_requests": len(self._parent_requests),
            "parent_fetch_recoveries": self.stats.parent_fetch_recoveries,
            "parent_fetch_exhausted": self.stats.parent_fetch_exhausted,
            "gossip_seen": self.relay.seen_count,
            "gossip_relays": self.relay.relays,
            "gossip_duplicates": self.relay.duplicates_suppressed,
            "malformed_messages": self.stats.malformed_messages,
        }
        if self.verification_cache is not None:
            cache = self.verification_cache
            total = cache.hits + cache.misses
            digest["verify_cache"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hits / total if total else 0.0,
                "evictions": cache.evictions,
            }
        if self.decode_cache is not None:
            cache = self.decode_cache
            total = cache.hits + cache.misses
            digest["decode_cache"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hits / total if total else 0.0,
                "evictions": cache.evictions,
            }
        return digest

    @property
    def tangle_size(self) -> int:
        return len(self.tangle)

    def confirmed_count(self, threshold: int) -> int:
        """Transactions whose cumulative weight reached *threshold*."""
        return sum(
            1 for tx in self.tangle
            if self.tangle.is_confirmed(tx.tx_hash, threshold)
        )
