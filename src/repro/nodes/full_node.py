"""Full nodes (gateways) — Section IV-A.2.

"Gateways play the role of full nodes, which are committed to
maintaining the tangle network ... they receive the requests from
various sensors, verify and broadcast the transactions in the tangle,
they only process transactions from legal sensors that are authorized
by the manager."

A :class:`FullNode` is the network shell around a
:class:`~repro.nodes.replica.Replica`: it serves the light-node RPC
interface (the reproduction of IRI's HTTP API), batch-verifies bursts,
floods new transactions to peer full nodes with solidification for
out-of-order arrivals, and journals what attached.

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
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.consensus import CreditBasedConsensus
from ..crypto import verify_workers
from ..crypto.accel import get_backend
from ..devices.profiles import PC
from ..faults.backoff import DEFAULT_BACKOFF, BackoffPolicy
from ..network.gossip import GossipRelay, SolidificationBuffer
from ..network.network import NetworkNode
from ..network.transport import Message
from ..tangle.errors import DuplicateTransactionError, UnknownParentError
from ..telemetry.lifecycle import coerce_lifecycle
from ..telemetry.registry import SECONDS_BUCKETS, coerce_registry
from ..tangle.tip_selection import TipSelector, UniformRandomTipSelector
from ..tangle.transaction import Transaction, TransactionDecodeCache
from ..tangle.validation import VerificationCache
from .replica import Outcome, Replica

__all__ = ["FullNode", "FullNodeStats"]

_REPLAY_PREVERIFY_SLICE = 256
"""Journal records batch-verified ahead of each stretch of a cold
restore's replay: the top ``repro_crypto_batch_size`` bucket, and far
enough under ``DEFAULT_PREVERIFIED_SIZE`` that no verdict is evicted
before its record is replayed."""

RUNS_IN_FLIGHT = 2
"""Most runs a node holds undelivered while its verify workers check
their batches: a further read hands its batch off and then waits for
the oldest, so a flooding peer backs up into its own TCP window."""


@dataclass
class FullNodeStats:
    """Counters a gateway accumulates while serving the network."""

    tips_served: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0
    gossip_accepted: int = 0
    gossip_duplicates: int = 0
    gossip_parked: int = 0
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
    """A gateway: a :class:`~repro.nodes.replica.Replica` plus gossip,
    sync, parent recovery, journalling and the light-node RPC.

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
        verification_cache: optional shared
            :class:`~repro.tangle.validation.VerificationCache`, so each
            transaction is verified once per deployment, not per hop.
        decode_cache: optional shared :class:`~repro.tangle.transaction.
            TransactionDecodeCache` for gossip/sync/submit payload bytes.
        crypto_backend: accepted for callers that still name the
            Ed25519 lane; ``"accel"``, the only valid value, selects
            nothing (:mod:`repro.crypto.ed25519` checks every signature).
        telemetry: a shared :class:`~repro.telemetry.registry.
            MetricsRegistry`; ``None`` keeps the null registry.
        lifecycle: a shared :class:`~repro.telemetry.lifecycle.
            LifecycleTracker` recording per-node stages and hop spans of
            sampled transactions; ``None`` keeps the null tracker.
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
        self.rng = rng if rng is not None else random.Random()
        self.tip_selector = tip_selector if tip_selector is not None else UniformRandomTipSelector()
        self.verification_cache = verification_cache
        self.decode_cache = decode_cache
        self._enforce_pow = enforce_pow
        get_backend(crypto_backend)  # validates the name only
        self.replica = self._new_replica(genesis, consensus)
        self._handlers = {
            "get_tips_request": self._handle_get_tips,
            "submit_transaction": self._handle_submit,
            "gossip_transaction": self._handle_gossip,
            "sync_request": self._handle_sync_request,
            "sync_response": self._handle_sync_response,
            "parent_request": self._handle_parent_request,
            "parent_response": self._handle_parent_response,
        }
        # encoded bytes -> the Transaction deliver_run already parsed
        # from them; the handler of the same frame takes it back out.
        self._run_decoded: Dict[bytes, Transaction] = {}
        # Runs deliver_run handed off and has not delivered, read order:
        # (survivors, their parsed carriers, batched txs, batch or None).
        self._runs: Deque[Tuple[List[Message], Dict[bytes, Transaction],
                                List[Transaction], object]] = deque()
        self.relay = GossipRelay(telemetry=self.telemetry, node=address)
        self.solidification: SolidificationBuffer = SolidificationBuffer()
        self.stats = FullNodeStats()
        self._m_gossip_duplicates = self.telemetry.counter(
            "repro_network_gossip_duplicates_total",
            "Peer transactions dropped as already attached, by node")
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
        # Durable journalling (repro.storage): None keeps the node
        # fully in-memory, exactly as before the storage layer existed.
        self.persistence = None

    def _new_replica(self, origin, consensus) -> Replica:
        """This node's replica state from *origin* (genesis or an
        :class:`~repro.storage.checkpoint.EpochSnapshot`)."""
        return Replica(origin, consensus=consensus,
                       enforce_pow=self._enforce_pow,
                       verification_cache=self.verification_cache,
                       telemetry=self.telemetry)

    # The replica's parts, read through for callers that predate it.
    tangle = property(lambda self: self.replica.tangle)
    ledger = property(lambda self: self.replica.ledger)
    acl = property(lambda self: self.replica.acl)
    consensus = property(lambda self: self.replica.consensus)

    # -- peers -------------------------------------------------------------

    def add_peer(self, address: str) -> None:
        """Register another full node for gossip flooding."""
        self.relay.add_peer(address)

    # -- snapshots / bootstrap -----------------------------------------------

    def export_snapshot(self, *, now: float,
                        keep_recent_seconds: float = 60.0,
                        min_weight_to_prune: int = 5) -> "EpochSnapshot":
        """:meth:`Replica.snapshot <repro.nodes.replica.Replica.snapshot>`
        of this node's state."""
        return self.replica.snapshot(
            now, keep_recent_seconds=keep_recent_seconds,
            min_weight_to_prune=min_weight_to_prune)

    def adopt_snapshot(self, snapshot: "EpochSnapshot") -> None:
        """Replace this node's replica with one resumed from *snapshot*
        (storage reclamation on a live node, or the second half of
        bootstrap); its credit horizon keeps re-ingested pre-snapshot
        history from counting twice."""
        self.replica = self._new_replica(snapshot, self.consensus)

    @classmethod
    def bootstrap_from_snapshot(cls, address: str, snapshot: "EpochSnapshot",
                                **kwargs) -> "FullNode":
        """A brand-new gateway resumed from a peer's :class:`~repro.
        storage.checkpoint.EpochSnapshot`; anti-entropy sync then fills
        whatever arrived after the snapshot was taken."""
        node = cls(address, snapshot.tangle.genesis, **kwargs)
        node.adopt_snapshot(snapshot)
        return node

    # -- durability (repro.storage) ------------------------------------------

    def attach_persistence(self, persistence) -> None:
        """Start journalling to *persistence* (a :class:`~repro.storage.
        persistence.NodePersistence`) bound to this node's genesis,
        backfilling what attached before, unless the store already
        holds history (a checkpoint or journal records)."""
        persistence.initialize(self.tangle.genesis)
        if persistence.epoch == 0 and persistence.transactions_logged == 0:
            for tx in self.tangle:
                if not tx.is_genesis:
                    persistence.record_transaction(
                        tx, self.tangle.arrival_time(tx.tx_hash))
        self.persistence = persistence

    def replay_attach(self, tx: Transaction, *, arrival_time: float) -> bool:
        """Fold one journalled transaction during a restore: trusted
        local history, so no admission, flooding or parent fetching.  A
        missing parent means log and snapshot disagree (corruption); a
        refused transaction fails the restore.  False when already
        attached."""
        from ..storage.errors import StorageCorruptionError

        outcome = self.replica.apply(tx, arrival_time, admit=False)
        error = outcome.error
        if isinstance(error, DuplicateTransactionError):
            return False
        if isinstance(error, UnknownParentError):
            raise StorageCorruptionError(
                f"journal replay references a missing parent "
                f"({error}) — log and snapshot disagree") from error
        if outcome.attach is None:
            raise error
        self._count(outcome)
        return True

    def cold_restore(self) -> int:
        """Rebuild this node's entire state from its durable store.

        The crash/restart path: volatile state (replica, solidification
        buffer, parent fetches) is discarded, the replica
        resumes from the newest checkpoint (or genesis) and folds the
        journal tail, batch-verified a slice at a time.  Anti-entropy
        (:meth:`resync_with_peers`) covers what the journal missed.
        Returns the number of journal records replayed.
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
        if restore.genesis.tx_hash != self.tangle.genesis.tx_hash:
            self.persistence = persistence
            raise StorageError(
                f"store genesis does not match {self.address}'s deployment")

        self.replica = self._new_replica(
            restore.genesis if restore.snapshot is None else restore.snapshot,
            self.consensus)
        self.solidification = SolidificationBuffer()
        self._parent_requests.clear()
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
                "request_id": body.get("request_id"), "ok": False,
                "error": "unauthorized"})
            return
        branch, trunk = self.tip_selector.select(self.tangle, self.rng)
        difficulty = self.consensus.required_difficulty(issuer_node_id, self._now())
        self.stats.tips_served += 1
        self.send(message.sender, "get_tips_response", {
            "request_id": body.get("request_id"), "ok": True,
            "branch": branch, "trunk": trunk, "difficulty": difficulty})

    # -- runs: what one read() of a stream transport carried ----------------

    def deliver_run(self, run: List[Message]) -> None:
        """Deliver what one read carried in a single pass: each
        ``submit_transaction`` / ``gossip_transaction`` carrier is
        decoded once, and a gossiped transaction the tangle already
        holds is dropped and counted as the duplicate its handler would
        have found (the tangle only grows).  The other carriers pass the
        cheap gates (:meth:`_worth_preverifying`) into one batch
        signature check, handed to the verify workers
        (:func:`repro.crypto.verify_workers.hand_off`), and every
        surviving message is delivered in order once its verdicts are
        in.

        With verify workers under a running loop that is later: the run
        joins a FIFO of pending runs, delivered in read order by
        :meth:`_drain` as verdicts arrive, so the node ingests one run
        while the workers check the next; :meth:`finish_runs` delivers
        them all.  A run with nothing to hand off, while none is
        pending, is delivered at once; so is every run without workers.

        Only verdicts move ahead of delivery (into the replica's
        preverified set, as for a ``sync_response``); the handlers still
        admit, attach, answer and flood, taking each frame's parsed
        transaction from ``_run_decoded``.  What the gates filter out,
        fails the batch, or is only eligible after an earlier frame (an
        ACL grant) is verified singly as ever.
        """
        decoded: Dict[bytes, Transaction] = {}
        decode = self.decode_cache.decode if self.decode_cache is not None \
            else Transaction.from_bytes
        tangle = self.replica.tangle
        survivors: List[Message] = []
        carried = []  # (transaction, submitted) of the surviving carriers
        duplicates = 0
        for message in run:
            kind = message.kind
            if kind == "gossip_transaction" or kind == "submit_transaction":
                body = message.body
                encoded = body.get("transaction") \
                    if type(body) is dict else None
                if type(encoded) is bytes:
                    try:
                        tx = decode(encoded)
                    except ValueError:
                        tx = None  # the handler counts it as malformed
                    if tx is not None:
                        if kind == "gossip_transaction" \
                                and tx.tx_hash in tangle:
                            duplicates += 1
                            continue
                        decoded[encoded] = tx
                        carried.append(
                            (tx, kind == "submit_transaction"))
            survivors.append(message)
        if duplicates:
            self.received_count += duplicates
            self.stats.gossip_duplicates += duplicates
            self._m_gossip_duplicates.inc(duplicates, node=self.address)
        batched: List[Transaction] = []
        batch = None
        if len(carried) > 1:  # a lone signature has nothing to share
            batched = self._unverified([
                tx for tx, submitted in carried
                if self._worth_preverifying(tx, submitted=submitted)])
            if len(batched) > 1:
                batch = verify_workers.hand_off(self._signed(batched),
                                                on_ready=self._drain)
        runs = self._runs
        if not runs and (batch is None or batch.ready()):
            self._deliver_pending(survivors, decoded, batched, batch)
            return
        runs.append((survivors, decoded, batched, batch))
        self._drain(keep=RUNS_IN_FLIGHT)

    def finish_runs(self) -> None:
        """Deliver every pending run, waiting for its verdicts: what a
        control-plane frame, a traced frame or shutdown must see
        first."""
        self._drain(keep=0)

    def _drain(self, keep: Optional[int] = None) -> None:
        """Deliver pending runs in read order: each whose verdicts are
        in, and — waiting on the oldest — as many more as leave at most
        *keep* pending.  This is the one place a pending run is
        delivered; a batch's completion only schedules a call here."""
        runs = self._runs
        while runs:
            batch = runs[0][3]
            if batch is not None and not batch.ready():
                if keep is None or len(runs) <= keep:
                    return
                batch.wait()
            self._deliver_pending(*runs.popleft())

    def _deliver_pending(self, survivors: List[Message],
                         decoded: Dict[bytes, Transaction],
                         batched: List[Transaction], batch) -> None:
        if batch is not None:
            self._settle(batched, batch.wait())
        self._run_decoded = decoded
        for message in survivors:
            self._deliver(message)

    def _worth_preverifying(self, tx: Transaction, *,
                            submitted: bool) -> bool:
        """Whether a transaction from the network may enter a batch: the
        O(1) refusals that precede the signature check on the per-item
        path, in its order — already attached, issuer the ACL does not
        list (submissions only; gossip was admitted where it entered),
        nonce below its declared difficulty.  (A transaction declaring
        less than the difficulty floor does not decode.)"""
        if tx.tx_hash in self.tangle:
            return False
        if submitted and not self.acl.is_authorized(tx.issuer.node_id):
            return False
        return not self._enforce_pow or tx.verify_pow()

    def _carried_transaction(self, message: Message) -> Transaction:
        """The transaction a submit/gossip frame carries — taken from
        the run's memo when :meth:`deliver_run` parsed it already."""
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
            "request_id": message.body.get("request_id"), "ok": ok,
            "error": error, "tx_hash": tx.tx_hash})

    def _handle_gossip(self, message: Message) -> None:
        tx = self._carried_transaction(message)
        self._ingest(tx, source=message.sender, admit=False)

    # -- anti-entropy sync -------------------------------------------------

    def request_sync(self, peer: str) -> bool:
        """Ask *peer* for everything we are missing: gossip is
        fire-and-forget, so what was flooded while this gateway was down
        or partitioned is gone unless explicitly reconciled."""
        known = [tx.tx_hash for tx in self.tangle]
        return self.send(peer, "sync_request", {"known": known},
                         size_bytes=32 * len(known))

    def _handle_sync_request(self, message: Message) -> None:
        known = set(message.body.get("known", ()))
        missing = [tx.to_bytes() for tx in self.tangle  # parents first
                   if tx.tx_hash not in known and not tx.is_genesis]
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
        return sum(1 for peer in self.relay.peers if self.request_sync(peer))

    # -- targeted parent recovery ------------------------------------------

    _PARENT_RESPONSE_BUDGET = 32
    """Max transactions in one parent response: the asked-for tx plus
    its nearest ancestors (deeper gaps re-request recursively)."""

    def _schedule_parent_fetch(self, missing, source: Optional[str]) -> None:
        """Arm a backoff-paced re-request loop for each missing parent:
        a dropped gossip parent strands its subtree in the solidification
        buffer, so ask a peer for that hash, retrying on the node's
        :class:`~repro.faults.backoff.BackoffPolicy` until it attaches or
        attempts run out."""
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
        ancestors (parents-first order), *room* transactions at most:
        the closest ones cover the common few-drops gap, and anything
        still missing parks again and re-requests recursively."""
        ancestors = [h for h in self.tangle.ancestors(tx_hash)
                     if not self.tangle.get(h).is_genesis]
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
        return self._ingest(tx, source=None, admit=True)[0]

    def _ingest_batch(self, encoded_transactions, *, source: Optional[str]) -> int:
        """Shared path for multi-transaction messages (sync and parent
        responses): decode everything, batch-verify the signatures the
        per-item path would reach, then attach in order.  Returns how
        many attached; corrupt or non-bytes entries are skipped without
        poisoning the rest."""
        transactions: List[Transaction] = []
        for encoded in encoded_transactions:
            if not isinstance(encoded, bytes):
                continue
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
        """Batch-verify a burst's signatures ahead of per-item attach,
        through :func:`repro.crypto.verify_workers.verify_batch` in one
        round — one multi-scalar multiplication instead of N verifies,
        checked by a ``repro node``'s verify workers, if any, behind
        whatever they already hold."""
        pending = self._unverified(transactions)
        if len(pending) > 1:  # a single has nothing to amortise
            self._settle(pending,
                         verify_workers.verify_batch(self._signed(pending)))

    def _unverified(self, transactions: List[Transaction]
                    ) -> List[Transaction]:
        """*transactions* minus repeats and what the verification cache
        or the replica's preverified set already covers."""
        pending: List[Transaction] = []
        seen = set()
        for tx in transactions:
            digest = tx.full_digest
            if digest in seen or digest in self.replica.preverified:
                continue
            if (self.verification_cache is not None
                    and digest in self.verification_cache):
                continue
            seen.add(digest)
            pending.append(tx)
        return pending

    @staticmethod
    def _signed(transactions: List[Transaction]) -> list:
        return [(tx.issuer.sign_public, tx.tx_hash, tx.signature)
                for tx in transactions]

    def _settle(self, pending: List[Transaction], verdicts) -> None:
        """Park a batch's positive verdicts in the preverified set for
        the validator to consume; negative ones are re-verified (and
        rejected) individually, so batch and sequential ingestion agree
        transaction by transaction."""
        passed = 0
        for tx, ok in zip(pending, verdicts):
            if ok:
                self.replica.preverified.add(tx.full_digest)
                passed += 1
        self._m_crypto_batch_rounds.inc()
        self._m_crypto_batch_size.observe(len(pending))
        self._m_crypto_batch_verified.inc(passed)
        if passed != len(pending):
            self._m_crypto_batch_fallback.inc(len(pending) - passed)

    def _ingest(self, tx: Transaction, *, source: Optional[str],
                admit: bool) -> tuple:
        """The shell around :meth:`Replica.apply
        <repro.nodes.replica.Replica.apply>` for submissions, gossip and
        local issues: *admit* is True on the service boundary, False for
        peer traffic.  Returns ``(ok, error_string)``.
        """
        if tx.tx_hash in self.tangle:
            if source is not None:
                self.stats.gossip_duplicates += 1
                self._m_gossip_duplicates.inc(node=self.address)
            return False, "duplicate"
        now = self._now()
        outcome = self.replica.apply(tx, now, admit=admit)
        if outcome.admitted:
            self.lifecycle.record(tx.tx_hash, "received", self.address)
        if isinstance(outcome.error, UnknownParentError):
            missing = [p for p in (tx.branch, tx.trunk) if p not in self.tangle]
            self.solidification.park(tx.tx_hash, (tx, admit), missing)
            self.stats.gossip_parked += 1
            self._schedule_parent_fetch(missing, source)
            return False, "parked-missing-parent"
        if outcome.attach is None:
            self._count(outcome)
            return False, outcome.verdict

        # Attaching means signature and PoW passed: "verified" and
        # "attached" are one event, two stages on the timeline.
        self.lifecycle.record(tx.tx_hash, "verified", self.address)
        self.lifecycle.record(tx.tx_hash, "attached", self.address)
        # The post-attach tail runs under a tx.ingest hop span for
        # sampled transactions, so downstream gossip chains onto it.
        with self.lifecycle.ingest(tx.tx_hash, node=self.address,
                                   source=source):
            if self.persistence is not None:
                self.persistence.record_transaction(tx, now)
            if outcome.observed:
                self.lifecycle.record(tx.tx_hash, "credit_observed",
                                      self.address)
            self._settle_parent_fetch(tx.tx_hash)
            self._count(outcome)
            if source is not None:
                self.stats.gossip_accepted += 1
            self._flood(tx, exclude=source)
            self._release_solid_children(tx)
        return outcome.accepted, outcome.verdict

    def _count(self, outcome: Outcome) -> None:
        """Fold an outcome's refusal into the stats."""
        if outcome.error is not None:
            self.stats.count_rejection(outcome.error)

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
        (deployment-shared) cache effectiveness.  Plain state only, no
        telemetry, so it is byte-identical with telemetry on or off."""
        digest: Dict[str, object] = {
            "tangle_size": len(self.tangle),
            "tips": self.tangle.tip_count,
            "solidification_depth": len(self.solidification),
            "solidification_peak": self.solidification.depth_peak,
            "solidification_evictions": self.solidification.evictions,
            "pending_parent_requests": len(self._parent_requests),
            "parent_fetch_recoveries": self.stats.parent_fetch_recoveries,
            "parent_fetch_exhausted": self.stats.parent_fetch_exhausted,
            "gossip_relays": self.relay.relays,
            "gossip_duplicates": self.stats.gossip_duplicates,
            "malformed_messages": self.stats.malformed_messages,
        }
        for key, cache in (("verify_cache", self.verification_cache),
                           ("decode_cache", self.decode_cache)):
            if cache is not None:
                total = cache.hits + cache.misses
                digest[key] = {
                    "hits": cache.hits, "misses": cache.misses,
                    "hit_rate": cache.hits / total if total else 0.0,
                    "evictions": cache.evictions}
        return digest

    @property
    def tangle_size(self) -> int:
        return len(self.tangle)

    def confirmed_count(self, threshold: int) -> int:
        """Transactions whose cumulative weight reached *threshold*."""
        return sum(1 for tx in self.tangle
                   if self.tangle.is_confirmed(tx.tx_hash, threshold))
