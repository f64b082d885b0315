"""The ingress lane of a full node: every transaction from outside, one fold.

An :class:`IngressLane` does what Section IV-A.2 asks of a gateway —
"verify and broadcast the transactions ..., only process transactions
from legal sensors" — for ``submit_transaction`` → ``submit_response``
(admit, attach, answer, gossip: workflow step 5, Fig. 6),
``gossip_transaction`` (attached without admission: it was admitted
where it entered), the sync service's response batches, local issues
and journal replay.  All fold through :meth:`IngressLane.ingest`, the
one caller of :meth:`Replica.apply <repro.nodes.replica.Replica.apply>`,
after one batch signature check, :meth:`IngressLane._hand_off`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..crypto import verify_workers
from ..network.gossip import SolidificationBuffer
from ..network.transport import Message
from ..tangle.errors import UnknownParentError
from ..tangle.transaction import Transaction

__all__ = ["IngressLane", "RUNS_IN_FLIGHT"]

_REPLAY_PREVERIFY_SLICE = 256
"""Journal records batch-verified ahead of each stretch of a cold
restore's replay: the top ``repro_crypto_batch_size`` bucket, and far
enough under ``DEFAULT_PREVERIFIED_SIZE`` that no verdict is evicted
before its record is replayed."""

RUNS_IN_FLIGHT = 2
"""Most runs a node holds undelivered while its verify workers check
their batches: at this many, :meth:`IngressLane.run_room` holds the
transport's readers back until the oldest is delivered.  Two keep both
workers fed; more pending runs only split the workers' cores over more
batches, so the oldest's verdicts come later."""


class IngressLane:
    """Decoding, batch verification, the fold, solidification and
    flooding for *node*: the shell it answers and counts through, whose
    ``replica`` it folds into.  The node wires :attr:`sync`, whose
    parent fetch a parked transaction starts."""

    def __init__(self, node, *, enforce_pow: bool):
        self.node = node
        self.sync = None
        self.address = node.address
        self.stats = node.stats
        self.lifecycle = node.lifecycle
        self.enforce_pow = enforce_pow
        self.decode = node.decode_cache.decode \
            if node.decode_cache is not None else Transaction.from_bytes
        self.solidification: SolidificationBuffer = SolidificationBuffer()
        # Runs deliver_run handed off and has not delivered, read order:
        # ((message, carried transaction or None) pairs, hand-off).
        self._runs: Deque[tuple] = deque()
        self._room: Optional[asyncio.Future] = None  # see run_room
        telemetry = node.telemetry
        self._m_gossip_duplicates = telemetry.counter(
            "repro_network_gossip_duplicates_total",
            "Peer transactions dropped as already attached, by node")
        self._m_crypto_batch_rounds = telemetry.counter(
            "repro_crypto_batch_rounds_total",
            "Batch signature-verification rounds run on ingest bursts")
        self._m_crypto_batch_verified = telemetry.counter(
            "repro_crypto_batch_verified_total",
            "Signatures accepted through batch verification")
        self._m_crypto_batch_fallback = telemetry.counter(
            "repro_crypto_batch_fallback_total",
            "Batch items rejected by the combined equation and settled "
            "by individual verification")
        self._m_crypto_batch_size = telemetry.histogram(
            "repro_crypto_batch_size",
            "Transactions per batch signature-verification round",
            buckets=(2, 4, 8, 16, 32, 64, 128, 256))

    # -- runs: what one read() of a stream transport carried ----------------

    def deliver_run(self, run: List[Message]) -> None:
        """Deliver what one read carried (contract in
        :mod:`repro.network.base`): each transaction carrier is decoded
        once, gossip the tangle already holds is dropped as the
        duplicate its handler would find, the rest pass the cheap gates
        (:meth:`_worth_batching`) into one batch signature check, and
        every surviving message reaches its handler in order, with its
        transaction, once the verdicts are in — at once without verify
        workers, else from :meth:`_deliver_next` when they arrive,
        while the workers check the next run.  Never waits for a
        verdict: the reader stops taking runs while
        :data:`RUNS_IN_FLIGHT` are pending (:meth:`run_room`).  What the
        gates filter out or the batch fails is verified singly, as
        ever."""
        decode = self.decode
        tangle = self.node.replica.tangle
        survivors: List[Tuple[Message, Optional[Transaction]]] = []
        carried = []  # (transaction, submitted) of the surviving carriers
        duplicates = 0
        for message in run:
            kind = message.kind
            tx = None
            if kind == "gossip_transaction" or kind == "submit_transaction":
                body = message.body
                encoded = body.get("transaction") \
                    if type(body) is dict else None
                if type(encoded) is bytes:
                    try:
                        tx = decode(encoded)
                    except ValueError:
                        pass  # the handler counts it as malformed
                    else:
                        if kind == "gossip_transaction" \
                                and tx.tx_hash in tangle:
                            duplicates += 1
                            continue
                        carried.append(
                            (tx, kind == "submit_transaction"))
            survivors.append((message, tx))
        if duplicates:
            self.node.received_count += duplicates
            self.stats.gossip_duplicates += duplicates
            self._m_gossip_duplicates.inc(duplicates, node=self.address)
        handed = None
        if len(carried) > 1:  # a lone signature has nothing to share
            handed = self._hand_off(
                [tx for tx, submitted in carried
                 if self._worth_batching(tx, submitted=submitted)],
                on_ready=self._deliver_next)
        runs = self._runs
        if not runs and (handed is None or handed[1].ready()):
            self._deliver_pending(survivors, handed)
        else:
            runs.append((survivors, handed))

    def run_room(self) -> Optional[asyncio.Future]:
        """None while fewer than :data:`RUNS_IN_FLIGHT` runs are pending;
        else a future the next delivery of a pending run resolves.  A
        stream transport awaits it before it reads and before it hands
        a read over, so a flooding peer backs up into its own TCP
        window and no call here ever waits."""
        if len(self._runs) < RUNS_IN_FLIGHT:
            return None
        room = self._room
        if room is None or room.done():
            room = self._room = asyncio.get_running_loop().create_future()
        return room

    def finish_runs(self) -> None:
        """Deliver every pending run, waiting for its verdicts: what a
        control-plane frame, a traced frame or shutdown must see
        first."""
        runs = self._runs
        while runs:
            self._deliver_pending(*runs.popleft())
        self._make_room()

    def _deliver_next(self) -> None:
        """A batch's verdicts are in (``on_ready``): deliver the oldest
        pending run if its verdicts are all in, and call again on the
        loop while the next one's are too — one run per loop callback,
        so reads and replies interleave with a backlog of ready runs."""
        runs = self._runs
        if runs and self._ready(runs[0]):
            self._deliver_pending(*runs.popleft())
            self._make_room()
            if runs and self._ready(runs[0]):
                asyncio.get_running_loop().call_soon(self._deliver_next)

    @staticmethod
    def _ready(pending) -> bool:
        handed = pending[1]
        return handed is None or handed[1].ready()

    def _make_room(self) -> None:
        room = self._room
        if room is not None and len(self._runs) < RUNS_IN_FLIGHT:
            self._room = None
            if not room.done():
                room.set_result(None)

    def _deliver_pending(self, survivors, handed) -> None:
        if handed is not None:
            self._settle(handed)
        node = self.node
        handle = node.handle_message
        for message, tx in survivors:
            node.received_count += 1
            handle(message, tx)

    def _worth_batching(self, tx: Transaction, *, submitted: bool) -> bool:
        """Whether a transaction from the network may enter a batch: the
        O(1) refusals that precede the signature check on the per-item
        path, in its order — already attached, issuer the ACL does not
        list (submissions only; gossip was admitted where it entered),
        nonce below its declared difficulty.  (A transaction declaring
        less than the difficulty floor does not decode.)"""
        replica = self.node.replica
        if tx.tx_hash in replica.tangle:
            return False
        if submitted and not replica.acl.is_authorized(tx.issuer.node_id):
            return False
        return not self.enforce_pow or tx.verify_pow()

    # -- the batch signature check ---------------------------------------

    def _hand_off(self, transactions: List[Transaction], *,
                  on_ready=None) -> Optional[tuple]:
        """Hand one batch signature check of *transactions*, minus
        repeats and what the verification cache or preverified set
        covers, to the verify workers (in-process without any):
        ``(pending, batch)`` for :meth:`_settle`, or None when fewer
        than two are left.  *on_ready* is called when the verdicts are
        in."""
        pending: List[Transaction] = []
        seen = set()
        preverified = self.node.replica.preverified
        cache = self.node.verification_cache
        for tx in transactions:
            digest = tx.full_digest
            if digest in seen or digest in preverified \
                    or (cache is not None and digest in cache):
                continue
            seen.add(digest)
            pending.append(tx)
        if len(pending) < 2:
            return None
        return pending, verify_workers.hand_off(
            [(tx.issuer.sign_public, tx.tx_hash, tx.signature)
             for tx in pending], on_ready=on_ready)

    def _settle(self, handed: Optional[tuple]) -> None:
        """Wait for a hand-off's verdicts and park the positive ones in
        the preverified set for the validator to consume; negative ones
        are re-verified (and rejected) individually, so batch and
        sequential ingestion agree transaction by transaction."""
        if handed is None:
            return
        pending, batch = handed
        preverified = self.node.replica.preverified
        passed = 0
        for tx, ok in zip(pending, batch.wait()):
            if ok:
                preverified.add(tx.full_digest)
                passed += 1
        self._m_crypto_batch_rounds.inc()
        self._m_crypto_batch_size.observe(len(pending))
        self._m_crypto_batch_verified.inc(passed)
        if passed != len(pending):
            self._m_crypto_batch_fallback.inc(len(pending) - passed)

    # -- entries -----------------------------------------------------------

    def handle_submit(self, message: Message,
                      tx: Optional[Transaction] = None) -> None:
        if tx is None:
            tx = self.decode(message.body["transaction"])
        ok, error = self.ingest(tx, source=None, admit=True)
        if ok:
            self.stats.submissions_accepted += 1
        else:
            self.stats.submissions_rejected += 1
        self.node.send(message.sender, "submit_response", {
            "request_id": message.body.get("request_id"), "ok": ok,
            "error": error, "tx_hash": tx.tx_hash})

    def handle_gossip(self, message: Message,
                      tx: Optional[Transaction] = None) -> None:
        if tx is None:
            tx = self.decode(message.body["transaction"])
        self.ingest(tx, source=message.sender, admit=False)

    def ingest_local(self, tx: Transaction) -> bool:
        """Attach a locally created transaction (manager/gateway own
        traffic) and gossip it."""
        return self.ingest(tx, source=None, admit=True)[0]

    def ingest_batch(self, encoded_transactions, *,
                     source: Optional[str]) -> int:
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
                transactions.append(self.decode(encoded))
            except ValueError:
                continue
        self._settle(self._hand_off(
            [tx for tx in transactions
             if self._worth_batching(tx, submitted=False)]))
        return sum(1 for tx in transactions
                   if self.ingest(tx, source=source, admit=False)[0])

    def replay(self, records) -> int:
        """Fold a journal tail of ``(transaction, arrival time)``
        records, batch-verified a slice at a time; returns how many
        attached."""
        replayed = 0
        for start in range(0, len(records), _REPLAY_PREVERIFY_SLICE):
            piece = records[start:start + _REPLAY_PREVERIFY_SLICE]
            self._settle(self._hand_off([tx for tx, _ in piece]))
            for tx, arrival_time in piece:
                if self.replay_attach(tx, arrival_time=arrival_time):
                    replayed += 1
        return replayed

    def replay_attach(self, tx: Transaction, *, arrival_time: float) -> bool:
        """Fold one journalled transaction: trusted local history, so no
        admission, flooding or parent fetching.  A missing parent means
        log and snapshot disagree (corruption); a refused transaction
        fails the restore.  False when already attached."""
        return self.ingest(tx, arrival=arrival_time)[1] != "duplicate"

    # -- the fold ------------------------------------------------------------

    def ingest(self, tx: Transaction, *, source: Optional[str] = None,
               admit: bool = False, arrival: Optional[float] = None
               ) -> Tuple[bool, Optional[str]]:
        """Fold *tx* through :meth:`Replica.apply
        <repro.nodes.replica.Replica.apply>`, admitting it on the service
        boundary (*admit*); *source* is the gossiping peer, if any.  A
        live arrival is stamped with the node's clock; journal replay
        passes its recorded *arrival* and is trusted
        (:meth:`replay_attach`).  Returns ``(ok, verdict)``."""
        replica = self.node.replica
        tangle = replica.tangle
        if tx.tx_hash in tangle:
            if source is not None:
                self.stats.gossip_duplicates += 1
                self._m_gossip_duplicates.inc(node=self.address)
            return False, "duplicate"
        live = arrival is None
        now = self.node._now() if live else arrival
        outcome = replica.apply(tx, now, admit=admit)
        error = outcome.error
        if live and outcome.admitted:
            self.lifecycle.record(tx.tx_hash, "received", self.address)
        if isinstance(error, UnknownParentError):
            if not live:
                from ..storage.errors import StorageCorruptionError
                raise StorageCorruptionError(
                    f"journal replay references a missing parent "
                    f"({error}) — log and snapshot disagree") from error
            missing = [p for p in (tx.branch, tx.trunk) if p not in tangle]
            self.solidification.park(tx.tx_hash, (tx, admit), missing)
            self.stats.gossip_parked += 1
            self.sync.fetch_parents(missing, source)
            return False, "parked-missing-parent"
        if error is not None:
            self.stats.count_rejection(error)
        if outcome.attach is None:
            if not live:
                raise error
            return False, outcome.verdict
        if not live:
            return outcome.accepted, outcome.verdict
        # Attaching means signature and PoW passed: "verified" and
        # "attached" are one event, two stages on the timeline.
        self.lifecycle.record(tx.tx_hash, "verified", self.address)
        self.lifecycle.record(tx.tx_hash, "attached", self.address)
        # The post-attach tail runs under a tx.ingest hop span for
        # sampled transactions, so downstream gossip chains onto it.
        with self.lifecycle.ingest(tx.tx_hash, node=self.address,
                                   source=source):
            persistence = self.node.persistence
            if persistence is not None:
                persistence.record_transaction(tx, now)
            if outcome.observed:
                self.lifecycle.record(tx.tx_hash, "credit_observed",
                                      self.address)
            self.sync.settle(tx.tx_hash)
            if source is not None:
                self.stats.gossip_accepted += 1
            encoded = tx.to_bytes()
            for peer in self.node.relay.relay_targets(tx.tx_hash,
                                                      exclude=source):
                self.node.send(peer, "gossip_transaction",
                               {"transaction": encoded},
                               size_bytes=len(encoded))
            for child_hash, (parked_tx, admit) in \
                    self.solidification.satisfy(tx.tx_hash):
                self.lifecycle.record(child_hash, "solidified", self.address)
                self.ingest(parked_tx, admit=admit)
        return outcome.accepted, outcome.verdict
