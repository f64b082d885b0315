"""The ingress lane of a full node: every transaction from outside, one fold.

An :class:`IngressLane` does what Section IV-A.2 asks of a gateway —
"verify and broadcast the transactions ..., only process transactions
from legal sensors" — for ``submit_transaction`` → ``submit_response``
(admit, attach, answer, gossip: workflow step 5, Fig. 6),
``gossip_transaction`` (attached without admission: it was admitted
where it entered), each transaction a sync or parent response lists
(all three enter through one pass, :meth:`IngressLane.deliver_run`),
local issues and journal replay.  All fold through
:meth:`IngressLane.ingest`, the one caller of :meth:`Replica.apply
<repro.nodes.replica.Replica.apply>`, after one batch signature check,
:meth:`IngressLane._hand_off`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..crypto import verify_workers
from ..crypto.verify_workers import SHARD_CAP
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
their batches: at this many, readers and the rest of a long response
wait in line (:meth:`IngressLane.run_room`).  Two keep both workers
fed; more pending runs only split the workers' cores over more
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
        # Runs handed off and not delivered, read order: ((message,
        # carried transaction or None) pairs, hand-off).
        self._runs: Deque[tuple] = deque()
        # Who waits for room, oldest first: a reader's future, or (runs
        # cut from a read and not taken yet, the future deliver_run gave).
        self._line: Deque = deque()
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

    def deliver_run(self, run: List[Message]) -> Optional[asyncio.Future]:
        """Deliver what one read carried (contract in
        :mod:`repro.network.base`): decode each transaction once — a
        submit's, a gossip's, each one a sync or parent response lists,
        cut into runs of at most ``SHARD_CAP`` — drop a peer's
        transaction the tangle already holds as the duplicate its
        handler would find, pass the rest through the cheap gates
        (:meth:`_worth_batching`) into one batch signature check per
        run, and hand each message to its handler in order once the
        verdicts are in, never waiting for one.  Runs the node has no
        room for (:meth:`run_room`) wait in line, and the future
        returned resolves once they are all taken; None when they
        were."""
        node = self.node
        node.received_count += len(run)
        decode = self.decode
        tangle = node.replica.tangle
        cuts: Deque[tuple] = deque()  # (items, carried) of each run
        items: List[Tuple[Message, Optional[Transaction]]] = []
        carried = []  # (transaction, submitted) of the items that carry one
        listed = 0    # response transactions in the current cut
        duplicates = 0
        for message in run:
            kind = message.kind
            body = message.body
            if kind == "gossip_transaction" or kind == "submit_transaction":
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
                        carried.append((tx, kind == "submit_transaction"))
                        items.append((message, tx))
                        continue
            elif kind == "sync_response" or kind == "parent_response":
                listing = body.get("transactions", ()) \
                    if type(body) is dict else None
                if type(listing) is list:
                    for encoded in listing:
                        if type(encoded) is not bytes:
                            continue
                        try:
                            tx = decode(encoded)
                        except ValueError:
                            continue
                        if tx.tx_hash in tangle:
                            duplicates += 1
                            continue
                        if listed == SHARD_CAP:
                            cuts.append((items, carried))
                            items, carried, listed = [], [], 0
                        listed += 1
                        carried.append((tx, False))
                        items.append((message, tx))
                    continue
            items.append((message, None))  # its handler reads it
        if duplicates:
            self.stats.gossip_duplicates += duplicates
            self._m_gossip_duplicates.inc(duplicates, node=self.address)
        cuts.append((items, carried))
        self._start(*cuts.popleft())  # the read is taken
        self._make_room()  # no cancelled waiter may hold the line
        while cuts and len(self._runs) < RUNS_IN_FLIGHT and not self._line:
            self._start(*cuts.popleft())
        if not cuts:
            return None
        taken = asyncio.get_running_loop().create_future()
        self._line.append((cuts, taken))
        return taken

    def run_room(self) -> Optional[asyncio.Future]:
        """None while fewer than :data:`RUNS_IN_FLIGHT` runs are pending
        and nobody waits in line; else a future that resolves at the
        caller's turn (:meth:`_make_room`).  A stream transport awaits
        it before it reads, so a flooding peer backs up into its own
        TCP window and no call here ever waits."""
        self._make_room()  # no cancelled waiter may hold the line
        if len(self._runs) < RUNS_IN_FLIGHT and not self._line:
            return None
        turn = asyncio.get_running_loop().create_future()
        self._line.append(turn)
        return turn

    def finish_runs(self) -> None:
        """Deliver every pending run and every rest in line, waiting for
        the verdicts: what a control-plane frame, a traced frame or
        shutdown must see first."""
        runs, line = self._runs, self._line
        while runs:
            self._deliver_pending(*runs.popleft())
        for entry in [entry for entry in line if type(entry) is tuple]:
            line.remove(entry)
            cuts, taken = entry
            for cut in cuts:
                self._start(*cut)
                while runs:
                    self._deliver_pending(*runs.popleft())
            if not taken.done():
                taken.set_result(None)
        self._make_room()

    def _start(self, items, carried) -> None:
        """Hand a run's batch off; deliver the run now if nothing is
        pending and its verdicts are in, else queue it."""
        handed = None
        if len(carried) > 1:  # a lone signature has nothing to share
            handed = self._hand_off(
                [tx for tx, submitted in carried
                 if self._worth_batching(tx, submitted=submitted)],
                on_ready=self._deliver_next)
        runs = self._runs
        if not runs and (handed is None or handed[1].ready()):
            self._deliver_pending(items, handed)
        else:
            runs.append((items, handed))

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
        """Give free room to the line, oldest first: a rest takes one
        run and queues again; a reader is woken, and the room passes on
        in the next callback if its read found nothing to hand over."""
        runs, line = self._runs, self._line
        while line and len(runs) < RUNS_IN_FLIGHT:
            entry = line.popleft()
            if type(entry) is tuple:
                cuts, taken = entry
                self._start(*cuts.popleft())
                if cuts:
                    line.append(entry)
                elif not taken.done():
                    taken.set_result(None)
            elif not entry.done():
                entry.set_result(None)
                asyncio.get_running_loop().call_soon(self._make_room)
                return

    def _deliver_pending(self, items, handed) -> None:
        self._settle(handed)
        handle = self.node.handle_message
        for message, tx in items:
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
                      tx: Optional[Transaction] = None) -> bool:
        """A peer's transaction — gossip, or one a response lists."""
        if tx is None:
            tx = self.decode(message.body["transaction"])
        return self.ingest(tx, source=message.sender, admit=False)[0]

    def ingest_local(self, tx: Transaction) -> bool:
        """Attach a locally created transaction (manager/gateway own
        traffic) and gossip it."""
        return self.ingest(tx, source=None, admit=True)[0]

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
