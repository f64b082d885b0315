"""The tangle: a DAG-structured distributed ledger.

Implements the structure of Section II-B: transactions are vertices,
each approving two earlier transactions; unapproved transactions are
*tips*; a transaction's *weight* ("proportional to the number of
validation[s] for the transaction") is its cumulative weight — itself
plus every transaction that directly or indirectly approves it.  The
larger the weight, the harder the transaction is to tamper with —
the DAG analogue of Bitcoin's six-block security.

The class is a pure data structure: cryptographic and semantic checks
are composed in as validator callables (see
:mod:`repro.tangle.validation`), so a bare ``Tangle`` can be used for
structural experiments while the full B-IoT stack layers ACL and ledger
rules on top.

Scale notes
-----------

Two hot paths are engineered for large ledgers:

* **Cumulative weights** are maintained *lazily*: an attach only
  appends the transaction to a dirty set (O(1)); contributions are
  propagated in batched epochs (:meth:`Tangle.flush_weights`) that
  share one reverse-topological sweep — with bitmask multiplicity
  tracking — across the whole epoch.  Every read through
  :meth:`Tangle.weight` flushes first, so observed weights are always
  exact; the batching is invisible except in speed.  Readers that only
  need ``min(weight, limit)`` — credit admission — use
  :meth:`Tangle.capped_weight`, which never flushes.
* **The tip pool** keeps a lazily rebuilt sorted cache, so
  :meth:`Tangle.tips` and selector sampling stop re-sorting the pool
  on every call.

A **height index** (:meth:`Tangle.transactions_at_height`,
:attr:`Tangle.max_height`) supports milestone-style bounded random
walks (see :class:`~repro.tangle.tip_selection.
WeightedRandomWalkSelector`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..telemetry.registry import COUNT_BUCKETS, coerce_registry
from .errors import (
    DuplicateTransactionError,
    UnknownParentError,
    ValidationError,
)
from .transaction import Transaction, ZERO_HASH

__all__ = ["Tangle", "AttachResult", "Validator",
           "DEFAULT_WEIGHT_FLUSH_INTERVAL"]

Validator = Callable[["Tangle", Transaction], None]
"""A validation hook: raise :class:`ValidationError` to reject."""

DEFAULT_WEIGHT_FLUSH_INTERVAL = 256
"""Dirty-set size that triggers an automatic weight flush on attach.

Each flush costs one sweep over the union of the dirty transactions'
ancestor cones, so a larger interval amortises more attaches per sweep
(total flush work is ~O(n²/interval) node visits for an n-transaction
growth that never reads weights).  :meth:`Tangle.weight` reads flush
eagerly regardless, so the interval never affects observable values —
only throughput."""


@dataclass(frozen=True)
class AttachResult:
    """What the tangle observed while attaching one transaction.

    The credit system consumes these observations: ``parents_were_tips``
    reveals whether the approved targets were still unapproved, and
    ``parent_ages`` how stale they were.

    ``parent_ages`` is computed from *ledger timestamps*
    (``tx.timestamp - parent.timestamp``), not local arrival times, so
    every replica derives the identical value for the same transaction —
    a prerequisite for replicas to agree on credit, and therefore on the
    required PoW difficulty.
    """

    transaction: Transaction
    arrival_time: float
    parents_were_tips: Tuple[bool, bool]
    parent_ages: Tuple[float, float]


class Tangle:
    """In-memory DAG ledger seeded by a genesis transaction.

    Args:
        genesis: the root transaction (``branch == trunk == ZERO_HASH``).
        validators: extra validation hooks run before structural attach
            (ACL checks, ledger conflict rules, PoW policy, ...).
        entry_points: hashes of *pruned* transactions (mapped to their
            original timestamps) that may still be referenced as
            parents — the local-snapshot mechanism
            (:mod:`repro.tangle.snapshot`).  An entry point satisfies
            parent lookups but carries no content and is never a tip.
        weight_flush_interval: dirty-set size triggering an automatic
            batched weight flush on attach.  ``1`` degenerates to the
            classic eager per-attach ancestor walk (useful as the exact
            baseline in differential tests and benchmarks).
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` to emit
            ``repro_tangle_*`` metrics into (attach counts, flush batch
            sizes, walk lengths, cache hits); ``None`` means the
            zero-overhead null registry.
    """

    def __init__(self, genesis: Transaction, *,
                 validators: Optional[List[Validator]] = None,
                 entry_points: Optional[Dict[bytes, float]] = None,
                 weight_flush_interval: int = DEFAULT_WEIGHT_FLUSH_INTERVAL,
                 telemetry=None):
        if not genesis.is_genesis:
            raise ValueError("tangle must be seeded with a genesis transaction")
        if genesis.branch != ZERO_HASH or genesis.trunk != ZERO_HASH:
            raise ValueError("genesis parents must be the zero hash")
        if weight_flush_interval < 1:
            raise ValueError("weight_flush_interval must be >= 1")
        self._validators: List[Validator] = list(validators or [])
        self._flush_interval = weight_flush_interval
        self._entry_points: Dict[bytes, float] = dict(entry_points or {})

        self._transactions: Dict[bytes, Transaction] = {}
        self._approvers: Dict[bytes, Set[bytes]] = {}
        self._tips: Set[bytes] = set()
        self._arrival_time: Dict[bytes, float] = {}
        self._height: Dict[bytes, int] = {}
        self._cumulative_weight: Dict[bytes, int] = {}
        self._order: List[bytes] = []
        # -- scale indexes -------------------------------------------------
        # Arrival position per hash: reverse-topological order for the
        # batched weight sweep (arrival order is topological).
        self._arrival_index: Dict[bytes, int] = {}
        # Dirty set of attached-but-unpropagated weight contributions.
        self._pending_weight: List[bytes] = []
        # Height index for milestone-style walk entry points.
        self._by_height: Dict[int, List[bytes]] = {}
        self._max_height: int = 0
        # Tip-pool index: lazily rebuilt sorted cache.
        self._tips_cache: Optional[Tuple[bytes, ...]] = None

        self.telemetry = coerce_registry(telemetry)
        self._m_attach = self.telemetry.counter(
            "repro_tangle_attach_total", "Transactions attached")
        self._m_flush = self.telemetry.counter(
            "repro_tangle_flush_total", "Batched weight-flush epochs")
        self._m_flush_batch = self.telemetry.histogram(
            "repro_tangle_flush_batch_size",
            "Dirty transactions propagated per flush epoch",
            buckets=COUNT_BUCKETS)
        self._m_weight_reads = self.telemetry.counter(
            "repro_tangle_weight_reads_total", "Cumulative-weight reads")
        self._m_tip_cache_hit = self.telemetry.counter(
            "repro_tangle_tip_cache_hits_total",
            "tip_sequence() served from the sorted cache")
        self._m_tip_cache_miss = self.telemetry.counter(
            "repro_tangle_tip_cache_misses_total",
            "tip_sequence() rebuilds of the sorted cache")
        self._m_tips_gauge = self.telemetry.gauge(
            "repro_tangle_tips", "Current tip-pool size")
        self._m_walk_length = self.telemetry.histogram(
            "repro_tangle_walk_length",
            "Steps per weighted-random-walk tip selection",
            buckets=COUNT_BUCKETS)

        self.genesis = genesis
        self._insert(genesis, arrival_time=genesis.timestamp, parents=())

    # -- validators ------------------------------------------------------

    def add_validator(self, validator: Validator) -> None:
        """Append a validation hook applied to all future attaches."""
        self._validators.append(validator)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._transactions

    def __iter__(self) -> Iterator[Transaction]:
        """Iterate transactions in arrival order (genesis first)."""
        return (self._transactions[h] for h in self._order)

    def get(self, tx_hash: bytes) -> Transaction:
        """Return the transaction for *tx_hash* (KeyError if unknown)."""
        return self._transactions[tx_hash]

    def is_entry_point(self, tx_hash: bytes) -> bool:
        """Whether *tx_hash* is a pruned-history entry point."""
        return tx_hash in self._entry_points

    def entry_points(self) -> Dict[bytes, float]:
        """The pruned-parent hashes this tangle accepts, with their
        original timestamps."""
        return dict(self._entry_points)

    def tips(self) -> List[bytes]:
        """Current tip hashes in deterministic (sorted) order."""
        return list(self.tip_sequence())

    def tip_sequence(self) -> Tuple[bytes, ...]:
        """Sorted tip hashes as a cached tuple (no per-call copy/sort).

        The cache is rebuilt only when the tip set changed since the
        last call, so selectors sampling an unchanged pool pay O(1).
        """
        if self._tips_cache is None:
            self._m_tip_cache_miss.inc()
            self._tips_cache = tuple(sorted(self._tips))
        else:
            self._m_tip_cache_hit.inc()
        return self._tips_cache

    def is_tip(self, tx_hash: bytes) -> bool:
        return tx_hash in self._tips

    def retire_tip(self, tx_hash: bytes) -> None:
        """Remove *tx_hash* from the tip pool without an approval.

        Used by snapshot restoration: a transaction whose approvers were
        all pruned must not be re-offered for approval (its burial is a
        historical fact the snapshot preserves).  A retired tip remains
        queryable.
        """
        if tx_hash not in self._transactions:
            raise KeyError(tx_hash)
        if tx_hash in self._tips:
            self._tips.discard(tx_hash)
            self._tips_cache = None

    @property
    def tip_count(self) -> int:
        return len(self._tips)

    def approvers(self, tx_hash: bytes) -> Set[bytes]:
        """Direct approvers (children) of *tx_hash*."""
        return set(self._approvers[tx_hash])

    def parents(self, tx_hash: bytes) -> Tuple[bytes, ...]:
        """The (branch, trunk) hashes of *tx_hash* (empty for genesis)."""
        tx = self._transactions[tx_hash]
        if tx.is_genesis:
            return ()
        return (tx.branch, tx.trunk)

    def arrival_time(self, tx_hash: bytes) -> float:
        return self._arrival_time[tx_hash]

    def height(self, tx_hash: bytes) -> int:
        """Longest path length from genesis to *tx_hash*."""
        return self._height[tx_hash]

    @property
    def max_height(self) -> int:
        """Largest height of any attached transaction."""
        return self._max_height

    def transactions_at_height(self, height: int) -> Tuple[bytes, ...]:
        """Hashes at exactly *height*, in arrival order (empty when the
        tangle has none) — the milestone candidates for bounded walks."""
        return tuple(self._by_height.get(height, ()))

    def weight(self, tx_hash: bytes) -> int:
        """Cumulative weight: 1 + number of (in)direct approvers.

        This is the paper's per-transaction *weight* metric ``w_k``.
        Always exact: pending batched contributions are flushed before
        the read — except for transactions with no approvers, whose
        stored weight (1) is already exact: increments only ever flow
        up from descendants, so a childless transaction can never have
        a pending contribution aimed at it.  Readers that clamp the
        weight anyway should use :meth:`capped_weight`, which never
        flushes.
        """
        self._m_weight_reads.inc()
        approvers = self._approvers.get(tx_hash)
        if approvers is not None and not approvers:
            return self._cumulative_weight[tx_hash]
        if self._pending_weight:
            self.flush_weights()
        return self._cumulative_weight[tx_hash]

    def capped_weight(self, tx_hash: bytes, limit: float) -> float:
        """``min(weight(tx_hash), limit)`` without ever flushing.

        Exact, for three reasons.  A stored weight only ever lags
        *below* the true one (unflushed contributions are missing, none
        is ever extra), so a stored weight that has reached *limit*
        settles the answer; with nothing pending — or no approvers, as
        in :meth:`weight` — the stored weight *is* the true one;
        otherwise the distinct members of the future cone are counted
        through the approver edges and the count stops at *limit* —
        ``min(1 + |future cone|, limit)`` by construction.  Cost is
        O(limit) vertices, independent of tangle size, which is what
        lets credit admission (Eqn. 3 clamps every ``w_k``) read
        weights per submit without a flush epoch per submit.
        """
        stored = self._cumulative_weight[tx_hash]
        if stored >= limit:
            return limit
        if not self._pending_weight or not self._approvers[tx_hash]:
            return stored
        return min(self._compute_cumulative_weight(tx_hash, limit), limit)

    @property
    def pending_weight_count(self) -> int:
        """Attached transactions whose weight contribution has not been
        propagated yet (observability for tests and benchmarks)."""
        return len(self._pending_weight)

    def flush_weights(self) -> int:
        """Propagate all dirty weight contributions; returns how many
        transactions were flushed.

        A singleton epoch takes the classic ancestor walk.  Larger
        epochs share one reverse-topological sweep over the union of
        the dirty transactions' ancestor cones: every dirty transaction
        owns one bit in an integer mask, masks are OR-merged down the
        parent edges (children are visited before parents because
        arrival order is topological), and each ancestor's increment is
        the popcount of the mask that reached it — counting every dirty
        descendant exactly once, diamonds included.
        """
        pending = self._pending_weight
        if not pending:
            return 0
        self._pending_weight = []
        self._m_flush.inc()
        self._m_flush_batch.observe(len(pending))
        weights = self._cumulative_weight
        if len(pending) == 1:
            for ancestor in self.ancestors(pending[0]):
                weights[ancestor] += 1
            return 1
        bit_of = {h: 1 << i for i, h in enumerate(pending)}
        # Affected region: the union of ancestor cones (shared ancestors
        # are visited once, not once per dirty transaction).
        affected: Set[bytes] = set(pending)
        queue = deque(pending)
        transactions = self._transactions
        while queue:
            current = queue.popleft()
            for parent in self.parents(current):
                if parent in affected or parent not in transactions:
                    continue
                affected.add(parent)
                queue.append(parent)
        incoming: Dict[bytes, int] = {}
        arrival_index = self._arrival_index
        for tx_hash in sorted(affected, key=arrival_index.__getitem__,
                              reverse=True):
            mask = incoming.pop(tx_hash, 0)
            if mask:
                weights[tx_hash] += mask.bit_count()
            mask |= bit_of.get(tx_hash, 0)
            if not mask:
                continue
            for parent in set(self.parents(tx_hash)):
                if parent in affected:
                    incoming[parent] = incoming.get(parent, 0) | mask
        return len(pending)

    def is_confirmed(self, tx_hash: bytes, threshold: int) -> bool:
        """A transaction is confirmed once its weight reaches *threshold*
        (the DAG analogue of six-block security)."""
        return self.weight(tx_hash) >= threshold

    def ancestors(self, tx_hash: bytes) -> Set[bytes]:
        """All *retained* transactions (in)directly approved by
        *tx_hash* (pruned entry points are not included)."""
        seen: Set[bytes] = set()
        queue = deque(self.parents(tx_hash))
        while queue:
            current = queue.popleft()
            if current in seen or current not in self._transactions:
                continue
            seen.add(current)
            queue.extend(self.parents(current))
        return seen

    def observe_walk(self, steps: int) -> None:
        """Record one tip-selection walk of *steps* hops — the seam
        selectors use so walk-length telemetry lands next to the
        tangle's other hot-path metrics."""
        self._m_walk_length.observe(steps)

    # -- attach ----------------------------------------------------------

    def attach(self, tx: Transaction, *, arrival_time: Optional[float] = None) -> AttachResult:
        """Validate and insert *tx*, returning attach observations.

        Raises a :class:`~repro.tangle.errors.ValidationError` subclass
        and leaves the tangle unmodified on any failure.
        """
        if tx.tx_hash in self._transactions:
            raise DuplicateTransactionError(
                f"transaction {tx.short_hash} already attached"
            )
        if tx.is_genesis:
            raise ValidationError("a tangle has exactly one genesis")
        for parent in (tx.branch, tx.trunk):
            if (parent not in self._transactions
                    and parent not in self._entry_points):
                raise UnknownParentError(
                    f"unknown parent {parent.hex()[:8]} for {tx.short_hash}"
                )
        for validator in self._validators:
            validator(self, tx)

        when = arrival_time if arrival_time is not None else tx.timestamp
        parents = (tx.branch, tx.trunk)
        parents_were_tips = tuple(p in self._tips for p in parents)
        # Ledger-timestamp ages: identical on every replica.
        parent_ages = tuple(
            max(0.0, tx.timestamp - self._parent_timestamp(p))
            for p in parents
        )
        self._insert(tx, arrival_time=when, parents=parents)
        self._m_attach.inc()
        return AttachResult(
            transaction=tx,
            arrival_time=when,
            parents_were_tips=parents_were_tips,  # type: ignore[arg-type]
            parent_ages=parent_ages,  # type: ignore[arg-type]
        )

    # -- internals -------------------------------------------------------

    def _parent_timestamp(self, parent: bytes) -> float:
        tx = self._transactions.get(parent)
        if tx is not None:
            return tx.timestamp
        return self._entry_points[parent]

    def _insert(self, tx: Transaction, *, arrival_time: float,
                parents: Tuple[bytes, ...]) -> None:
        tx_hash = tx.tx_hash
        self._transactions[tx_hash] = tx
        self._approvers[tx_hash] = set()
        self._arrival_time[tx_hash] = arrival_time
        self._arrival_index[tx_hash] = len(self._order)
        self._order.append(tx_hash)
        self._tips.add(tx_hash)
        if parents:
            # Entry points (pruned history) sit at height 0.
            height = 1 + max(self._height.get(p, 0) for p in set(parents))
        else:
            height = 0
        self._height[tx_hash] = height
        self._by_height.setdefault(height, []).append(tx_hash)
        if height > self._max_height:
            self._max_height = height
        for parent in set(parents):
            if parent in self._entry_points:
                continue  # pruned parents track no approvers
            self._approvers[parent].add(tx_hash)
            self._tips.discard(parent)
        self._tips_cache = None
        self._m_tips_gauge.set(len(self._tips))
        self._cumulative_weight[tx_hash] = 1
        if parents:
            self._pending_weight.append(tx_hash)
            if len(self._pending_weight) >= self._flush_interval:
                self.flush_weights()

    def _compute_cumulative_weight(self, tx_hash: bytes,
                                   limit: float) -> int:
        """Count *tx_hash* plus its distinct (in)direct approvers,
        stopping as soon as the count reaches *limit*."""
        seen: Set[bytes] = {tx_hash}
        stack = [tx_hash]
        approvers = self._approvers
        while stack and len(seen) < limit:
            for child in approvers[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
                    if len(seen) >= limit:
                        break  # a wide fan must not overrun the bound
        return len(seen)
