"""The credit model — Eqns. 2–5 of the paper.

Every node ``i`` carries a credit value::

    Cr_i = λ1 · CrP_i + λ2 · CrN_i                                (Eqn. 2)

    CrP_i = Σ_{k=1..n_i} w_k / ΔT                                 (Eqn. 3)
        — the *positive* part: the summed weights of node i's valid
        transactions inside the most recent unit of time ΔT.  An
        inactive node has CrP = 0: the system "will not decrease the
        difficulty of PoW for it at the beginning".

    CrN_i = - Σ_{k=1..m_i} α(B) · ΔT / (t - t_k)                  (Eqn. 4)
        — the *negative* part: every malicious behaviour at time t_k
        contributes a penalty that decays hyperbolically but never
        fully disappears.

    α(B) = αl for lazy tips, αd for double spending                (Eqn. 5)

Section VI-A fixes the evaluation parameters: λ1 = 1, λ2 = 0.5,
ΔT = 30 s, αl = 0.5, αd = 1 — these are the defaults here.

The weight ``w_k`` of a transaction is its tangle weight ("the number
of validation[s] to this transaction"), so the registry takes a
*weight provider* callback: credit genuinely rises as the network
approves your transactions.

Scale notes
-----------

Eqn. 3 sits on the per-transaction hot path: every
``required_difficulty`` call (tip requests, admission validation)
evaluates CrP.  The seed implementation rescanned the node's whole
transaction history per evaluation — O(history) — which dominates once
histories reach tens of thousands of records.  The registry now keeps,
per node, a timestamp-sorted record list with a **rolling window
aggregate**: a running sum over exactly the records inside
``[now − ΔT, now]``, advanced by monotonic eviction/admission as
``now`` moves forward (amortised O(1) per evaluation) and rebuilt by
bisection when ``now`` jumps backwards (O(log n + active)).

Weights are *cached at record time* and re-read only while they can
still change.  Every ``w_k`` entering Eqn. 3 is clamped to
``max_transaction_weight`` and a cumulative weight never decreases, so
a record whose cached weight has reached the cap is final.  Each node
keeps the few records still below it — its **unsaturated** set, in a
live tangle the issuer's last handful — and an evaluation of that node
pulls exactly those through the provider before reading the window.
``CreditBasedConsensus.bind_tangle`` installs
:meth:`~repro.tangle.tangle.Tangle.capped_weight` as the provider, so a
pull costs O(unsaturated records × cap) tangle vertices and never
flushes the tangle.  The contract on any other provider is the same
monotonicity: its value for a hash must not decrease while it is bound.
With no provider, weights are constants and nothing is pulled.

Every evaluation therefore observes exactly the weights the naive
rescan would have observed (the argument is in ARCHITECTURE.md,
"Incremental credit windows").  Exactness is proven differentially in
``tests/core/test_credit_differential.py`` against the kept naive
reference (``tests/core/credit_reference.py``).

All weights in the system are small integers clamped to
``max_transaction_weight`` (≤ 5 by default), so the running-sum
arithmetic below is exact: every partial sum is an integer multiple of
the clamp granularity, far below 2**53.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry.registry import coerce_registry

__all__ = [
    "MaliciousBehaviour",
    "CreditParameters",
    "CreditBreakdown",
    "CreditRegistry",
]


class MaliciousBehaviour:
    """Behaviour kinds the mechanism punishes.

    ``LAZY_TIPS`` and ``DOUBLE_SPENDING`` are the paper's Eqn. 5 kinds.
    ``BAD_DATA`` is a third kind with its own α that nothing in the
    system charges (sensor data quality control is the paper's Section
    VIII future work); the credit model's property and differential
    tests use it to exercise more than two penalty kinds.
    """

    LAZY_TIPS = "lazy-tips"
    DOUBLE_SPENDING = "double-spending"
    BAD_DATA = "bad-data"


@dataclass(frozen=True)
class CreditParameters:
    """Tunable knobs of the credit mechanism.

    Attributes:
        lambda1: weight of the positive component.
        lambda2: weight of the negative component ("if we want to adopt
            strict punishment strategy ... set λ2 larger").
        delta_t: the unit of time ΔT in seconds.
        alpha: punishment coefficient per behaviour kind (Eqn. 5).
        min_elapsed: clamp on (t - t_k) so a just-committed attack has a
            very large but finite penalty.
        max_transaction_weight: cap on each w_k entering Eqn. 3.  The
            paper's Fig. 8 weight bars stay in the single digits; an
            uncapped cumulative weight on a busy tangle grows linearly
            with age and would let a high-traffic node bank enough CrP
            to shrug off penalties entirely.
    """

    lambda1: float = 1.0
    lambda2: float = 0.5
    delta_t: float = 30.0
    alpha: Tuple[Tuple[str, float], ...] = (
        (MaliciousBehaviour.LAZY_TIPS, 0.5),
        (MaliciousBehaviour.DOUBLE_SPENDING, 1.0),
        (MaliciousBehaviour.BAD_DATA, 0.25),
    )
    min_elapsed: float = 0.5
    max_transaction_weight: float = 5.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda coefficients must be non-negative")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.min_elapsed <= 0:
            raise ValueError("min_elapsed must be positive")
        if self.max_transaction_weight <= 0:
            raise ValueError("max_transaction_weight must be positive")
        for _, coefficient in self.alpha:
            if coefficient < 0:
                raise ValueError("punishment coefficients must be non-negative")

    @cached_property
    def _alpha_table(self) -> Dict[str, float]:
        # Eqn. 4 looks α up once per malicious event per evaluation:
        # build the table once, not per lookup.
        return dict(self.alpha)

    def punishment_coefficient(self, behaviour: str) -> float:
        """α(B) for *behaviour*; unknown kinds get the harshest α."""
        table = self._alpha_table
        if behaviour in table:
            return table[behaviour]
        return max(table.values()) if table else 1.0


@dataclass(frozen=True)
class CreditBreakdown:
    """A credit evaluation with its components (what Fig. 8 plots)."""

    credit: float
    positive: float
    negative: float
    active_transactions: int
    malicious_events: int


class _Record:
    """One recorded transaction: timestamp, hash, cached capped weight.

    ``seq`` is a registry-global insertion sequence used as the sort
    tie-break for equal timestamps, so summation order is deterministic
    regardless of arrival order.
    """

    __slots__ = ("timestamp", "tx_hash", "weight", "seq")

    def __init__(self, timestamp: float, tx_hash: bytes, weight: float,
                 seq: int):
        self.timestamp = timestamp
        self.tx_hash = tx_hash
        self.weight = weight
        self.seq = seq

    def __lt__(self, other: "_Record") -> bool:
        return (self.timestamp, self.seq) < (other.timestamp, other.seq)


class _NodeHistory:
    """Per-node behaviour history with the rolling CrP window.

    ``records``/``timestamps`` are parallel arrays kept sorted by
    ``(timestamp, seq)`` — ``timestamps`` exists so window bounds are a
    bisect away.  The window state caches the sum of record weights
    inside ``[w_now − ΔT, w_now]``; ``w_now is None`` marks it dirty
    (out-of-order insert, prune, import), forcing a bisect rebuild on
    the next evaluation.  ``unsaturated`` holds the records whose cached
    weight is still below the cap — the only ones an evaluation has to
    re-read; a record that reaches the cap leaves it for good.
    """

    __slots__ = ("records", "timestamps", "malicious", "unsaturated",
                 "w_lo", "w_hi", "w_sum", "w_now")

    def __init__(self):
        self.records: List[_Record] = []
        self.timestamps: List[float] = []
        self.malicious: List[Tuple[float, str]] = []
        self.unsaturated: List[_Record] = []
        self.w_lo = 0
        self.w_hi = 0
        self.w_sum = 0.0
        self.w_now: Optional[float] = None

    def window_sum(self, now: float, delta_t: float) -> float:
        """Sum of cached weights for records in ``[now − ΔT, now]``.

        Amortised O(1) while ``now`` is non-decreasing (each record is
        admitted once and evicted once); O(log n + active) rebuild when
        ``now`` moves backwards or the window was invalidated.
        """
        start = now - delta_t
        timestamps = self.timestamps
        if self.w_now is None or now < self.w_now:
            lo = bisect_left(timestamps, start)
            hi = bisect_right(timestamps, now)
            self.w_lo, self.w_hi = lo, hi
            self.w_sum = sum(r.weight for r in self.records[lo:hi])
        else:
            hi = self.w_hi
            n = len(timestamps)
            total = self.w_sum
            records = self.records
            while hi < n and timestamps[hi] <= now:
                total += records[hi].weight
                hi += 1
            lo = self.w_lo
            while lo < hi and timestamps[lo] < start:
                total -= records[lo].weight
                lo += 1
            if lo == hi:
                total = 0.0  # exact reset: no drift survives an empty window
            self.w_lo, self.w_hi, self.w_sum = lo, hi, total
        self.w_now = now
        return self.w_sum

    def active_count(self, now: float, delta_t: float) -> int:
        """How many records fall inside ``[now − ΔT, now]``."""
        return (bisect_right(self.timestamps, now)
                - bisect_left(self.timestamps, now - delta_t))

    def invalidate_window(self) -> None:
        self.w_now = None


class CreditRegistry:
    """Tracks behaviour and evaluates credit for every node.

    Args:
        params: the :class:`CreditParameters` in force.
        weight_provider: callable mapping a transaction hash to its
            current tangle weight; defaults to weight 1 per transaction
            (pure activity counting).  Its value for a hash must never
            decrease: the provider is consulted when a record is created
            and then, per evaluation, only for the evaluated node's
            records still below ``max_transaction_weight``.
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` for the
            ``repro_credit_*`` metrics (recorded transactions, penalty
            events by behaviour, evaluation and weight-pull counts).
    """

    def __init__(self, params: Optional[CreditParameters] = None, *,
                 weight_provider: Optional[Callable[[bytes], int]] = None,
                 telemetry=None):
        self.params = params if params is not None else CreditParameters()
        self._weight_provider = weight_provider
        self._history: Dict[bytes, _NodeHistory] = {}
        self._seq = 0
        # Weights frozen at snapshot time for records whose transaction
        # is no longer resolvable (pruned) — see import_state.
        self._weight_overrides: Dict[bytes, float] = {}
        self.telemetry = coerce_registry(telemetry)
        self._m_transactions = self.telemetry.counter(
            "repro_credit_transactions_total",
            "Valid transactions recorded into credit histories")
        self._m_penalties = self.telemetry.counter(
            "repro_credit_penalties_total",
            "Malicious-behaviour penalty events, by behaviour kind")
        self._m_evaluations = self.telemetry.counter(
            "repro_credit_evaluations_total",
            "Credit evaluations (Eqn. 2 reads)")
        self._m_pulls = self.telemetry.counter(
            "repro_credit_weight_pulls_total",
            "Unsaturated record weights re-read by credit evaluations")

    def set_weight_provider(self,
                            weight_provider: Callable[[bytes], int]) -> None:
        """Install the tangle-weight lookup after construction.

        Full nodes build their credit registry before their tangle
        replica exists; this closes the loop once the tangle is up.
        Every cached record weight is re-resolved through the new
        provider — saturation is a fact about one provider — so
        evaluations reflect it immediately.
        """
        self._weight_provider = weight_provider
        for history in self._history.values():
            self._resolve_weights(history)

    def _resolve_weights(self, history: _NodeHistory) -> None:
        """Re-read every cached weight of *history* through the current
        provider and re-derive its unsaturated set."""
        for record in history.records:
            record.weight = self._transaction_weight(record.tx_hash)
        history.unsaturated = [r for r in history.records
                               if self._can_grow(r)]
        history.invalidate_window()

    def _can_grow(self, record: _Record) -> bool:
        return (self._weight_provider is not None
                and record.weight < self.params.max_transaction_weight)

    # -- recording -------------------------------------------------------

    def _node(self, node_id: bytes) -> _NodeHistory:
        history = self._history.get(node_id)
        if history is None:
            history = _NodeHistory()
            self._history[node_id] = history
        return history

    def record_transaction(self, node_id: bytes, tx_hash: bytes,
                           timestamp: float) -> None:
        """Record a *valid* transaction issued by *node_id*.

        The transaction's weight is resolved (and cached) now; while
        it is below the cap, evaluations of *node_id* re-read it.
        Appends are O(1); an out-of-order timestamp pays an O(n) insort
        and invalidates the rolling window.
        """
        history = self._node(node_id)
        record = _Record(timestamp, tx_hash,
                         self._transaction_weight(tx_hash), self._seq)
        self._seq += 1
        if self._can_grow(record):
            history.unsaturated.append(record)
        if not history.timestamps or timestamp >= history.timestamps[-1]:
            history.records.append(record)
            history.timestamps.append(timestamp)
            # Eagerly admit appends that land inside the current valid
            # window: weight growth pulled at the next evaluation must
            # only ever adjust records the sum actually counts.
            # Admission is only sound when the append lands exactly at
            # w_hi — an in-order record that is nevertheless older than
            # the window start leaves w_hi short of the list end, and
            # blindly bumping w_hi on the *next* in-window append would
            # count the wrong record.  Any other append at/below w_now
            # invalidates instead.
            w_now = history.w_now
            if w_now is not None and timestamp <= w_now:
                if (timestamp >= w_now - self.params.delta_t
                        and history.w_hi == len(history.timestamps) - 1):
                    history.w_sum += record.weight
                    history.w_hi += 1
                else:
                    history.invalidate_window()
        else:
            index = bisect_right(history.timestamps, timestamp)
            history.records.insert(index, record)
            history.timestamps.insert(index, timestamp)
            history.invalidate_window()
        self._m_transactions.inc()

    def record_malicious(self, node_id: bytes, behaviour: str,
                         timestamp: float) -> None:
        """Record a detected malicious behaviour (Eqn. 5 kinds)."""
        self._node(node_id).malicious.append((timestamp, behaviour))
        self._m_penalties.inc(behaviour=behaviour)

    def transaction_count(self, node_id: bytes) -> int:
        history = self._history.get(node_id)
        return len(history.records) if history else 0

    def malicious_count(self, node_id: bytes) -> int:
        history = self._history.get(node_id)
        return len(history.malicious) if history else 0

    # -- weight cache maintenance ----------------------------------------

    def _pull_weights(self, history: _NodeHistory) -> None:
        """Re-read the records of *history* whose capped weight can
        still change, folding growth into the rolling window; records
        that reached the cap are final and leave the set."""
        self._m_pulls.inc(len(history.unsaturated))
        delta_t = self.params.delta_t
        w_now = history.w_now
        still: List[_Record] = []
        for record in history.unsaturated:
            weight = self._transaction_weight(record.tx_hash)
            if weight != record.weight:
                # Records outside the current window (or under a dirty
                # one) need no sum adjustment: they enter with their
                # new weight when the window reaches them.
                if (w_now is not None
                        and w_now - delta_t <= record.timestamp <= w_now):
                    history.w_sum += weight - record.weight
                record.weight = weight
            if self._can_grow(record):
                still.append(record)
        history.unsaturated = still

    # -- evaluation ------------------------------------------------------

    def _transaction_weight(self, tx_hash: bytes) -> float:
        if self._weight_provider is None:
            weight = self._weight_overrides.get(tx_hash, 1.0)
            return min(weight, self.params.max_transaction_weight)
        try:
            weight = float(self._weight_provider(tx_hash))
        except KeyError:
            # The transaction fell out of the provider's view (pruned);
            # use the weight frozen at snapshot time if one was imported.
            weight = self._weight_overrides.get(tx_hash, 1.0)
        return min(weight, self.params.max_transaction_weight)

    def positive_credit(self, node_id: bytes, now: float) -> float:
        """CrP_i (Eqn. 3): weighted activity over the last ΔT seconds.

        Served from the per-node rolling window — amortised O(1) for
        monotone ``now``, never O(history) — after pulling the node's
        unsaturated weights.
        """
        history = self._history.get(node_id)
        if history is None:
            return 0.0
        if history.unsaturated:
            self._pull_weights(history)
        return (history.window_sum(now, self.params.delta_t)
                / self.params.delta_t)

    def negative_credit(self, node_id: bytes, now: float) -> float:
        """CrN_i (Eqn. 4): decaying, never-vanishing penalties."""
        history = self._history.get(node_id)
        if history is None:
            return 0.0
        penalty = 0.0
        for timestamp, behaviour in history.malicious:
            if timestamp > now:
                continue
            elapsed = max(now - timestamp, self.params.min_elapsed)
            penalty += (
                self.params.punishment_coefficient(behaviour)
                * self.params.delta_t / elapsed
            )
        return -penalty

    def credit(self, node_id: bytes, now: float) -> float:
        """Cr_i (Eqn. 2)."""
        self._m_evaluations.inc()
        return (
            self.params.lambda1 * self.positive_credit(node_id, now)
            + self.params.lambda2 * self.negative_credit(node_id, now)
        )

    def breakdown(self, node_id: bytes, now: float) -> CreditBreakdown:
        """Full evaluation with components, for traces and Fig. 8."""
        positive = self.positive_credit(node_id, now)
        negative = self.negative_credit(node_id, now)
        history = self._history.get(node_id)
        active = 0
        malicious = 0
        if history is not None:
            active = history.active_count(now, self.params.delta_t)
            malicious = sum(
                1 for timestamp, _ in history.malicious if timestamp <= now)
        return CreditBreakdown(
            credit=self.params.lambda1 * positive + self.params.lambda2 * negative,
            positive=positive,
            negative=negative,
            active_transactions=active,
            malicious_events=malicious,
        )

    # -- state transfer ----------------------------------------------------

    def export_state(self, *, now: float) -> Dict[str, object]:
        """Serialisable behaviour histories, for node snapshots.

        Transaction records older than ΔT before *now* are dropped
        (they can never re-enter the CrP window); malicious records are
        exported in full — Eqn. 4 never forgets.  Each node's export is
        O(active), found by bisection, not an O(history) filter.
        """
        cutoff = now - self.params.delta_t
        nodes: Dict[str, object] = {}
        for node_id, history in self._history.items():
            keep = bisect_left(history.timestamps, cutoff)
            nodes[node_id.hex()] = {
                # Each record carries its weight *resolved now*: the
                # importer may not hold the transaction any more
                # (pruned), and replicas must still agree on CrP.
                "transactions": [
                    [record.timestamp, record.tx_hash.hex(),
                     self._transaction_weight(record.tx_hash)]
                    for record in history.records[keep:]
                ],
                "malicious": [
                    [timestamp, behaviour]
                    for timestamp, behaviour in history.malicious
                ],
            }
        return {"now": now, "nodes": nodes}

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`export_state` output (replaces all histories)."""
        try:
            histories: Dict[bytes, _NodeHistory] = {}
            overrides: Dict[bytes, float] = {}
            seq = self._seq
            for node_hex, entry in state["nodes"].items():
                history = _NodeHistory()
                for record_entry in entry["transactions"]:
                    timestamp, tx_hash_hex, weight = record_entry
                    tx_hash = bytes.fromhex(tx_hash_hex)
                    overrides[tx_hash] = float(weight)
                    record = _Record(float(timestamp), tx_hash,
                                     float(weight), seq)
                    seq += 1
                    insort(history.records, record)
                history.timestamps = [r.timestamp for r in history.records]
                history.malicious = [
                    (float(timestamp), str(behaviour))
                    for timestamp, behaviour in entry["malicious"]
                ]
                histories[bytes.fromhex(node_hex)] = history
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad credit state: {exc}") from exc
        self._seq = seq
        self._history = histories
        self._weight_overrides = overrides
        # Re-resolve against the live provider where possible: imported
        # weights are the frozen fallback for pruned transactions only.
        for history in histories.values():
            self._resolve_weights(history)

    def forget_before(self, node_id: bytes, cutoff: float) -> int:
        """Prune transaction records older than *cutoff* (they can no
        longer enter the CrP window).  Malicious records are *never*
        pruned — Eqn. 4's penalties decay but "cannot be eliminated over
        time".  Returns how many records were dropped.

        O(log n + dropped): the prune point is found by bisection and
        only the dropped prefix is touched, never the retained suffix.
        """
        history = self._history.get(node_id)
        if history is None:
            return 0
        keep = bisect_left(history.timestamps, cutoff)
        if keep == 0:
            return 0
        del history.records[:keep]
        del history.timestamps[:keep]
        history.unsaturated = [r for r in history.unsaturated
                               if r.timestamp >= cutoff]
        history.invalidate_window()
        return keep
