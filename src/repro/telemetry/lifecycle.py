"""Per-transaction lifecycle tracking: the causal timeline layer.

A :class:`LifecycleTracker` follows sampled transactions from the
light-node submit round through gossip hops to per-node attachment and
confirmation, recording a :class:`TxLifecycle` timeline of
``(stage, node, sim_time)`` events plus one causal span tree on the
shared :class:`~repro.telemetry.tracer.Tracer`:

* ``tx.lifecycle`` — the root span, opened when the device starts its
  submit round (trace id ``tx:<device>:<counter>``, deterministic);
* ``tx.ingest`` — one child span per node that attaches the
  transaction, parented on whichever span was ambient when the
  carrying message was sent (so hops chain device → gateway → peers).

Stages (in causal order)::

    submitted -> tips_received -> pow_solved
              -> received / verified / solidified / attached  (per node)
              -> credit_observed                              (per node)
              -> confirmed                                    (deployment-wide)

Everything is driven through the node hot paths behind the same
zero-overhead discipline as the rest of the telemetry package:
deployments built without ``telemetry=True`` get :data:`NULL_LIFECYCLE`
whose methods are empty one-liners and whose ``tracer`` is the null
tracer, so the ledger stays bit-identical (see
``tests/telemetry/test_null_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .registry import SECONDS_BUCKETS, coerce_registry
from .tracer import NULL_TRACER, Span, TraceContext, Tracer

__all__ = [
    "StageEvent",
    "TxLifecycle",
    "LifecycleTracker",
    "NullLifecycle",
    "NULL_LIFECYCLE",
    "coerce_lifecycle",
    "STAGES",
]

STAGES: Tuple[str, ...] = (
    "submitted",
    "tips_received",
    "pow_solved",
    "received",
    "verified",
    "solidified",
    "attached",
    "credit_observed",
    "confirmed",
)
"""Every stage name a timeline may carry, in causal order."""


@dataclass(frozen=True)
class StageEvent:
    """One lifecycle fact: *stage* happened at *node* at sim-time *time*."""

    stage: str
    node: str
    time: float


@dataclass
class TxLifecycle:
    """The observed timeline of one sampled transaction."""

    trace_id: str
    device: str
    started: float
    tx_hash: Optional[bytes] = None
    confirmed: bool = False
    events: List[StageEvent] = field(default_factory=list)
    root: Optional[Span] = None
    _seen: set = field(default_factory=set)

    @property
    def short_hash(self) -> str:
        return self.tx_hash.hex()[:16] if self.tx_hash else ""

    @property
    def bound(self) -> bool:
        """True once the PoW solved and a concrete tx hash exists."""
        return self.tx_hash is not None

    def stage_time(self, stage: str, node: Optional[str] = None
                   ) -> Optional[float]:
        """Earliest time *stage* was recorded (at *node* if given)."""
        times = [e.time for e in self.events
                 if e.stage == stage and (node is None or e.node == node)]
        return min(times) if times else None

    def stage_times(self, stage: str) -> Dict[str, float]:
        """node -> time for every record of *stage*."""
        return {e.node: e.time for e in self.events if e.stage == stage}

    def nodes(self) -> List[str]:
        """Every distinct node that recorded a stage, sorted."""
        return sorted({e.node for e in self.events})

    def attached_nodes(self) -> List[str]:
        return sorted({e.node for e in self.events if e.stage == "attached"})

    @property
    def context(self) -> Optional[TraceContext]:
        if self.root is None:
            return None
        return TraceContext(trace_id=self.trace_id,
                            span_id=self.root.span_id)


class _NullScope:
    """Shared no-op context manager for the untracked-ingest path."""

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _IngestScope:
    """Activates an ingest span's context for the with-block, then ends
    the span — so flood sends issued inside the block chain onto it."""

    __slots__ = ("_tracer", "span", "_activation")

    def __init__(self, tracer: Tracer, span: Span):
        self._tracer = tracer
        self.span = span
        self._activation = None

    def __enter__(self) -> Span:
        self._activation = self._tracer.activate(
            self._tracer.context_of(self.span))
        self._activation.__enter__()
        return self.span

    def __exit__(self, *exc) -> bool:
        self._activation.__exit__(*exc)
        self._tracer.end_span(self.span)
        return False


class LifecycleTracker:
    """Owns sampled :class:`TxLifecycle` timelines and their spans.

    Args:
        clock: shared sim clock (callable or ``now()`` object).
        tracer: the deployment tracer spans are opened on.
        registry: the deployment metrics registry (may be null).
        sample_every: trace every Nth submit round per tracker
            (1 = every transaction).
    """

    enabled = True

    def __init__(self, clock: object = None, *, tracer: Tracer = None,
                 registry: object = None, sample_every: int = 1):
        if clock is None:
            self._time_fn: Callable[[], float] = lambda: 0.0
        elif callable(clock):
            self._time_fn = clock
        else:
            self._time_fn = clock.now
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sample_every = sample_every
        self._counter = 0
        self._timelines: List[TxLifecycle] = []
        self._by_hash: Dict[bytes, TxLifecycle] = {}

        registry = coerce_registry(registry)
        self._m_sampled = registry.counter(
            "repro_trace_transactions_sampled_total",
            "Submit rounds picked up by the lifecycle tracker")
        self._m_spans = registry.counter(
            "repro_trace_spans_total",
            "Causal spans opened for sampled transactions")
        self._m_stage = registry.counter(
            "repro_lifecycle_stage_events_total",
            "Lifecycle stage records, by stage")
        self._m_attach_latency = registry.histogram(
            "repro_lifecycle_submit_to_attach_seconds",
            "Submit round start to first full-node attach",
            buckets=SECONDS_BUCKETS)
        self._m_confirm_latency = registry.histogram(
            "repro_lifecycle_confirmation_seconds",
            "Submit round start to deployment-wide confirmation",
            buckets=SECONDS_BUCKETS)
        self._m_coverage = registry.gauge(
            "repro_lifecycle_propagation_coverage_ratio",
            "Mean fraction of full nodes reached by sampled transactions")

    # -- device-side hooks -------------------------------------------------

    def begin_submission(self, device: str) -> Optional[TxLifecycle]:
        """Called when a light node starts a submit round.

        Returns a timeline handle for every ``sample_every``-th round
        (``None`` otherwise); the handle rides the round's pending-state
        dict until :meth:`bind` attaches a concrete tx hash.
        """
        self._counter += 1
        if (self._counter - 1) % self.sample_every != 0:
            return None
        now = self._time_fn()
        trace_id = f"tx:{device}:{self._counter:05d}"
        timeline = TxLifecycle(trace_id=trace_id, device=device, started=now)
        timeline.root = self.tracer.start_root_span(
            "tx.lifecycle", trace_id, device=device)
        self._timelines.append(timeline)
        self._m_sampled.inc()
        self._m_spans.inc()
        self._record(timeline, "submitted", device, now)
        return timeline

    def record_handle(self, timeline: Optional[TxLifecycle], stage: str,
                      node: str) -> None:
        """Record *stage* on a not-yet-bound timeline handle (no-op for
        unsampled rounds, which carry ``None``)."""
        if timeline is not None:
            self._record(timeline, stage, node, self._time_fn())

    def bind(self, timeline: Optional[TxLifecycle], tx_hash: bytes,
             **attributes: object) -> None:
        """Tie a solved transaction hash to its timeline (records
        ``pow_solved`` — called after the modelled compute delay)."""
        if timeline is None:
            return
        timeline.tx_hash = tx_hash
        self._by_hash[tx_hash] = timeline
        if timeline.root is not None:
            timeline.root.set_attribute("tx", tx_hash.hex()[:16])
            for key, value in attributes.items():
                timeline.root.set_attribute(key, value)
        self._record(timeline, "pow_solved", timeline.device,
                     self._time_fn())

    # -- node-side hooks ---------------------------------------------------

    def record(self, tx_hash: bytes, stage: str, node: str) -> None:
        """Record *stage* at *node* for a bound transaction; unknown
        hashes (unsampled traffic) are ignored, repeats deduplicated."""
        timeline = self._by_hash.get(tx_hash)
        if timeline is not None:
            now = self._time_fn()
            self._record(timeline, stage, node, now)
            if stage == "attached" and len(timeline.stage_times(stage)) == 1:
                self._m_attach_latency.observe(now - timeline.started)

    def ingest(self, tx_hash: bytes, *, node: str,
               source: Optional[str] = None):
        """Context manager wrapping a full node's attach tail.

        For sampled transactions it opens a ``tx.ingest`` span —
        parented on the ambient context when that context belongs to
        the same trace (the carrying message's send site), else on the
        timeline root — and keeps it ambient so the flood sends inside
        the block chain onto it.  Untracked traffic gets a shared no-op
        scope.
        """
        timeline = self._by_hash.get(tx_hash)
        if timeline is None or not self.tracer.enabled:
            return _NULL_SCOPE
        ambient = self.tracer.current
        if ambient is not None and ambient.trace_id == timeline.trace_id:
            parent = ambient
        else:
            parent = timeline.context
        if parent is None:
            return _NULL_SCOPE
        span = self.tracer.start_child_span(
            "tx.ingest", parent, node=node, source=source or "")
        self._m_spans.inc()
        return _IngestScope(self.tracer, span)

    # -- deployment-wide sweeps --------------------------------------------

    def sweep_confirmations(self, nodes, *, threshold: int = 3) -> int:
        """Mark timelines confirmed once *every* node in *nodes* holds
        the transaction at cumulative weight >= *threshold*.

        Confirmation is a property of the whole deployment, so it is
        observed by sweeping (call periodically from the driver), not
        from any single node's hot path.  Returns how many timelines
        newly confirmed.
        """
        now = self._time_fn()
        newly = 0
        for timeline in self._timelines:
            if timeline.confirmed or timeline.tx_hash is None:
                continue
            tx_hash = timeline.tx_hash
            if all(tx_hash in node.tangle
                   and node.tangle.is_confirmed(tx_hash, threshold)
                   for node in nodes):
                timeline.confirmed = True
                self._record(timeline, "confirmed", "*", now)
                self._m_confirm_latency.observe(now - timeline.started)
                newly += 1
        self._update_coverage(len(nodes))
        return newly

    def finalize(self, *, node_count: int) -> None:
        """End-of-run bookkeeping: close still-open root spans and set
        the propagation-coverage gauge."""
        for timeline in self._timelines:
            if timeline.root is not None and not timeline.root.finished:
                self.tracer.end_span(timeline.root)
        self._update_coverage(node_count)

    def _update_coverage(self, node_count: int) -> None:
        bound = [t for t in self._timelines if t.bound]
        if not bound or node_count == 0:
            return
        total = sum(len(t.attached_nodes()) for t in bound)
        self._m_coverage.set(total / (len(bound) * node_count))

    # -- introspection -----------------------------------------------------

    def timelines(self) -> List[TxLifecycle]:
        """Every sampled timeline, in submit order."""
        return list(self._timelines)

    # -- internal ----------------------------------------------------------

    def _record(self, timeline: TxLifecycle, stage: str, node: str,
                now: float) -> None:
        key = (stage, node)
        if key in timeline._seen:
            return
        timeline._seen.add(key)
        timeline.events.append(StageEvent(stage=stage, node=node, time=now))
        self._m_stage.inc(stage=stage)


class NullLifecycle:
    """Disabled lifecycle tracking: every hook is an empty one-liner."""

    enabled = False
    tracer = NULL_TRACER
    sample_every = 0

    def begin_submission(self, device: str) -> None:
        return None

    def record_handle(self, timeline, stage: str, node: str) -> None:
        pass

    def bind(self, timeline, tx_hash: bytes, **attributes: object) -> None:
        pass

    def record(self, tx_hash: bytes, stage: str, node: str) -> None:
        pass

    def ingest(self, tx_hash: bytes, *, node: str,
               source: Optional[str] = None) -> _NullScope:
        return _NULL_SCOPE

    def sweep_confirmations(self, nodes, *, threshold: int = 3) -> int:
        return 0

    def finalize(self, *, node_count: int) -> None:
        pass

    def timelines(self) -> List[TxLifecycle]:
        return []


NULL_LIFECYCLE = NullLifecycle()
"""Shared inert tracker: the default for every ``lifecycle=`` knob."""


def coerce_lifecycle(lifecycle: object) -> object:
    """Normalise a ``lifecycle=`` argument: None -> NULL_LIFECYCLE."""
    return NULL_LIFECYCLE if lifecycle is None else lifecycle
