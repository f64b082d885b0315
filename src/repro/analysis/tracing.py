"""Credit-trace recording — the machinery behind Fig. 8.

Fig. 8 plots four curves against time for one node: transaction weights
``w`` (as bars), the credit ``Cr`` and its components ``CrP``/``CrN``.
:class:`CreditTracer` samples a :class:`~repro.core.credit.
CreditRegistry` on a fixed grid and exposes the same four series.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional, Tuple

from ..core.credit import CreditRegistry
from ..telemetry.registry import coerce_registry

__all__ = ["CreditTracePoint", "CreditTracer"]


@dataclass(frozen=True)
class CreditTracePoint:
    """One sample of the Fig. 8 curves."""

    time: float
    credit: float
    positive: float
    negative: float


@dataclass
class CreditTracer:
    """Samples one node's credit over time.

    Besides its own point list (the Fig. 8 series), the tracer is an
    adapter onto the unified telemetry registry: pass ``telemetry=`` and
    every sample also lands in the ``repro_credit_traced_value`` gauge
    (labelled per component), so credit traces appear in the same
    Prometheus exports as everything else.

    Args:
        registry: the registry being traced.
        node_id: whose credit to sample.
        telemetry: optional :class:`~repro.telemetry.registry.MetricsRegistry`
            to mirror samples into.
    """

    registry: CreditRegistry
    node_id: bytes
    points: List[CreditTracePoint] = field(default_factory=list)
    events: List[Tuple[float, str, float]] = field(default_factory=list)
    telemetry: InitVar = None

    def __post_init__(self, telemetry):
        metrics = coerce_registry(telemetry)
        self._m_traced = metrics.gauge(
            "repro_credit_traced_value",
            "Last sampled credit trace value, by component")
        self._m_trace_events = metrics.counter(
            "repro_credit_trace_events_total",
            "Trace annotations (attack markers, weight bars), by label")

    def sample(self, now: float) -> CreditTracePoint:
        """Record one sample at time *now*."""
        breakdown = self.registry.breakdown(self.node_id, now)
        point = CreditTracePoint(
            time=now,
            credit=breakdown.credit,
            positive=breakdown.positive,
            negative=breakdown.negative,
        )
        self.points.append(point)
        self._m_traced.set(point.credit, component="credit")
        self._m_traced.set(point.positive, component="positive")
        self._m_traced.set(point.negative, component="negative")
        return point

    def sample_range(self, start: float, end: float, step: float) -> None:
        """Sample on a uniform grid [start, end] inclusive."""
        if step <= 0:
            raise ValueError("step must be positive")
        t = start
        while t <= end + 1e-9:
            self.sample(t)
            t += step

    def mark_event(self, time: float, label: str, value: float = 0.0) -> None:
        """Annotate the trace (transaction weights / attack markers —
        the bars of Fig. 8)."""
        self.events.append((time, label, value))
        self._m_trace_events.inc(label=label)

    # -- read-outs (what the bench prints) --------------------------------

    def minimum_credit(self) -> Optional[float]:
        if not self.points:
            return None
        return min(p.credit for p in self.points)

    def recovery_time(self, *, after: float, threshold: float) -> Optional[float]:
        """Seconds from *after* until credit first returns above
        *threshold* (Fig. 8's "takes 37 seconds to recover" metric)."""
        for point in self.points:
            if point.time >= after and point.credit >= threshold:
                return point.time - after
        return None
