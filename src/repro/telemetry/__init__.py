"""Unified telemetry: metrics registry, sim-clock tracing, exporters.

The observability layer for the whole reproduction.  One
:class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms)
and one :class:`Tracer` (nested spans in simulated time) serve a
deployment; subsystems receive the registry through a ``telemetry=``
knob and instrument their hot paths.  Disabled means
:data:`NULL_REGISTRY` — inert singleton instruments whose calls are
empty, so tier-1 timings are unaffected.

On top of the metrics sit the causal layers: :class:`TraceContext`
rides message envelopes so spans parent across nodes, and the
:class:`LifecycleTracker` assembles per-transaction timelines
(submitted → PoW → per-node attach → confirmed) that export as Chrome
trace-event JSON (:func:`chrome_trace_json`) and causal-tree text
(:func:`render_causal_tree`).

Metric names follow ``repro_<subsystem>_<name>`` with subsystems
``tangle``, ``pow``, ``network``, ``keydist``, ``credit``, ``trace``
and ``lifecycle`` — the catalog lives in ``docs/TELEMETRY.md``.
"""

from .registry import (
    COUNT_BUCKETS,
    DIFFICULTY_BUCKETS,
    QUANTILES,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    bucket_quantile,
    coerce_registry,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
)
from .lifecycle import (
    NULL_LIFECYCLE,
    LifecycleTracker,
    NullLifecycle,
    StageEvent,
    TxLifecycle,
    coerce_lifecycle,
)
from .exporters import export_jsonl, render_summary, to_prometheus_text
from .trace_export import (
    chrome_trace_json,
    critical_path,
    dominant_stage,
    lifecycle_report,
    render_causal_tree,
    render_lifecycle_text,
    to_chrome_trace,
)
from .scenario import run_smoke_scenario, run_trace_scenario

__all__ = [
    "COUNT_BUCKETS",
    "DIFFICULTY_BUCKETS",
    "QUANTILES",
    "SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LifecycleTracker",
    "MetricsRegistry",
    "NULL_LIFECYCLE",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullLifecycle",
    "NullRegistry",
    "NullTracer",
    "Span",
    "StageEvent",
    "TraceContext",
    "Tracer",
    "TxLifecycle",
    "bucket_quantile",
    "chrome_trace_json",
    "coerce_lifecycle",
    "coerce_registry",
    "critical_path",
    "dominant_stage",
    "export_jsonl",
    "lifecycle_report",
    "render_causal_tree",
    "render_lifecycle_text",
    "render_summary",
    "run_smoke_scenario",
    "run_trace_scenario",
    "to_chrome_trace",
    "to_prometheus_text",
]
