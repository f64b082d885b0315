"""Unified telemetry: metrics registry, sim-clock tracing, exporters.

The observability layer for the whole reproduction.  One
:class:`~repro.telemetry.registry.MetricsRegistry` (counters, gauges,
fixed-bucket histograms) and one :class:`~repro.telemetry.tracer.Tracer`
(nested spans in simulated time) serve a deployment; subsystems receive
the registry through a ``telemetry=`` knob and instrument their hot
paths.  Disabled means :data:`~repro.telemetry.registry.NULL_REGISTRY`
— inert singleton instruments whose calls are empty, so tier-1 timings
are unaffected.

On top of the metrics sit the causal layers:
:class:`~repro.telemetry.tracer.TraceContext` rides message envelopes so
spans parent across nodes, and the
:class:`~repro.telemetry.lifecycle.LifecycleTracker` assembles
per-transaction timelines (submitted → PoW → per-node attach →
confirmed) that export as Chrome trace-event JSON
(:func:`~repro.telemetry.trace_export.chrome_trace_json`) and
causal-tree text (:func:`~repro.telemetry.trace_export.render_causal_tree`).

Metric names follow ``repro_<subsystem>_<name>`` with subsystems
``tangle``, ``pow``, ``network``, ``keydist``, ``credit``, ``trace``
and ``lifecycle`` — the catalog lives in ``docs/TELEMETRY.md``.
"""
