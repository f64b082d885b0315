"""Telemetry exporters: JSONL span stream, Prometheus text, summary.

Three consumers, three formats:

* :func:`export_jsonl` — every finished span as one JSON object per
  line, in simulated-time order: the artifact CI uploads.
* :func:`to_prometheus_text` — the standard text exposition format
  (``# HELP`` / ``# TYPE`` / samples, cumulative histogram buckets),
  so the registry's final state drops into any Prometheus tooling.
* :func:`render_summary` — the human-facing table, built on the same
  :func:`repro.analysis.metrics.format_table` the benchmarks use.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, List, Tuple, Union

from .registry import (QUANTILES, Counter, Gauge, Histogram,
                       MetricsRegistry, bucket_quantile)
from .tracer import Tracer

__all__ = ["export_jsonl", "to_prometheus_text", "render_summary"]


def _label_str(labels: Iterable[Tuple[str, str]]) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}" if inner else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


# -- JSONL ------------------------------------------------------------------

def export_jsonl(sink: Union[str, IO[str]], tracer: Tracer) -> int:
    """Write *tracer*'s finished spans to *sink* (a path or an open text
    file) as JSON Lines, sorted by simulated start time; returns the
    number of lines written."""
    records = [{
        "type": "span",
        "t": span.start,
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": span.attributes,
    } for span in sorted(tracer.finished(), key=lambda span: span.start)]

    def write_all(handle: IO[str]) -> int:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    if isinstance(sink, str):
        with open(sink, "w") as handle:
            return write_all(handle)
    return write_all(sink)


# -- Prometheus text exposition ---------------------------------------------

def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry's current state in the Prometheus text
    format (version 0.0.4): HELP/TYPE headers, one sample per label
    set, cumulative ``_bucket``/``_sum``/``_count`` for histograms."""
    lines: List[str] = []
    for inst in registry.instruments():
        if inst.help:
            lines.append(f"# HELP {inst.name} {inst.help}")
        lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, (Counter, Gauge)):
            series = inst.series()
            if not series:
                lines.append(f"{inst.name} 0")
            for labels in sorted(series):
                lines.append(
                    f"{inst.name}{_label_str(labels)} "
                    f"{_format_value(series[labels])}"
                )
        elif isinstance(inst, Histogram):
            series = inst.series()
            if not series:
                series = {(): None}
            for labels in sorted(series):
                state = series[labels]
                cumulative = 0
                counts = (state.bucket_counts if state is not None
                          else [0] * (len(inst.buckets) + 1))
                for edge, bucket_count in zip(
                        tuple(inst.buckets) + (math.inf,), counts):
                    cumulative += bucket_count
                    le = dict(labels)
                    le["le"] = _format_value(edge)
                    lines.append(
                        f"{inst.name}_bucket{_label_str(sorted(le.items()))} "
                        f"{cumulative}"
                    )
                total = state.total if state is not None else 0.0
                count = state.count if state is not None else 0
                lines.append(
                    f"{inst.name}_sum{_label_str(labels)} "
                    f"{_format_value(total)}"
                )
                lines.append(
                    f"{inst.name}_count{_label_str(labels)} {count}"
                )
                if state is not None and state.count:
                    for q in QUANTILES:
                        estimate = bucket_quantile(inst.buckets, state, q)
                        ql = dict(labels)
                        ql["quantile"] = _format_value(q)
                        lines.append(
                            f"{inst.name}_quantile"
                            f"{_label_str(sorted(ql.items()))} "
                            f"{_format_value(estimate)}"
                        )
    return "\n".join(lines) + "\n"


# -- summary table ----------------------------------------------------------

def render_summary(registry: MetricsRegistry) -> str:
    """One row per instrument: kind, observation count, headline value."""
    # Imported here: the repro.analysis package init loads
    # analysis.energy, whose import of repro.nodes reaches
    # network.proc, which imports this module — a module-level import
    # would be circular during package init.
    from ..analysis.metrics import format_table

    rows = []
    for inst in registry.instruments():
        if isinstance(inst, Histogram):
            merged = inst.merged()
            headline = f"n={merged.count} mean={merged.mean:.4g}"
            if merged.count:
                quantiles = inst.quantiles()
                headline += "".join(
                    f" p{int(q * 100)}={quantiles[q]:.4g}"
                    for q in sorted(quantiles))
                headline += f" max={merged.maximum:.4g}"
            observations = merged.count
        else:
            series = inst.series()
            observations = len(series)
            total = sum(series.values())
            headline = f"total={total:.6g} series={len(series)}"
        rows.append((inst.name, inst.kind, observations, headline))
    return format_table(rows, headers=["metric", "kind", "series", "value"])
