"""Trace artifacts: Chrome trace-event JSON, causal trees, critical paths.

Three consumers of the causal layer (:mod:`repro.telemetry.lifecycle`):

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Trace Event
  Format understood by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``: one timeline row (tid) per trace, complete
  ("X") events for spans, instant ("i") events for lifecycle stages.
  Timestamps are *simulated* microseconds, so a trace of a seeded run
  is byte-identical across processes.
* :func:`critical_path` — decomposes one transaction's submit→confirm
  latency into named sequential segments (tips RTT, PoW grind, first
  hop, validation, propagation, confirmation wait) and names the
  dominant one.
* :func:`render_causal_tree` / :func:`lifecycle_report` — the human
  and machine views: a per-transaction hop tree with per-stage
  timings, and a canonical-JSON summary with latency quantiles and
  critical-path totals.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .lifecycle import TxLifecycle
from .registry import Histogram, bucket_quantile

__all__ = [
    "to_chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "dominant_stage",
    "render_causal_tree",
    "render_lifecycle_text",
    "lifecycle_report",
]

_MICROS = 1_000_000.0


# -- Chrome trace-event export ----------------------------------------------

def to_chrome_trace(tracer, lifecycle=None) -> Dict[str, object]:
    """Build a Trace Event Format document from finished spans.

    Every distinct trace id gets its own thread row; driver spans (no
    trace id) share the ``driver`` row.  Lifecycle stage events are
    added as instant events on their trace's row.
    """
    tids: Dict[str, int] = {}

    def tid_for(trace_id: str) -> int:
        key = trace_id or "driver"
        if key not in tids:
            tids[key] = len(tids) + 1
        return tids[key]

    events: List[Dict[str, object]] = []
    for span in tracer.finished():
        args: Dict[str, object] = dict(span.attributes)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": span.start * _MICROS,
            "dur": span.duration * _MICROS,
            "pid": 1,
            "tid": tid_for(span.trace_id),
            "args": args,
        })
    if lifecycle is not None:
        for timeline in lifecycle.timelines():
            tid = tid_for(timeline.trace_id)
            for event in timeline.events:
                events.append({
                    "name": f"stage:{event.stage}",
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "t",
                    "ts": event.time * _MICROS,
                    "pid": 1,
                    "tid": tid,
                    "args": {"node": event.node,
                             "tx": timeline.short_hash},
                })
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": key},
        }
        for key, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    events.sort(key=lambda e: (e["ts"], e["tid"], e["name"], e["ph"]))
    return {
        "displayTimeUnit": "ms",
        "traceEvents": metadata + events,
    }


def chrome_trace_json(tracer, lifecycle=None) -> str:
    """Canonical (sorted-keys, no-whitespace) Chrome trace JSON."""
    return json.dumps(to_chrome_trace(tracer, lifecycle),
                      sort_keys=True, separators=(",", ":"))


# -- critical-path analysis --------------------------------------------------

def critical_path(timeline: TxLifecycle) -> List[Tuple[str, float]]:
    """Sequential latency segments of one transaction's life.

    Segments are derived from stage timestamps and clamped at zero (a
    stage recorded in the same scheduler step as its predecessor
    contributes 0.0 s); segments whose stages never happened are
    omitted::

        tips_rtt          submitted      -> tips_received
        pow               tips_received  -> pow_solved
        first_hop         pow_solved     -> first node received
        validation        first received -> first node attached
        propagation       first attached -> last node attached
        confirmation_wait first attached -> confirmed
    """
    t_submit = timeline.stage_time("submitted")
    t_tips = timeline.stage_time("tips_received")
    t_pow = timeline.stage_time("pow_solved")
    received = timeline.stage_times("received")
    attached = timeline.stage_times("attached")
    t_confirm = timeline.stage_time("confirmed")

    segments: List[Tuple[str, float]] = []

    def add(name: str, start: Optional[float],
            end: Optional[float]) -> None:
        if start is not None and end is not None:
            segments.append((name, max(0.0, end - start)))

    add("tips_rtt", t_submit, t_tips)
    add("pow", t_tips if t_tips is not None else t_submit, t_pow)
    first_received = min(received.values()) if received else None
    first_attached = min(attached.values()) if attached else None
    last_attached = max(attached.values()) if attached else None
    add("first_hop", t_pow, first_received)
    add("validation", first_received, first_attached)
    add("propagation", first_attached, last_attached)
    add("confirmation_wait", first_attached, t_confirm)
    return segments


def dominant_stage(timeline: TxLifecycle) -> Optional[str]:
    """The critical-path segment with the largest share of latency
    (ties broken by name, so the answer is deterministic)."""
    segments = critical_path(timeline)
    if not segments:
        return None
    return max(segments, key=lambda seg: (seg[1], seg[0]))[0]


# -- text and report rendering ----------------------------------------------

def render_causal_tree(timeline: TxLifecycle) -> str:
    """One transaction's hop tree with per-stage relative timings."""
    t0 = timeline.started
    header = (f"{timeline.trace_id}"
              f"  tx={timeline.short_hash or '(unbound)'}"
              f"  start={t0:.3f}s"
              f"  nodes={len(timeline.nodes())}")
    lines = [header]
    device_stages = []
    for stage in ("submitted", "tips_received", "pow_solved"):
        t = timeline.stage_time(stage)
        if t is not None:
            device_stages.append(f"{stage}@{t - t0:+.3f}s")
    lines.append(f"└─ {timeline.device} [{' '.join(device_stages)}]")
    attached = timeline.stage_times("attached")
    node_names = sorted(
        set(timeline.stage_times("received")) | set(attached),
        key=lambda n: (attached.get(n, float("inf")), n))
    for i, node in enumerate(node_names):
        branch = "└─" if i == len(node_names) - 1 else "├─"
        stages = []
        for stage in ("received", "solidified", "attached",
                      "credit_observed"):
            t = timeline.stage_times(stage).get(node)
            if t is not None:
                stages.append(f"{stage}@{t - t0:+.3f}s")
        lines.append(f"   {branch} {node} [{' '.join(stages)}]")
    t_confirm = timeline.stage_time("confirmed")
    if t_confirm is not None:
        lines.append(f"   confirmed@{t_confirm - t0:+.3f}s")
    dominant = dominant_stage(timeline)
    if dominant is not None:
        path = " ".join(f"{name}={seconds:.3f}s"
                        for name, seconds in critical_path(timeline))
        lines.append(f"   critical path: {path}  dominant={dominant}")
    return "\n".join(lines)


def lifecycle_report(lifecycle, *, node_count: int) -> Dict[str, object]:
    """Canonical plain-data summary of every sampled timeline.

    Per-run aggregate counts, latency quantiles (re-derived through a
    scratch :class:`Histogram` so the numbers match the exported
    metrics), critical-path totals, and one record per *delivered*
    transaction (bound and attached somewhere); rounds that never bound
    a hash or whose submit was lost on the wireless hop are counted but
    carry no tree.
    """
    timelines = lifecycle.timelines()
    delivered = [t for t in timelines if t.bound and t.attached_nodes()]
    lost = [t for t in timelines if t.bound and not t.attached_nodes()]
    unbound = [t for t in timelines if not t.bound]

    attach_hist = _scratch_histogram()
    confirm_hist = _scratch_histogram()
    path_totals: Dict[str, Dict[str, object]] = {}
    records = []
    for timeline in delivered:
        first_attach = timeline.stage_time("attached")
        if first_attach is not None:
            attach_hist.observe(first_attach - timeline.started)
        t_confirm = timeline.stage_time("confirmed")
        if t_confirm is not None:
            confirm_hist.observe(t_confirm - timeline.started)
        segments = critical_path(timeline)
        dominant = dominant_stage(timeline)
        for name, seconds in segments:
            entry = path_totals.setdefault(
                name, {"seconds": 0.0, "dominant_count": 0})
            entry["seconds"] += seconds
        if dominant is not None:
            path_totals[dominant]["dominant_count"] += 1
        records.append({
            "trace_id": timeline.trace_id,
            "tx": timeline.short_hash,
            "device": timeline.device,
            "started": timeline.started,
            "nodes": timeline.nodes(),
            "coverage": (len(timeline.attached_nodes()) / node_count
                         if node_count else 0.0),
            "confirmed": timeline.confirmed,
            "critical_path": [[name, seconds] for name, seconds in segments],
            "dominant_stage": dominant,
        })

    def quantile_block(hist: Histogram) -> Dict[str, Optional[float]]:
        merged = hist.merged()
        return {
            "count": merged.count,
            "mean": merged.mean,
            "p50": bucket_quantile(hist.buckets, merged, 0.5),
            "p95": bucket_quantile(hist.buckets, merged, 0.95),
            "p99": bucket_quantile(hist.buckets, merged, 0.99),
        }

    coverage = (sum(r["coverage"] for r in records) / len(records)
                if records else 0.0)
    return {
        "sampled": len(timelines),
        "delivered": len(delivered),
        "confirmed": sum(1 for t in delivered if t.confirmed),
        "lost_in_transit": len(lost),
        "incomplete_rounds": len(unbound),
        "node_count": node_count,
        "propagation_coverage": coverage,
        "submit_to_attach": quantile_block(attach_hist),
        "submit_to_confirm": quantile_block(confirm_hist),
        "critical_path_totals": {
            name: {"seconds": entry["seconds"],
                   "dominant_count": entry["dominant_count"]}
            for name, entry in sorted(path_totals.items())
        },
        "transactions": records,
    }


def render_lifecycle_text(lifecycle, *, node_count: int) -> str:
    """The full text report: summary header + one causal tree per
    delivered transaction."""
    report = lifecycle_report(lifecycle, node_count=node_count)
    lines = [
        "transaction lifecycle report",
        f"  sampled={report['sampled']}"
        f" delivered={report['delivered']}"
        f" confirmed={report['confirmed']}"
        f" lost_in_transit={report['lost_in_transit']}"
        f" incomplete_rounds={report['incomplete_rounds']}",
        f"  propagation coverage: {report['propagation_coverage']:.3f}"
        f" of {node_count} full nodes",
    ]
    attach = report["submit_to_attach"]
    if attach["count"]:
        lines.append(
            f"  submit->attach: n={attach['count']}"
            f" mean={attach['mean']:.3f}s p50={attach['p50']:.3f}s"
            f" p95={attach['p95']:.3f}s p99={attach['p99']:.3f}s")
    confirm = report["submit_to_confirm"]
    if confirm["count"]:
        lines.append(
            f"  submit->confirm: n={confirm['count']}"
            f" mean={confirm['mean']:.3f}s p50={confirm['p50']:.3f}s"
            f" p95={confirm['p95']:.3f}s p99={confirm['p99']:.3f}s")
    totals = report["critical_path_totals"]
    if totals:
        dominant_line = " ".join(
            f"{name}:{entry['dominant_count']}"
            for name, entry in totals.items() if entry["dominant_count"])
        lines.append(f"  dominant stages: {dominant_line}")
    lines.append("")
    for timeline in lifecycle.timelines():
        if timeline.bound and timeline.attached_nodes():
            lines.append(render_causal_tree(timeline))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _scratch_histogram() -> Histogram:
    """A registry-less histogram for report-time quantile estimation."""
    from .registry import MetricsRegistry

    scratch = MetricsRegistry()
    return scratch.histogram("repro_scratch_seconds", "report scratch")
