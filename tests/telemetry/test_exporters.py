"""Exporter output against checked-in golden files.

The golden artifacts live next to this test in ``goldens/``; they pin
the exact JSONL record shapes and Prometheus exposition layout so a
formatting regression shows up as a readable diff.  Regenerate with::

    PYTHONPATH=src python tests/telemetry/test_exporters.py regen
"""

import io
import json
import pathlib
import sys

from repro.telemetry.exporters import (
    export_jsonl,
    render_summary,
    to_prometheus_text,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


def build_sample():
    """A small deterministic registry + tracer exercising every
    instrument kind, label sets and span nesting."""
    clock = FakeClock()
    registry = MetricsRegistry()
    tracer = Tracer(clock)
    requests = registry.counter("repro_demo_requests_total",
                                "Demo requests served")
    depth = registry.gauge("repro_demo_queue_depth", "Demo queue depth")
    latency = registry.histogram("repro_demo_latency_seconds",
                                 "Demo latency", buckets=(0.1, 1.0, 10.0))
    registry.counter("repro_demo_idle_total", "Never emitted")

    clock.t = 1.0
    with tracer.span("phase", kind="demo"):
        requests.inc(node="a")
        clock.t = 2.0
        with tracer.span("step"):
            requests.inc(2, node="b")
            depth.set(3)
            clock.t = 3.0
        latency.observe(0.05, node="a")
        latency.observe(5.0, node="a")
        clock.t = 4.0
    return registry, tracer


def test_jsonl_matches_golden():
    registry, tracer = build_sample()
    sink = io.StringIO()
    records = export_jsonl(sink, tracer)
    assert records == 2  # one line per finished span
    expected = (GOLDEN_DIR / "sample.jsonl").read_text()
    assert sink.getvalue() == expected


def test_jsonl_lines_are_valid_json_in_time_order():
    _, tracer = build_sample()
    sink = io.StringIO()
    export_jsonl(sink, tracer)
    rows = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [r["t"] for r in rows] == sorted(r["t"] for r in rows)
    assert {r["type"] for r in rows} == {"span"}

    spans = {r["name"]: r for r in rows}
    assert spans["step"]["parent_id"] == spans["phase"]["span_id"]
    assert spans["phase"]["duration"] == 3.0


def test_prometheus_matches_golden():
    registry, _ = build_sample()
    expected = (GOLDEN_DIR / "sample.prom").read_text()
    assert to_prometheus_text(registry) == expected


def test_prometheus_histogram_buckets_are_cumulative():
    registry, _ = build_sample()
    text = to_prometheus_text(registry)
    assert ('repro_demo_latency_seconds_bucket'
            '{le="0.1",node="a"} 1') in text
    assert ('repro_demo_latency_seconds_bucket'
            '{le="10",node="a"} 2') in text
    assert ('repro_demo_latency_seconds_bucket'
            '{le="+Inf",node="a"} 2') in text
    assert 'repro_demo_latency_seconds_count{node="a"} 2' in text


def test_render_summary_lists_every_instrument():
    registry, _ = build_sample()
    table = render_summary(registry)
    for name in ("repro_demo_requests_total", "repro_demo_queue_depth",
                 "repro_demo_latency_seconds", "repro_demo_idle_total"):
        assert name in table
    assert "histogram" in table
    assert "total=3" in table  # requests across both label sets


def test_render_summary_includes_quantiles():
    registry, _ = build_sample()
    table = render_summary(registry)
    assert "p50=" in table and "p95=" in table and "p99=" in table


def test_jsonl_to_a_path_writes_the_same_bytes(tmp_path):
    _, tracer = build_sample()
    sink = io.StringIO()
    export_jsonl(sink, tracer)
    path = tmp_path / "telemetry.jsonl"
    assert export_jsonl(str(path), tracer) == 2
    assert path.read_text() == sink.getvalue()


def test_jsonl_skips_spans_still_open():
    clock = FakeClock()
    tracer = Tracer(clock)
    sink = io.StringIO()
    with tracer.span("phase"):
        assert export_jsonl(sink, tracer) == 0
    assert sink.getvalue() == ""


def test_prometheus_types_are_exactly_the_instruments():
    """The page describes the registry and nothing else: one ``# TYPE``
    line per instrument, no sample of the exporter's own making."""
    registry, _ = build_sample()
    text = to_prometheus_text(registry)
    typed = [line.split()[2] for line in text.splitlines()
             if line.startswith("# TYPE")]
    assert typed == [i.name for i in registry.instruments()]


def test_render_summary_ends_at_the_last_instrument():
    registry, _ = build_sample()
    lines = render_summary(registry).rstrip().splitlines()
    assert lines[-1].startswith(registry.instruments()[-1].name)
    assert not any("event log" in line for line in lines)


def test_prometheus_quantile_gauges():
    registry, _ = build_sample()
    text = to_prometheus_text(registry)
    # Interpolated estimates for the two observations (0.05, 5.0): the
    # p50 target lands exactly on the first bucket's upper edge (0.1).
    assert ('repro_demo_latency_seconds_quantile'
            '{node="a",quantile="0.5"} 0.1') in text
    assert 'quantile="0.99"' in text


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    registry, tracer = build_sample()
    sink = io.StringIO()
    export_jsonl(sink, tracer)
    (GOLDEN_DIR / "sample.jsonl").write_text(sink.getvalue())
    (GOLDEN_DIR / "sample.prom").write_text(to_prometheus_text(registry))
    print(f"regenerated goldens in {GOLDEN_DIR}")


if __name__ == "__main__" and "regen" in sys.argv:
    _regenerate()
