"""Trace artifacts: Chrome trace JSON shape, critical-path analysis,
causal-tree rendering, lifecycle reports."""

import json

import pytest

from repro.telemetry.lifecycle import LifecycleTracker
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace_export import (
    chrome_trace_json,
    critical_path,
    dominant_stage,
    lifecycle_report,
    render_causal_tree,
    render_lifecycle_text,
    to_chrome_trace,
)
from repro.telemetry.tracer import Tracer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


def build_sample():
    """One fully-traced transaction plus one driver span."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracker = LifecycleTracker(clock, tracer=tracer,
                               registry=MetricsRegistry())
    with tracer.span("driver.phase"):
        handle = tracker.begin_submission("device-0")
        clock.t = 0.1
        tracker.record_handle(handle, "tips_received", "device-0")
        clock.t = 0.3
        tracker.bind(handle, b"\xab" * 32, difficulty=8)
        clock.t = 0.4
        tracker.record(b"\xab" * 32, "received", "gateway-0")
        with tracker.ingest(b"\xab" * 32, node="gateway-0",
                            source="device-0"):
            tracker.record(b"\xab" * 32, "attached", "gateway-0")
            clock.t = 0.5
            tracker.record(b"\xab" * 32, "received", "manager")
            with tracker.ingest(b"\xab" * 32, node="manager",
                                source="gateway-0"):
                tracker.record(b"\xab" * 32, "attached", "manager")
        clock.t = 3.0
    return clock, tracer, tracker


def sweep_confirm(tracker, clock, t=2.0):
    class Tangle:
        def __contains__(self, tx_hash):
            return True

        def is_confirmed(self, tx_hash, threshold):
            return True

    class Node:
        tangle = Tangle()

    clock.t = t
    tracker.sweep_confirmations([Node(), Node()])


class TestChromeTrace:
    def test_document_shape(self):
        clock, tracer, tracker = build_sample()
        tracker.finalize(node_count=2)
        doc = to_chrome_trace(tracer, tracker)
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_rows_partition_by_trace(self):
        clock, tracer, tracker = build_sample()
        tracker.finalize(node_count=2)
        doc = to_chrome_trace(tracer, tracker)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"driver", "tx:device-0:00001"}
        driver_tid = next(e["tid"] for e in doc["traceEvents"]
                          if e["ph"] == "M"
                          and e["args"]["name"] == "driver")
        tx_tid = next(e["tid"] for e in doc["traceEvents"]
                      if e["ph"] == "M"
                      and e["args"]["name"] != "driver")
        span_rows = {e["name"]: e["tid"] for e in doc["traceEvents"]
                     if e["ph"] == "X"}
        assert span_rows["driver.phase"] == driver_tid
        assert span_rows["tx.lifecycle"] == tx_tid
        assert span_rows["tx.ingest"] == tx_tid

    def test_timestamps_are_sim_microseconds(self):
        clock, tracer, tracker = build_sample()
        tracker.finalize(node_count=2)
        doc = to_chrome_trace(tracer, tracker)
        root = next(e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["name"] == "tx.lifecycle")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(3.0 * 1e6)
        stages = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in stages} >= {
            "stage:submitted", "stage:pow_solved", "stage:attached"}

    def test_json_is_canonical_and_parseable(self):
        clock, tracer, tracker = build_sample()
        encoded = chrome_trace_json(tracer, tracker)
        assert json.loads(encoded)["traceEvents"]
        assert encoded == chrome_trace_json(tracer, tracker)
        assert " " not in encoded.split('"driver.phase"')[0]


class TestCriticalPath:
    def test_segments_and_dominant(self):
        clock, tracer, tracker = build_sample()
        sweep_confirm(tracker, clock)
        (timeline,) = tracker.timelines()
        segments = dict(critical_path(timeline))
        assert segments["tips_rtt"] == pytest.approx(0.1)
        assert segments["pow"] == pytest.approx(0.2)
        assert segments["first_hop"] == pytest.approx(0.1)
        assert segments["validation"] == pytest.approx(0.0)
        assert segments["propagation"] == pytest.approx(0.1)
        assert segments["confirmation_wait"] == pytest.approx(1.6)
        assert dominant_stage(timeline) == "confirmation_wait"

    def test_missing_stages_are_omitted(self):
        clock = FakeClock()
        tracker = LifecycleTracker(clock, tracer=Tracer(clock),
                                   registry=MetricsRegistry())
        handle = tracker.begin_submission("device-0")
        assert critical_path(handle) == []
        assert dominant_stage(handle) is None


class TestRendering:
    def test_causal_tree_lists_every_node_and_stage(self):
        clock, tracer, tracker = build_sample()
        sweep_confirm(tracker, clock)
        (timeline,) = tracker.timelines()
        tree = render_causal_tree(timeline)
        assert "tx:device-0:00001" in tree
        assert "device-0 [submitted@+0.000s" in tree
        assert "gateway-0" in tree and "manager" in tree
        assert "confirmed@+2.000s" in tree
        assert "dominant=confirmation_wait" in tree

    def test_lifecycle_report_counts_and_paths(self):
        clock, tracer, tracker = build_sample()
        sweep_confirm(tracker, clock)
        report = lifecycle_report(tracker, node_count=2)
        assert report["sampled"] == 1
        assert report["delivered"] == 1
        assert report["confirmed"] == 1
        assert report["propagation_coverage"] == pytest.approx(1.0)
        assert report["submit_to_attach"]["count"] == 1
        (record,) = report["transactions"]
        assert record["dominant_stage"] == "confirmation_wait"
        assert dict(record["critical_path"])["pow"] == pytest.approx(0.2)
        totals = report["critical_path_totals"]
        assert totals["confirmation_wait"]["dominant_count"] == 1

    def test_lifecycle_text_renders_summary_and_trees(self):
        clock, tracer, tracker = build_sample()
        sweep_confirm(tracker, clock)
        text = render_lifecycle_text(tracker, node_count=2)
        assert text.startswith("transaction lifecycle report")
        assert "sampled=1 delivered=1 confirmed=1" in text
        assert "submit->attach:" in text
        assert "tx:device-0:00001" in text

    def test_empty_lifecycle_report(self):
        clock = FakeClock()
        tracker = LifecycleTracker(clock, tracer=Tracer(clock),
                                   registry=MetricsRegistry())
        report = lifecycle_report(tracker, node_count=3)
        assert report["sampled"] == 0
        assert report["transactions"] == []
        assert report["submit_to_attach"]["p50"] is None
        text = render_lifecycle_text(tracker, node_count=3)
        assert "sampled=0" in text
