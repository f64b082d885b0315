"""LifecycleTracker semantics: sampling, stage timelines, spans,
confirmation sweeps, coverage — plus the end-to-end hop chain through
a real deployment."""

import pytest

from repro.telemetry.lifecycle import (
    NULL_LIFECYCLE,
    LifecycleTracker,
    NullLifecycle,
    coerce_lifecycle,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


def make_tracker(clock=None, sample_every=1):
    clock = clock if clock is not None else FakeClock()
    registry = MetricsRegistry()
    tracker = LifecycleTracker(clock, tracer=Tracer(clock),
                               registry=registry,
                               sample_every=sample_every)
    return tracker, registry, clock


class TestSampling:
    def test_every_round_sampled_by_default(self):
        tracker, _, _ = make_tracker()
        handles = [tracker.begin_submission("device-0") for _ in range(4)]
        assert all(h is not None for h in handles)
        assert len(tracker.timelines()) == 4

    def test_sample_every_n(self):
        tracker, _, _ = make_tracker(sample_every=3)
        handles = [tracker.begin_submission("device-0") for _ in range(7)]
        sampled = [h for h in handles if h is not None]
        assert len(sampled) == 3  # rounds 1, 4, 7
        assert [h.trace_id for h in sampled] == [
            "tx:device-0:00001", "tx:device-0:00004", "tx:device-0:00007"]

    def test_bad_sample_every_rejected(self):
        with pytest.raises(ValueError):
            LifecycleTracker(sample_every=0)


class TestTimeline:
    def test_stage_records_carry_sim_time(self):
        tracker, _, clock = make_tracker()
        handle = tracker.begin_submission("device-0")
        clock.t = 1.0
        tracker.record_handle(handle, "tips_received", "device-0")
        clock.t = 2.0
        tracker.bind(handle, b"\x01" * 32, difficulty=8)
        clock.t = 3.0
        tracker.record(b"\x01" * 32, "received", "gateway-0")
        assert handle.stage_time("submitted") == 0.0
        assert handle.stage_time("tips_received") == 1.0
        assert handle.stage_time("pow_solved") == 2.0
        assert handle.stage_time("received", "gateway-0") == 3.0
        assert handle.bound
        assert handle.short_hash == "01" * 8

    def test_unknown_hash_ignored(self):
        tracker, _, _ = make_tracker()
        tracker.record(b"\xff" * 32, "received", "gateway-0")  # no crash
        assert tracker.timelines() == []

    def test_repeat_stage_at_node_deduplicated(self):
        tracker, registry, clock = make_tracker()
        handle = tracker.begin_submission("device-0")
        tracker.bind(handle, b"\x01" * 32)
        clock.t = 1.0
        tracker.record(b"\x01" * 32, "received", "gateway-0")
        clock.t = 2.0
        tracker.record(b"\x01" * 32, "received", "gateway-0")
        assert handle.stage_times("received") == {"gateway-0": 1.0}
        counter = registry.counter("repro_lifecycle_stage_events_total")
        assert counter.value(stage="received") == 1

    def test_attach_latency_observed_once(self):
        tracker, registry, clock = make_tracker()
        handle = tracker.begin_submission("device-0")
        tracker.bind(handle, b"\x01" * 32)
        clock.t = 0.25
        tracker.record(b"\x01" * 32, "attached", "gateway-0")
        clock.t = 9.0
        tracker.record(b"\x01" * 32, "attached", "manager")
        hist = registry.histogram("repro_lifecycle_submit_to_attach_seconds")
        merged = hist.merged()
        assert merged.count == 1
        assert merged.mean == 0.25  # first attach only


class TestSpans:
    def test_root_span_opens_and_finalize_closes(self):
        tracker, _, _ = make_tracker()
        handle = tracker.begin_submission("device-0")
        assert handle.root is not None and not handle.root.finished
        assert handle.context.trace_id == handle.trace_id
        tracker.finalize(node_count=3)
        assert handle.root.finished

    def test_ingest_span_parents_on_ambient_same_trace(self):
        """A hop whose carrying message was sent inside the previous
        hop's span chains onto it — the cross-node causal link."""
        tracker, _, _ = make_tracker()
        tracer = tracker.tracer
        handle = tracker.begin_submission("device-0")
        tracker.bind(handle, b"\x01" * 32)
        with tracker.ingest(b"\x01" * 32, node="gateway-0",
                            source="device-0") as first:
            first_context = tracer.context_of(first)
            with tracker.ingest(b"\x01" * 32, node="manager",
                                source="gateway-0") as second:
                assert second.parent_id == first_context.span_id
        assert first.parent_id == handle.root.span_id

    def test_ingest_with_foreign_ambient_falls_back_to_root(self):
        """A parent-fetch response delivered inside another trace's
        context must not adopt that trace: the hop span parents on its
        own timeline root instead."""
        tracker, _, _ = make_tracker()
        tracer = tracker.tracer
        a = tracker.begin_submission("device-0")
        b = tracker.begin_submission("device-1")
        tracker.bind(a, b"\x01" * 32)
        tracker.bind(b, b"\x02" * 32)
        with tracer.activate(b.context):
            with tracker.ingest(b"\x01" * 32, node="manager") as span:
                assert span.parent_id == a.root.span_id
                assert span.trace_id == a.trace_id

    def test_untracked_ingest_is_shared_noop(self):
        tracker, _, _ = make_tracker()
        scope_a = tracker.ingest(b"\xff" * 32, node="manager")
        scope_b = tracker.ingest(b"\xee" * 32, node="manager")
        assert scope_a is scope_b  # the shared null scope
        with scope_a as span:
            assert span is None


class FakeTangle:
    def __init__(self, hashes, confirmed=True):
        self._hashes = set(hashes)
        self._confirmed = confirmed

    def __contains__(self, tx_hash):
        return tx_hash in self._hashes

    def is_confirmed(self, tx_hash, threshold):
        return tx_hash in self._hashes and self._confirmed


class FakeNode:
    def __init__(self, hashes, confirmed=True):
        self.tangle = FakeTangle(hashes, confirmed)


class TestSweeps:
    def test_sweep_requires_every_node(self):
        tracker, registry, clock = make_tracker()
        handle = tracker.begin_submission("device-0")
        tracker.bind(handle, b"\x01" * 32)
        partial = [FakeNode([b"\x01" * 32]), FakeNode([])]
        assert tracker.sweep_confirmations(partial) == 0
        assert not handle.confirmed

        clock.t = 5.0
        everywhere = [FakeNode([b"\x01" * 32]), FakeNode([b"\x01" * 32])]
        assert tracker.sweep_confirmations(everywhere) == 1
        assert handle.confirmed
        assert handle.stage_time("confirmed") == 5.0
        hist = registry.histogram("repro_lifecycle_confirmation_seconds")
        assert hist.merged().count == 1
        # Repeat sweeps are idempotent.
        assert tracker.sweep_confirmations(everywhere) == 0

    def test_coverage_gauge_is_mean_over_bound_timelines(self):
        tracker, registry, _ = make_tracker()
        a = tracker.begin_submission("device-0")
        b = tracker.begin_submission("device-1")
        tracker.bind(a, b"\x01" * 32)
        tracker.bind(b, b"\x02" * 32)
        tracker.record(b"\x01" * 32, "attached", "manager")
        tracker.record(b"\x01" * 32, "attached", "gateway-0")
        tracker.record(b"\x02" * 32, "attached", "manager")
        tracker.finalize(node_count=2)
        gauge = registry.gauge("repro_lifecycle_propagation_coverage_ratio")
        assert gauge.value() == pytest.approx((2 / 2 + 1 / 2) / 2)


class TestNullLifecycle:
    def test_coerce(self):
        assert coerce_lifecycle(None) is NULL_LIFECYCLE
        tracker, _, _ = make_tracker()
        assert coerce_lifecycle(tracker) is tracker

    def test_null_surface_is_inert(self):
        null = NullLifecycle()
        handle = null.begin_submission("device-0")
        assert handle is None
        null.record_handle(handle, "tips_received", "device-0")
        null.bind(handle, b"\x01" * 32)
        null.record(b"\x01" * 32, "received", "manager")
        with null.ingest(b"\x01" * 32, node="manager") as span:
            assert span is None
        assert null.sweep_confirmations([]) == 0
        null.finalize(node_count=0)
        assert null.timelines() == []
        assert not null.enabled


class TestEndToEnd:
    def test_deployment_hop_chain(self):
        """A real (small) telemetry deployment: sampled transactions
        must produce hop spans on multiple nodes, all within one trace,
        with the root reachable by walking parent links."""
        from repro.core.biot import BIoTConfig, BIoTSystem

        config = BIoTConfig(device_count=2, gateway_count=2, seed=11,
                            initial_difficulty=8, tip_alpha=0.05,
                            telemetry=True)
        system = BIoTSystem.build(config)
        system.initialize()
        system.start_devices()
        system.run_for(12.0)
        for device in system.devices:
            device.stop()
        system.run_for(4.0)
        system.lifecycle.finalize(node_count=len(system.full_nodes))

        delivered = [t for t in system.lifecycle.timelines()
                     if t.bound and t.attached_nodes()]
        assert delivered, "no sampled transaction was delivered"
        spans_by_id = {s.span_id: s
                       for s in system.tracer.finished()}
        for timeline in delivered:
            hops = [s for s in system.tracer.finished("tx.ingest")
                    if s.trace_id == timeline.trace_id]
            assert len(hops) == len(timeline.attached_nodes())
            for hop in hops:
                # Walk to the root: every hop chains back to the
                # timeline's tx.lifecycle span.
                cursor = hop
                while cursor.parent_id is not None:
                    cursor = spans_by_id[cursor.parent_id]
                assert cursor is timeline.root
            # At least one multi-hop chain exists for transactions
            # that reached more than one node.
            if len(hops) > 1:
                assert any(
                    hop.parent_id != timeline.root.span_id
                    for hop in hops
                ), "gossip hops never chained through a relay span"
