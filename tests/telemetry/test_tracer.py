"""Span tracing: nesting, sim-time durations, scheduler interplay,
explicit-parent (cross-node) spans and ambient trace contexts."""

import pytest

from repro.network.simulator import EventScheduler
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceContext,
    Tracer,
)


class TestNesting:
    def test_child_nests_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s for s in tracer.finished()
                if s.parent_id == outer.span_id] == [inner]

    def test_finished_order_is_end_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished()] == ["outer", "inner"][::-1]
        assert [s.name for s in tracer.finished("outer")] == ["outer"]

    def test_end_span_closes_abandoned_children(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")  # never explicitly ended
        tracer.end_span(outer)
        assert tracer.open_depth == 0
        assert all(s.finished for s in tracer.finished())

    def test_ending_unopened_span_raises(self):
        tracer = Tracer()
        span = tracer.start_span("a")
        tracer.end_span(span)
        with pytest.raises(ValueError):
            tracer.end_span(span)

    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("phase", devices=4) as span:
            span.set_attribute("accepted", 3)
        assert span.attributes == {"devices": 4, "accepted": 3}


class TestSimTime:
    def test_durations_are_simulated_seconds(self):
        """A span wrapped around run_until covers exactly the simulated
        interval, regardless of host execution speed."""
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        scheduler.schedule(7.5, lambda: None)
        with tracer.span("run") as span:
            scheduler.run_until(7.5)
        assert span.start == 0.0
        assert span.end == 7.5
        assert span.duration == 7.5

    def test_nested_phases_partition_the_run(self):
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, lambda: None)
        with tracer.span("all") as all_span:
            with tracer.span("first") as first:
                scheduler.run_until(1.5)
            with tracer.span("rest") as rest:
                scheduler.run_until(3.0)
        assert first.duration == 1.5
        assert rest.start == 1.5
        assert rest.duration == 1.5
        assert all_span.duration == 3.0

    def test_open_span_duration_is_zero(self):
        tracer = Tracer()
        span = tracer.start_span("open")
        assert span.duration == 0.0
        assert not span.finished


class TestExplicitParent:
    """Cross-node spans: parentage by TraceContext, not lexical nesting."""

    def test_root_span_carries_trace_id(self):
        tracer = Tracer()
        root = tracer.start_root_span("tx.lifecycle",
                                      trace_id="tx:device-0:00001")
        assert root.trace_id == "tx:device-0:00001"
        assert root.parent_id is None
        context = tracer.context_of(root)
        assert context == TraceContext("tx:device-0:00001", root.span_id)
        tracer.end_span(root)

    def test_child_links_across_lexical_scopes(self):
        """A child opened from a propagated context parents correctly
        even though the root is not on the lexical stack."""
        tracer = Tracer()
        root = tracer.start_root_span("tx.lifecycle", trace_id="tx:1")
        context = tracer.context_of(root)
        with tracer.span("unrelated.driver.work"):
            child = tracer.start_child_span("tx.ingest", context,
                                            node="gateway-0")
            assert child.parent_id == root.span_id
            assert child.trace_id == "tx:1"
            tracer.end_span(child)
        tracer.end_span(root)
        assert {s.name for s in tracer.finished()} == {
            "tx.lifecycle", "tx.ingest", "unrelated.driver.work"}

    def test_explicit_spans_close_individually(self):
        """Ending one explicit span must not unwind its siblings (they
        are concurrent, not nested)."""
        tracer = Tracer()
        root = tracer.start_root_span("root", trace_id="tx:1")
        context = tracer.context_of(root)
        a = tracer.start_child_span("hop.a", context)
        b = tracer.start_child_span("hop.b", context)
        tracer.end_span(a)
        assert not b.finished
        tracer.end_span(b)
        tracer.end_span(root)
        assert all(s.finished for s in tracer.finished())

    def test_double_end_of_explicit_span_raises(self):
        tracer = Tracer()
        root = tracer.start_root_span("root", trace_id="tx:1")
        tracer.end_span(root)
        with pytest.raises(ValueError):
            tracer.end_span(root)

    def test_double_end_leaves_open_lexical_spans_alone(self):
        """Ending a finished span must not unwind the lexical stack on
        its way to the error."""
        tracer = Tracer()
        outer = tracer.start_span("outer")
        root = tracer.start_root_span("root", trace_id="tx:1")
        tracer.end_span(root)
        with pytest.raises(ValueError):
            tracer.end_span(root)
        assert not outer.finished
        assert tracer.open_depth == 1
        tracer.end_span(outer)
        assert outer.finished and tracer.open_depth == 0

    def test_lexical_child_inherits_trace_id(self):
        tracer = Tracer()
        root = tracer.start_root_span("root", trace_id="tx:1")
        child = tracer.start_child_span(
            "hop", tracer.context_of(root))
        with tracer.span("inner"):
            pass
        (inner,) = tracer.finished("inner")
        # A lexical span opened while no explicit span is on the stack
        # has no trace id of its own...
        assert inner.trace_id == ""
        tracer.end_span(child)
        tracer.end_span(root)


class TestAmbientContext:
    def test_activate_scopes_current(self):
        tracer = Tracer()
        context = TraceContext("tx:1", 42)
        assert tracer.current is None
        with tracer.activate(context):
            assert tracer.current == context
            assert tracer.capture() == context
        assert tracer.current is None

    def test_activate_none_clears_stale_context(self):
        """Restoring a captured None must hide the interrupted
        context — a scheduler callback with no trace attached must not
        inherit whatever was ambient before it ran."""
        tracer = Tracer()
        with tracer.activate(TraceContext("tx:1", 1)):
            with tracer.activate(None):
                assert tracer.current is None
            assert tracer.current == TraceContext("tx:1", 1)

    def test_scheduler_binder_propagates_context(self):
        """Contexts captured at schedule time are restored around the
        callback: the delivery of a message scheduled inside a trace
        sees that trace, later unrelated events do not."""
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        scheduler.trace_binder = tracer
        seen = {}
        context = TraceContext("tx:1", 7)
        with tracer.activate(context):
            scheduler.schedule(1.0, lambda: seen.update(a=tracer.current))
        scheduler.schedule(2.0, lambda: seen.update(b=tracer.current))
        scheduler.run_until(3.0)
        assert seen["a"] == context
        assert seen["b"] is None


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", key="value") as span:
            span.set_attribute("ignored", 1)
        assert NULL_TRACER.finished() == []
        assert not NullTracer.enabled

    def test_null_tracer_explicit_surface(self):
        """The causal API must be callable against the null tracer."""
        root = NULL_TRACER.start_root_span("root", trace_id="tx:1")
        child = NULL_TRACER.start_child_span(
            "hop", NULL_TRACER.context_of(root))
        NULL_TRACER.end_span(child)
        NULL_TRACER.end_span(root)
        assert NULL_TRACER.current is None
        assert NULL_TRACER.capture() is None
        with NULL_TRACER.activate(None):
            pass
        assert NULL_TRACER.finished() == []
