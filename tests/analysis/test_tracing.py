"""Tests for repro.analysis.tracing (the Fig. 8 machinery)."""

import pytest

from repro.analysis.tracing import CreditTracer
from repro.core.credit import CreditRegistry, MaliciousBehaviour

NODE = b"\x05" * 32


@pytest.fixture()
def registry():
    registry = CreditRegistry()
    for t in range(0, 24, 3):
        registry.record_transaction(NODE, bytes(32), float(t))
    registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 24.0)
    return registry


class TestCreditTracer:
    def test_sample_records_breakdown(self, registry):
        tracer = CreditTracer(registry, NODE)
        point = tracer.sample(10.0)
        assert point.time == 10.0
        assert point.credit == pytest.approx(registry.credit(NODE, 10.0))
        assert tracer.points == [point]

    def test_sample_range_grid(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.sample_range(0.0, 10.0, 2.0)
        assert [p.time for p in tracer.points] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_sample_range_validates_step(self, registry):
        with pytest.raises(ValueError):
            CreditTracer(registry, NODE).sample_range(0.0, 1.0, 0.0)

    def test_points_carry_signed_components(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.sample_range(0.0, 30.0, 10.0)
        assert len(tracer.points) == 4
        assert all(p.negative <= 0 for p in tracer.points)
        assert all(p.positive >= 0 for p in tracer.points)

    def test_attack_shows_as_sharp_drop(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.sample_range(0.0, 40.0, 0.5)
        minimum = tracer.minimum_credit()
        assert minimum < -5.0  # the Fig. 8(a) cliff
        before_attack = [p.credit for p in tracer.points if p.time < 24.0]
        assert all(c >= 0 for c in before_attack)

    def test_recovery_time(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.sample_range(0.0, 120.0, 0.5)
        recovery = tracer.recovery_time(after=24.0, threshold=-0.5)
        assert recovery is not None
        assert 0.0 < recovery < 120.0

    def test_recovery_time_none_when_never(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.sample_range(24.0, 26.0, 0.5)
        assert tracer.recovery_time(after=24.0, threshold=10.0) is None

    def test_minimum_credit_empty(self, registry):
        assert CreditTracer(registry, NODE).minimum_credit() is None

    def test_events_annotation(self, registry):
        tracer = CreditTracer(registry, NODE)
        tracer.mark_event(24.0, "double-spend", -1.0)
        assert tracer.events == [(24.0, "double-spend", -1.0)]
