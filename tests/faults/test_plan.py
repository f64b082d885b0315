"""Tests for repro.faults.plan: the campaign DSL validates its inputs
and renders a canonical, ordered description."""

import pytest

from repro.faults.plan import (
    ClockSkewFault,
    CrashFault,
    DuplicationBurst,
    FaultPlan,
    LatencyBurst,
    LossBurst,
    PartitionFault,
    PlanBuilder,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PartitionFault(at=-1.0, groups=(("a",), ("b",)))

    def test_heal_must_follow_injection(self):
        with pytest.raises(ValueError):
            PartitionFault(at=5.0, groups=(("a",), ("b",)), heal_at=5.0)
        with pytest.raises(ValueError):
            CrashFault(at=5.0, address="a", restart_at=2.0)

    def test_partition_needs_two_disjoint_groups(self):
        with pytest.raises(ValueError):
            PartitionFault(at=0.0, groups=(("a",),))
        with pytest.raises(ValueError):
            PartitionFault(at=0.0, groups=(("a",), ()))
        with pytest.raises(ValueError):
            PartitionFault(at=0.0, groups=(("a", "b"), ("b",)))

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LossBurst(at=0.0, until=1.0, rate=0.0)
        with pytest.raises(ValueError):
            LossBurst(at=0.0, until=1.0, rate=1.0)

    def test_duplication_probability_bounds(self):
        with pytest.raises(ValueError):
            DuplicationBurst(at=0.0, until=1.0, probability=1.0)

    def test_latency_burst_must_add_something(self):
        with pytest.raises(ValueError):
            LatencyBurst(at=0.0, until=1.0, extra_latency=0.0,
                         extra_jitter=0.0)

    def test_skew_must_be_nonzero(self):
        with pytest.raises(ValueError):
            ClockSkewFault(at=0.0, address="a", offset=0.0)


class TestPartitionCrossLinks:
    def test_all_cross_pairs_no_intra_pairs(self):
        fault = PartitionFault(
            at=0.0, groups=(("a", "b"), ("c",), ("d",)))
        links = fault.cross_links()
        assert ("a", "c") in links and ("b", "c") in links
        assert ("a", "d") in links and ("c", "d") in links
        assert ("a", "b") not in links and ("b", "a") not in links
        assert len(links) == 2 * 1 + 2 * 1 + 1  # ab x c, ab x d, c x d

    def test_cross_links_deterministic(self):
        fault = PartitionFault(at=0.0, groups=(("a", "b"), ("c", "d")))
        assert fault.cross_links() == fault.cross_links()


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            PartitionFault(at=9.0, groups=(("a",), ("b",))),
            CrashFault(at=1.0, address="a"),
            LossBurst(at=4.0, until=5.0, rate=0.5),
        ))
        assert [event.at for event in plan.events] == [1.0, 4.0, 9.0]

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.events == ()
        assert plan.last_event_time() == 0.0
        assert plan.describe() == []

    def test_last_event_time_includes_heals(self):
        plan = FaultPlan(events=(
            PartitionFault(at=2.0, groups=(("a",), ("b",)), heal_at=30.0),
            CrashFault(at=10.0, address="a"),
        ))
        assert plan.last_event_time() == 30.0

    def test_describe_is_stable_plain_data(self):
        plan = (PlanBuilder("x")
                .partition(10.0, 25.0, ("g0",), ("g1", "m"))
                .loss(30.0, 36.0, 0.3)
                .build())
        first = plan.describe()
        assert first == plan.describe()
        assert first[0]["kind"] == "partition"
        assert first[0]["groups"] == [["g0"], ["g1", "m"]]
        assert first[1] == {"kind": "loss_burst", "at": 30.0, "until": 36.0,
                            "a": "*", "b": "*", "rate": 0.3}


class TestPlanBuilder:
    def test_builder_produces_every_kind(self):
        plan = (PlanBuilder("all")
                .partition(3.0, 4.0, ("a",), ("b",))
                .crash(5.0, "a", restart_at=6.0)
                .loss(7.0, 8.0, 0.5)
                .latency(9.0, 10.0, 0.5, extra_jitter=0.1)
                .duplicate(11.0, 12.0, 0.5)
                .skew(13.0, "a", 1.0, until=14.0)
                .build())
        kinds = [event.kind for event in plan.events]
        assert kinds == ["partition", "crash", "loss_burst",
                        "latency_burst", "duplication_burst", "clock_skew"]
        assert plan.name == "all"
        assert plan.last_event_time() == 14.0
