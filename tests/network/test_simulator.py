"""Tests for repro.network.simulator."""

import pytest

from repro.network.simulator import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(2.0, lambda: fired.append("late"))
        scheduler.schedule(1.0, lambda: fired.append("early"))
        scheduler.run()
        assert fired == ["early", "late"]

    def test_ties_break_in_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        for name in ("a", "b", "c"):
            scheduler.schedule(1.0, lambda n=name: fired.append(n))
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(3.5, lambda: seen.append(scheduler.clock.now()))
        scheduler.run()
        assert seen == [3.5]
        assert scheduler.clock.now() == 3.5

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                scheduler.schedule(1.0, lambda: chain(n + 1))

        scheduler.schedule(0.0, lambda: chain(0))
        scheduler.run()
        assert fired == [0, 1, 2, 3]
        assert scheduler.clock.now() == 3.0


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event_id = scheduler.schedule(1.0, lambda: fired.append("x"))
        scheduler.cancel(event_id)
        scheduler.run()
        assert fired == []

    def test_cancel_one_of_many(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append("keep"))
        cancelled = scheduler.schedule(2.0, lambda: fired.append("drop"))
        scheduler.cancel(cancelled)
        scheduler.run()
        assert fired == ["keep"]


class TestRunControl:
    def test_run_until_deadline(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(1))
        scheduler.schedule(5.0, lambda: fired.append(5))
        executed = scheduler.run_until(3.0)
        assert executed == 1
        assert fired == [1]
        assert scheduler.clock.now() == 3.0
        scheduler.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_even_when_idle(self):
        scheduler = EventScheduler()
        scheduler.run_until(10.0)
        assert scheduler.clock.now() == 10.0

    def test_run_for_is_run_until_from_now(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.run_until(2.0)
        scheduler.schedule(1.0, lambda: fired.append(3))
        scheduler.schedule(5.0, lambda: fired.append(7))
        scheduler.run_for(3.0)
        assert fired == [3]
        assert scheduler.clock.now() == 5.0

    def test_max_events_limit(self):
        scheduler = EventScheduler()
        fired = []
        for i in range(5):
            scheduler.schedule(float(i), lambda i=i: fired.append(i))
        executed = scheduler.run(max_events=2)
        assert executed == 2
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert EventScheduler().step() is False

    def test_peek_time(self):
        scheduler = EventScheduler()
        assert scheduler.peek_time() is None
        scheduler.schedule(2.0, lambda: None)
        assert scheduler.peek_time() == 2.0

    def test_peek_skips_cancelled(self):
        scheduler = EventScheduler()
        event_id = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.cancel(event_id)
        assert scheduler.peek_time() == 2.0

    def test_events_executed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.run()
        assert scheduler.events_executed == 2


class TestPendingAccounting:
    def test_len_counts_live_events_only(self):
        scheduler = EventScheduler()
        ids = [scheduler.schedule(float(i + 1), lambda: None)
               for i in range(4)]
        assert len(scheduler) == 4
        scheduler.cancel(ids[1])
        assert len(scheduler) == 3
        assert scheduler.pending == 4  # cancelled id still on the heap
        scheduler.step()
        assert len(scheduler) == 2

    def test_cancel_after_fire_does_not_grow_tombstones(self):
        scheduler = EventScheduler()
        event_id = scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        scheduler.cancel(event_id)  # already fired: must be a no-op
        assert len(scheduler._cancelled) == 0
        assert len(scheduler) == 0

    def test_double_cancel_keeps_one_tombstone(self):
        scheduler = EventScheduler()
        event_id = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.cancel(event_id)
        scheduler.cancel(event_id)
        assert len(scheduler._cancelled) == 1
        assert len(scheduler) == 1

    def test_tombstones_drain_as_heap_pops(self):
        scheduler = EventScheduler()
        ids = [scheduler.schedule(float(i + 1), lambda: None)
               for i in range(10)]
        for event_id in ids[:5]:
            scheduler.cancel(event_id)
        scheduler.run()
        # Every tombstone was reclaimed when its heap entry popped.
        assert len(scheduler._cancelled) == 0
        assert scheduler.pending == 0
        assert len(scheduler) == 0
        assert scheduler.events_executed == 5

    def test_len_stays_bounded_under_schedule_cancel_churn(self):
        scheduler = EventScheduler()
        for round_number in range(100):
            event_id = scheduler.schedule(1.0, lambda: None)
            scheduler.cancel(event_id)
            scheduler.schedule(1.0, lambda: None)
            scheduler.run()
        assert len(scheduler._cancelled) == 0
        assert len(scheduler) == 0
        assert scheduler.events_executed == 100
