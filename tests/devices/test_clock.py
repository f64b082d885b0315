"""Tests for repro.devices.clock."""

import pytest

from repro.devices.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        assert SimulatedClock(5.0).now() == 5.0

    def test_defaults_to_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_zero_allowed(self):
        clock = SimulatedClock(1.0)
        clock.advance(0.0)
        assert clock.now() == 1.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimulatedClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_advance_to_backwards_rejected(self):
        clock = SimulatedClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.9)

    def test_advance_to_same_time_allowed(self):
        clock = SimulatedClock(5.0)
        clock.advance_to(5.0)
        assert clock.now() == 5.0

