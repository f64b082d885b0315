"""Tests for repro.analysis.energy and the device energy model."""

import pytest

from repro.analysis.energy import (
    energy_for_stats,
    energy_per_transaction,
)
from repro.devices.profiles import PC, RASPBERRY_PI_3B
from repro.nodes.light_node import LightNodeStats


class TestProfileEnergyModel:
    def test_compute_energy_scales_with_time(self):
        one = RASPBERRY_PI_3B.compute_energy_joules(1.0)
        two = RASPBERRY_PI_3B.compute_energy_joules(2.0)
        assert one == pytest.approx(RASPBERRY_PI_3B.active_watts)
        assert two == pytest.approx(2 * one)

    def test_pow_energy_via_attempts(self):
        # 3000 attempts = 1 s of hashing + overhead on the Pi.
        joules = RASPBERRY_PI_3B.compute_energy_joules(
            RASPBERRY_PI_3B.pow_seconds(3000))
        expected = RASPBERRY_PI_3B.active_watts * (1.0 + 0.05)
        assert joules == pytest.approx(expected)

    def test_radio_energy(self):
        assert RASPBERRY_PI_3B.radio_energy_joules(0) == 0.0
        assert RASPBERRY_PI_3B.radio_energy_joules(1_000_000) == pytest.approx(1.5)
        assert PC.radio_energy_joules(1000) == 0.0  # wired backbone

    def test_validation(self):
        with pytest.raises(ValueError):
            RASPBERRY_PI_3B.compute_energy_joules(-1.0)
        with pytest.raises(ValueError):
            RASPBERRY_PI_3B.radio_energy_joules(-1)


class TestEnergyForStats:
    def _stats(self):
        stats = LightNodeStats()
        stats.pow_seconds_total = 10.0
        stats.aes_seconds_total = 1.0
        stats.submissions_sent = 5
        stats.readings_taken = 5
        return stats

    def test_breakdown_components(self):
        breakdown = energy_for_stats(RASPBERRY_PI_3B, self._stats(),
                                     mean_payload_bytes=200.0)
        watts = RASPBERRY_PI_3B.active_watts
        assert breakdown.pow_joules == pytest.approx(10.0 * watts)
        assert breakdown.aes_joules == pytest.approx(1.0 * watts)
        assert breakdown.signature_joules == pytest.approx(
            5 * RASPBERRY_PI_3B.signature_seconds * watts)
        assert breakdown.radio_joules == pytest.approx(
            RASPBERRY_PI_3B.radio_energy_joules(1000))
        assert breakdown.total_joules == pytest.approx(
            breakdown.pow_joules + breakdown.aes_joules
            + breakdown.signature_joules + breakdown.radio_joules)

    def test_pow_dominates_for_typical_device(self):
        breakdown = energy_for_stats(RASPBERRY_PI_3B, self._stats())
        assert breakdown.pow_joules > 5 * breakdown.aes_joules
        assert breakdown.pow_joules > 100 * breakdown.radio_joules


class TestEnergyPerTransaction:
    def test_matches_manual_computation(self):
        joules = energy_per_transaction(RASPBERRY_PI_3B, 0.5,
                                        payload_bytes=1024, encrypts=True)
        watts = RASPBERRY_PI_3B.active_watts
        expected = (
            watts * (0.5 + RASPBERRY_PI_3B.signature_seconds)
            + watts * RASPBERRY_PI_3B.aes_seconds(1024)
            + RASPBERRY_PI_3B.radio_energy_joules(1024)
        )
        assert joules == pytest.approx(expected)

    def test_encryption_flag(self):
        plain = energy_per_transaction(RASPBERRY_PI_3B, 0.5, encrypts=False)
        encrypted = energy_per_transaction(RASPBERRY_PI_3B, 0.5, encrypts=True)
        assert encrypted > plain

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            energy_per_transaction(RASPBERRY_PI_3B, -0.1)

    def test_credit_saving_story(self):
        """The Fig. 9 -> Ext-5 translation: 0.132 s vs 0.841 s mean PoW
        maps to ~6x energy saving per transaction."""
        original = energy_per_transaction(RASPBERRY_PI_3B, 0.841)
        credit = energy_per_transaction(RASPBERRY_PI_3B, 0.132)
        assert 4.0 < original / credit < 8.0
