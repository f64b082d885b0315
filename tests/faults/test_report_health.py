"""Convergence-report observability: per-node health digests and the
trace-derived recovery latency added to every chaos report."""

import json

from repro.faults.scenarios import run_scenario


class TestReportHealthFields:
    def test_report_carries_health_and_recovery(self):
        report = run_scenario("smoke", seed=7)
        assert report.recovery_seconds >= 0.0
        assert set(report.node_health) == set(report.node_hashes)
        for digest in report.node_health.values():
            for key in ("tangle_size", "tips", "solidification_depth",
                        "solidification_peak", "pending_parent_requests",
                        "gossip_relays", "gossip_duplicates"):
                assert key in digest, key
            assert "gossip_seen" not in digest
            # Flooding re-delivers what a node already holds (every peer
            # relays each new transaction): the digest counts those.
            assert digest["gossip_duplicates"] > 0
            assert digest["tangle_size"] > 1
            assert digest["solidification_peak"] >= \
                digest["solidification_depth"]
            if "verify_cache" in digest:
                cache = digest["verify_cache"]
                assert 0.0 <= cache["hit_rate"] <= 1.0
                assert cache["hits"] + cache["misses"] > 0

    def test_health_fields_serialise_and_stay_deterministic(self):
        first = run_scenario("smoke", seed=7).to_json()
        second = run_scenario("smoke", seed=7).to_json()
        assert first == second
        decoded = json.loads(first)
        assert "node_health" in decoded
        assert "recovery_seconds" in decoded

    def test_converged_run_recovers_in_zero_sync_time(self):
        """The null plan converges before any sync round fires, so its
        trace-derived recovery latency is exactly zero."""
        from repro.faults.plan import FaultPlan
        from repro.faults.runner import ChaosRunner, ChaosSettings
        from repro.core.biot import BIoTConfig

        runner = ChaosRunner(
            BIoTConfig(device_count=2, gateway_count=1, seed=11,
                       initial_difficulty=6,
                       sensor_cycle=("temperature", "vibration")),
            settings=ChaosSettings(report_seconds=10.0, drain_seconds=5.0),
        )
        report = runner.run(FaultPlan(name="null", events=()), seed=11)
        assert report.converged
        assert report.sync_rounds_used == 0
        assert report.recovery_seconds == 0.0
        assert report.node_health
