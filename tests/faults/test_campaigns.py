"""Convergence tests for the canned chaos campaigns: every catalog
scenario must heal back to identical replica state under several fixed
seeds, and the emitted report must be byte-deterministic."""

import pytest

from repro.faults.scenarios import SCENARIOS, get_scenario, run_scenario

CAMPAIGNS = ["partition-heal", "churn", "churn-durable", "lossy-burst",
             "skewed-clock"]
SEEDS = [7, 19, 42]


class TestCatalog:
    def test_catalog_names(self):
        assert set(SCENARIOS) == {"smoke"} | set(CAMPAIGNS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("not-a-scenario")


class TestConvergence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CAMPAIGNS)
    def test_campaign_converges_by_hash(self, name, seed):
        report = run_scenario(name, seed=seed)
        assert report.converged, (
            f"{name} seed {seed} diverged: {report.notes} "
            f"hashes={report.node_hashes}")
        # Convergence means literal hash agreement, not just the flag.
        reference = next(iter(report.node_hashes.values()))
        for address, hashes in report.node_hashes.items():
            assert hashes == reference, address
        # The campaign must actually have fired its faults.
        assert report.counters["faults_injected"] >= 1
        assert report.counters["submissions_accepted"] > 0

    @pytest.mark.parametrize("name", CAMPAIGNS)
    def test_recovery_machinery_engaged(self, name):
        """Campaigns with outage windows must exercise recovery paths,
        not merely survive by luck of timing."""
        report = run_scenario(name, seed=7)
        counters = report.counters
        if name in ("partition-heal", "churn", "churn-durable"):
            # Messages died at downed radios / cut links, and post-heal
            # anti-entropy repaired the holes.
            assert (counters["messages_dropped"] > 0
                    or counters["messages_purged"] > 0)
            assert counters["sync_requests_served"] > 0
        if name == "lossy-burst":
            assert counters["messages_dropped"] > 0
            assert counters["messages_duplicated"] > 0


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        first = run_scenario("smoke", seed=7)
        second = run_scenario("smoke", seed=7)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        first = run_scenario("smoke", seed=7)
        second = run_scenario("smoke", seed=8)
        assert first.to_json() != second.to_json()
