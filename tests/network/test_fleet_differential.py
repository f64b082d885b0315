"""The sim≡wire keystone: the same seeded workload through the
discrete-event SimTransport and the asyncio/TCP AsyncioTransport must
converge every replica to byte-identical tangle/ledger/ACL/credit
hashes (the storage differential's report format).  The workload's
own properties are pinned in ``tests/harness/test_workload.py``."""

import asyncio

import pytest

from repro.faults.report import canonical_json
from repro.harness.fleet import (
    FLEET_SCENARIOS,
    run_fleet_differential,
    run_sim_leg,
    run_wire_leg,
)
from repro.harness.workload import build_workload


class TestWorkload:
    def test_rejects_tiny_workloads(self):
        with pytest.raises(ValueError):
            build_workload(5, transactions=2)


class TestSimLeg:
    def test_converges_and_is_byte_deterministic(self):
        workload = build_workload(9, transactions=10)
        report1, summary1 = run_sim_leg(
            workload, node_count=3, seed=9, scenario="mini")
        report2, summary2 = run_sim_leg(
            workload, node_count=3, seed=9, scenario="mini")
        assert summary1["rejected"] == [] and summary2["rejected"] == []
        nodes1 = summary1["per_node"]
        assert nodes1 == summary2["per_node"]
        # The sim leg is *bit*-deterministic: the full convergence
        # report (durations, counters, everything) replays identically.
        assert canonical_json(report1.to_dict()) \
            == canonical_json(report2.to_dict())
        hashes = set(canonical_json(h) for h in nodes1.values())
        assert len(hashes) == 1
        assert next(iter(nodes1.values())) == workload.reference_hashes


class TestWireLeg:
    def test_converges_to_the_reference(self, fleet_sandbox):
        workload = build_workload(9, transactions=10)
        report, summary = fleet_sandbox.run(
            run_wire_leg(workload, node_count=3, seed=9,
                         scenario="mini", time_scale=50.0),
            timeout=120.0)
        assert summary["rejected"] == []
        assert report.converged
        for hashes in summary["per_node"].values():
            assert hashes == workload.reference_hashes


class TestDifferential:
    def test_mini_scenario_matches(self):
        result, sim_report, wire_report = run_fleet_differential(
            seed=5, scenario="mini", time_scale=50.0)
        assert result["matched"], result
        assert result["sim"]["hashes"] == result["reference"]
        assert result["wire"]["hashes"] == result["reference"]
        # All four state dimensions are covered by the comparison.
        assert set(result["reference"]) \
            == {"tangle", "ledger", "acl", "credit"}
        # Both legs emit ChaosRunner-format convergence reports.
        assert sim_report.scenario == "fleet-mini-sim"
        assert wire_report.scenario == "fleet-mini-wire"
        assert sim_report.converged
        assert wire_report.converged

    def test_unknown_scenario_refused(self):
        with pytest.raises(ValueError):
            run_fleet_differential(seed=5, scenario="nope")

    def test_scenario_catalog_shape(self):
        assert "smoke" in FLEET_SCENARIOS
        assert FLEET_SCENARIOS["smoke"]["node_count"] == 5
