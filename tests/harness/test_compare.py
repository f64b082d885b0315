"""The shared convergence step on fleets that do *not* simply match:
``converged`` means every node equals the reference on every leg, the
resync loop is bounded, and the sync (simulator) and async (TCP) loops
are the same loop."""

import asyncio

import pytest

from repro.harness.compare import (
    MAX_SYNC_ROUNDS,
    converge,
    converge_sync,
    leg_summary,
)

REFERENCE = {"tangle": "t", "ledger": "l", "acl": "a", "credit": "c"}
STALE = {**REFERENCE, "tangle": "old"}


class FakeFleet:
    """Two nodes that reach the reference after *heals_after* resyncs
    (never, when None)."""

    def __init__(self, heals_after):
        self.heals_after = heals_after
        self.resyncs = 0

    def hashes(self):
        healed = (self.heals_after is not None
                  and self.resyncs >= self.heals_after)
        return {"n0": dict(REFERENCE),
                "n1": dict(REFERENCE if healed else STALE)}

    def resync(self):
        self.resyncs += 1


def run_sync(fleet):
    return converge_sync(fleet.hashes, fleet.resync, REFERENCE)


def run_async(fleet):
    async def hashes():
        return fleet.hashes()

    async def resync():
        fleet.resync()

    return asyncio.run(converge(hashes, resync, REFERENCE))


@pytest.mark.parametrize("run", [run_sync, run_async])
@pytest.mark.parametrize("heals_after,rounds,agreed", [
    (0, 0, True),                   # gossip alone converged the fleet
    (2, 2, True),                   # anti-entropy closed the tail
    (None, MAX_SYNC_ROUNDS, False),  # bounded: gives up, reports it
])
def test_resyncs_until_reference_or_bound(run, heals_after, rounds, agreed):
    fleet = FakeFleet(heals_after)
    per_node, used = run(fleet)
    assert used == rounds == fleet.resyncs
    summary = leg_summary(per_node, used, [], REFERENCE)
    assert summary["converged"] is agreed
    assert summary["hashes"] == (REFERENCE if agreed else {})
    assert summary["per_node"] == per_node


def test_agreeing_with_each_other_is_not_converged():
    per_node = {"n0": dict(STALE), "n1": dict(STALE)}
    summary = leg_summary(per_node, 0, [], REFERENCE)
    assert summary["converged"] is False and summary["hashes"] == {}


def test_sim_leg_runs_inside_an_event_loop():
    from repro.harness.fleet import run_sim_leg
    from repro.harness.workload import build_workload

    workload = build_workload(9, transactions=4)

    async def inside_loop():
        return run_sim_leg(workload, node_count=2, seed=9, scenario="mini")

    _, summary = asyncio.run(inside_loop())
    assert summary["converged"]
