"""Sim-vs-wire differential: the proof the TCP transport is honest.

The keystone obligation of the transport extraction: driving the *same*
seeded scenario through :class:`~repro.network.network.SimTransport`
and :class:`~repro.network.aio.AsyncioTransport` must converge every
replica to byte-identical tangle/ledger/ACL/credit hashes.  The real
transport is allowed to change *scheduling* (kernel timing reorders
gossip run to run) but never *state*.

The workload is **pre-generated** (:func:`~repro.harness.workload.
build_workload`: fixed timestamps, parents picked from the reference's
tips, real PoW at difficulty 1) and each leg only *delivers* those
bytes: a :class:`~repro.harness.submit.SubmitClient` submits them
serially to one admitting node (waiting for every ``submit_response``),
gossip floods them to the rest, and anti-entropy sync rounds
(:func:`~repro.harness.compare.converge`) close any tail.  The report
follows the storage differential's format (reference / per-leg hashes /
``matched``), and each leg also yields a ChaosRunner-style
:class:`~repro.faults.report.ConvergenceReport`.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Dict, Optional, Tuple

from ..faults.report import ConvergenceReport, node_state_hashes
from ..network.aio import AsyncioScheduler, AsyncioTransport, NodeRunner
from ..network.network import Network
from ..network.simulator import EventScheduler
from ..network.transport import BACKBONE_LINK
from ..network.proc import build_node
from .compare import converge, converge_sync, leg_summary
from .submit import SubmitClient
from .workload import Workload, build_workload

__all__ = [
    "FLEET_SCENARIOS",
    "run_sim_leg",
    "run_wire_leg",
    "run_fleet_differential",
]

FLEET_SCENARIOS: Dict[str, Dict[str, int]] = {
    "smoke": {"node_count": 5, "transactions": 40},
    "mini": {"node_count": 3, "transactions": 12},
}
"""Named fleet scenarios: ``smoke`` is the CI shape (5-node localhost
fleet); ``mini`` keeps unit tests fast."""


def _build_fleet_nodes(workload: Workload, node_count: int):
    nodes = [build_node(f"n{i}", workload.genesis, rng_seed=i)
             for i in range(node_count)]
    for a, b in itertools.permutations(nodes, 2):
        a.add_peer(b.address)
    return nodes


def _state_hashes(nodes, credit_now: float) -> Dict[str, Dict[str, str]]:
    return {node.address: node_state_hashes(node, credit_now=credit_now)
            for node in nodes}


def _start_resync(nodes) -> None:
    for node in nodes:
        node.resync_with_peers()


def _leg_result(*, leg: str, scenario: str, seed: int, nodes, per_node,
                rounds: int, duration: float, transports,
                client: SubmitClient, reference: Dict[str, str]):
    """The ``(ConvergenceReport, leg summary)`` pair both legs return."""
    report = ConvergenceReport.from_nodes(
        scenario=f"fleet-{scenario}-{leg}", seed=seed, nodes=nodes,
        sync_rounds_used=rounds, duration=duration,
        counters={
            "messages_sent": sum(t.messages_sent for t in transports),
            "messages_delivered": sum(
                t.messages_delivered for t in transports),
            "messages_dropped": sum(t.messages_dropped for t in transports),
            "submissions": len(client.results),
        },
        notes=[f"rejected:{len(client.rejected)}"])
    return report, leg_summary(per_node, rounds, client.rejected, reference)


# -- simulated leg ---------------------------------------------------------

def run_sim_leg(workload: Workload, *, node_count: int, seed: int,
                scenario: str = "smoke"):
    """Deliver the workload over the discrete-event simulator.

    Returns ``(report, summary)``; bit-deterministic for a given
    ``(workload, node_count, seed)``.
    """
    scheduler = EventScheduler()
    network = Network(scheduler, default_link=BACKBONE_LINK,
                      rng=random.Random(f"fleet-sim:{seed}"))
    nodes = _build_fleet_nodes(workload, node_count)
    client = SubmitClient()
    for node in nodes + [client]:
        network.attach(node)

    scheduler.schedule(0.0, lambda: client.submit_serially(
        nodes[0].address, workload.transactions))
    scheduler.run()

    def resync() -> None:
        _start_resync(nodes)
        scheduler.run()

    per_node, rounds = converge_sync(
        lambda: _state_hashes(nodes, workload.credit_now), resync,
        workload.reference_hashes)
    return _leg_result(
        leg="sim", scenario=scenario, seed=seed, nodes=nodes,
        per_node=per_node, rounds=rounds, duration=scheduler.clock.now(),
        transports=[network], client=client,
        reference=workload.reference_hashes)


# -- wire leg --------------------------------------------------------------

async def run_wire_leg(workload: Workload, *, node_count: int,
                       seed: int, scenario: str = "smoke",
                       host: str = "127.0.0.1", time_scale: float = 20.0,
                       drain_timeout: float = 20.0):
    """Deliver the same workload over a localhost TCP fleet.

    Boots one :class:`NodeRunner` per full node (ephemeral ports), a
    connect-only client, submits serially awaiting every response, then
    drains gossip and runs anti-entropy rounds until every node holds
    the reference hashes.
    Returns ``(report, summary)``.
    """
    scheduler = AsyncioScheduler(time_scale=time_scale)
    directory: Dict[str, Tuple[str, int]] = {}
    nodes = _build_fleet_nodes(workload, node_count)
    runners = [
        NodeRunner(node,
                   AsyncioTransport(scheduler, directory=directory,
                                    rng=random.Random(f"wire:{seed}:{i}")),
                   listen=(host, 0))
        for i, node in enumerate(nodes)
    ]
    client = SubmitClient()

    loop = asyncio.get_running_loop()
    try:
        for runner in runners:
            await runner.start()
        await client.connect(directory, rng_seed=f"wire:{seed}",
                             time_scale=time_scale)

        for index, encoded in enumerate(workload.transactions):
            await client.submit(nodes[0].address, index, encoded)

        # Gossip drain: every replica should reach the full DAG without
        # any explicit sync; anti-entropy below is the backstop.
        expected = len(workload.transactions) + 1  # + genesis
        deadline = loop.time() + drain_timeout
        while (loop.time() < deadline
               and any(len(node.tangle) < expected for node in nodes)):
            await asyncio.sleep(0.05)

        async def hashes() -> Dict[str, Dict[str, str]]:
            return _state_hashes(nodes, workload.credit_now)

        async def resync() -> None:
            _start_resync(nodes)
            await asyncio.sleep(0.3)

        per_node, rounds = await converge(hashes, resync,
                                          workload.reference_hashes)
        return _leg_result(
            leg="wire", scenario=scenario, seed=seed, nodes=nodes,
            per_node=per_node, rounds=rounds,
            duration=scheduler.clock.now(),
            transports=[r.transport for r in runners], client=client,
            reference=workload.reference_hashes)
    finally:
        await client.close()
        for runner in runners:
            await runner.stop()
        scheduler.cancel_all()


# -- the differential ------------------------------------------------------

def run_fleet_differential(*, seed: int, scenario: str = "smoke",
                           node_count: Optional[int] = None,
                           transactions: Optional[int] = None,
                           host: str = "127.0.0.1",
                           time_scale: float = 20.0
                           ) -> Tuple[Dict[str, object], ConvergenceReport,
                                      ConvergenceReport]:
    """Run both legs and compare; returns ``(result, sim_report,
    wire_report)`` where ``result["matched"]`` is the sim≡wire verdict.

    ``matched`` is True iff on both legs every node converged to the
    reference node's four hashes — the acceptance criterion of the
    transport extraction.
    """
    if scenario not in FLEET_SCENARIOS:
        known = ", ".join(sorted(FLEET_SCENARIOS))
        raise ValueError(f"unknown fleet scenario {scenario!r} "
                         f"(known: {known})")
    shape = FLEET_SCENARIOS[scenario]
    node_count = node_count if node_count is not None \
        else shape["node_count"]
    transactions = transactions if transactions is not None \
        else shape["transactions"]
    if node_count < 2:
        raise ValueError("fleet differential needs at least 2 nodes")

    workload = build_workload(seed, transactions=transactions)
    sim_report, sim_summary = run_sim_leg(
        workload, node_count=node_count, seed=seed, scenario=scenario)
    wire_report, wire_summary = asyncio.run(
        run_wire_leg(workload, node_count=node_count, seed=seed,
                     scenario=scenario, host=host, time_scale=time_scale))

    result = {
        "seed": seed,
        "scenario": scenario,
        "node_count": node_count,
        "transactions": transactions,
        "reference": workload.reference_hashes,
        "sim": sim_summary,
        "wire": wire_summary,
        "matched": sim_summary["converged"] and wire_summary["converged"],
    }
    return result, sim_report, wire_report
