"""A live ``repro node``'s verify workers, and what happens when one fails.

The node forks one worker per usable core before its event loop starts
and lists their pids on its ready line; it hands each read's signature
batch to them and delivers the run when the verdicts arrive.  Each test takes a worker's pid
from there and does to it what a gateway's operating system might: kill
it mid-burst, stop it, or outlive it.  Whatever happens, every submit
is acked ``ok``, the node ends on the reference hashes, and no worker
is left behind — not even as a zombie.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.crypto import verify_workers
from repro.harness.controller import FleetController
from repro.harness.submit import SubmitClient
from repro.harness.supervisor import ProcessFleet, write_genesis
from repro.harness.workload import build_workload
from repro.network.frame import FrameDecoder
from repro.network.proc import NodeProcessSpec

from ..nodes.runs import submit_frame

pytestmark = pytest.mark.skipif(
    verify_workers.worker_count() == 0,
    reason="a node forks verify workers only where it reads its CPU "
           "affinity and finds two or more usable cores")

TIME_SCALE = 20.0
BURST = 24
"""Submits per ``write()``: enough for every piece of up to four to get
the batch floor, so each burst runs through the workers."""


def _state(pid):
    """The ``/proc`` state letter of *pid* (``"Z"`` for a zombie), or
    None once no process has that pid."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class Bursts:
    """One connection to the node that writes submits in bursts and
    collects every ack."""

    def __init__(self, ready, workload):
        self.ready = ready
        self.workload = workload
        self.acks = {}
        self.order = []
        self.sent = 0

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.ready["host"], self.ready["port"])
        self.decoder = FrameDecoder()
        return self

    async def __aexit__(self, *_exc):
        self.writer.close()

    async def burst(self, count):
        """Write the next *count* submits in one ``write()`` and wait
        for all their acks."""
        await self.write(count)
        await self.collect()

    async def write(self, count):
        """Write the next *count* submits in one ``write()``."""
        first, self.sent = self.sent, self.sent + count
        self.writer.write(b"".join(
            submit_frame(index, self.workload.transactions[index])
            for index in range(first, self.sent)))
        await self.writer.drain()

    async def collect(self):
        """Wait for the ack of every submit written so far, recording
        the order they came in."""
        while len(self.acks) < self.sent:
            data = await asyncio.wait_for(self.reader.read(65536), 30.0)
            assert data, "node closed the connection"
            for message in self.decoder.feed(data):
                assert message.kind == "submit_response"
                self.acks[message.body["request_id"]] = message.body
                self.order.append(message.body["request_id"])


async def _status(ready, workload):
    client = SubmitClient()
    await client.connect({ready["address"]: (ready["host"], ready["port"])},
                         rng_seed="test", time_scale=TIME_SCALE)
    try:
        return await FleetController(client).status(
            ready["address"], now=workload.credit_now)
    finally:
        await client.close()


def _spawn(fleet, sandbox, workload):
    genesis_path = write_genesis(workload.genesis, sandbox.storage_dir())
    ready = fleet.spawn(NodeProcessSpec(
        address="n0", genesis_path=genesis_path, time_scale=TIME_SCALE))
    assert len(ready["verify_workers"]) == verify_workers.worker_count()
    return ready


def _all_acked_and_attached(ready, workload, acks, sandbox):
    assert [acks[index]["ok"] for index in range(len(acks))] \
        == [True] * len(workload.transactions)
    status = sandbox.run(_status(ready, workload))
    assert status["tangle_size"] == 1 + len(workload.transactions)
    assert status["hashes"] == workload.reference_hashes


def test_a_worker_killed_mid_burst_loses_no_acked_transaction(
        fleet_sandbox):
    workload = build_workload(21, transactions=1 + 4 * BURST)
    with ProcessFleet(run_dir=fleet_sandbox.storage_dir()) as fleet:
        ready = _spawn(fleet, fleet_sandbox, workload)
        victim = ready["verify_workers"][0]

        async def drive():
            async with Bursts(ready, workload) as bursts:
                await bursts.burst(1)  # the ACL grant, alone
                await bursts.burst(BURST)
                # Kill it while the next burst is in flight, then keep
                # submitting: the node finds it dead at its next hand-off.
                task = asyncio.ensure_future(bursts.burst(BURST))
                await asyncio.sleep(0)
                os.kill(victim, signal.SIGKILL)
                await task
                for _ in range(2):
                    await bursts.burst(BURST)
                return bursts.acks

        acks = fleet_sandbox.run(drive())
        _all_acked_and_attached(ready, workload, acks, fleet_sandbox)
        # Reaped by the node, not left a zombie.
        assert _until(lambda: _state(victim) is None), _state(victim)
        assert fleet.terminate("n0") == 0


def test_a_worker_killed_with_two_runs_in_flight_delivers_both_in_order(
        fleet_sandbox):
    """Two bursts written as two reads, so the node hands both batches
    off before the first one's verdicts are in; then a worker dies.
    What it owed is checked in the node, and both runs are delivered
    in read order: the acks on the one connection come back in the
    order the submits were written."""
    workload = build_workload(27, transactions=1 + 2 * BURST)
    with ProcessFleet(run_dir=fleet_sandbox.storage_dir()) as fleet:
        ready = _spawn(fleet, fleet_sandbox, workload)
        victim = ready["verify_workers"][0]

        async def drive():
            async with Bursts(ready, workload) as bursts:
                await bursts.burst(1)  # the ACL grant, alone
                await bursts.write(BURST)
                await asyncio.sleep(0.005)  # a read of its own
                await bursts.write(BURST)
                os.kill(victim, signal.SIGKILL)
                await bursts.collect()
                return bursts.acks, bursts.order

        acks, order = fleet_sandbox.run(drive())
        assert order == list(range(1 + 2 * BURST))
        _all_acked_and_attached(ready, workload, acks, fleet_sandbox)
        assert _until(lambda: _state(victim) is None), _state(victim)
        assert fleet.terminate("n0") == 0


def test_a_stopped_worker_is_waited_for_only_up_to_the_bound(fleet_sandbox):
    workload = build_workload(23, transactions=1 + BURST)
    with ProcessFleet(run_dir=fleet_sandbox.storage_dir()) as fleet:
        ready = _spawn(fleet, fleet_sandbox, workload)
        victim = ready["verify_workers"][0]

        async def drive():
            async with Bursts(ready, workload) as bursts:
                await bursts.burst(1)
                os.kill(victim, signal.SIGSTOP)
                began = time.monotonic()
                await bursts.burst(BURST)
                return bursts.acks, time.monotonic() - began

        try:
            acks, waited = fleet_sandbox.run(drive())
        finally:
            if _state(victim) is not None:
                os.kill(victim, signal.SIGCONT)
        # The node gave up on the stopped worker, SIGKILLed and reaped
        # it, and verified what it owed itself.
        assert waited < verify_workers.STALL_BOUND_S + 20.0
        assert _until(lambda: _state(victim) is None), _state(victim)
        _all_acked_and_attached(ready, workload, acks, fleet_sandbox)
        assert fleet.terminate("n0") == 0


@pytest.mark.parametrize("ending", ["terminate", "kill"])
def test_the_workers_do_not_outlive_the_node(fleet_sandbox, ending):
    """SIGTERM: the node closes the workers' sockets and reaps them.
    SIGKILL: the kernel closes the sockets, each worker reads EOF and
    exits (a zombie of whoever inherited it until that reaps it)."""
    workload = build_workload(25, transactions=4)
    with ProcessFleet(run_dir=fleet_sandbox.storage_dir()) as fleet:
        ready = _spawn(fleet, fleet_sandbox, workload)
        pids = ready["verify_workers"]
        assert all(_state(pid) not in (None, "Z") for pid in pids)
        if ending == "terminate":
            assert fleet.terminate("n0") == 0
            assert all(_state(pid) is None for pid in pids)
        else:
            fleet.kill("n0")
            assert _until(lambda: all(_state(pid) in (None, "Z")
                                      for pid in pids))
