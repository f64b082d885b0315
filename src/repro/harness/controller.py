"""Process differential: drive, crash, restart and compare OS processes.

:mod:`repro.harness.fleet` proves sim ≡ wire inside one process; this
module extends the differential across **OS process boundaries**.  A
:class:`FleetController` is the parent side of the fleet control plane
(``fleet_status`` / ``fleet_resync`` / ``fleet_shutdown``
request/response RPCs), riding the same connect-only transport — and
the same request/response primitive — as the
:class:`~repro.harness.submit.SubmitClient` that delivers the workload.

:func:`run_proc_differential` drives the pre-generated seeded workload
into a durable-storage fleet spawned by
:class:`~repro.harness.supervisor.ProcessFleet`, SIGKILLs a victim
mid-workload, cold-restarts it from its journal, and requires **every
process** to converge to the reference node's byte-identical
tangle/ledger/ACL/credit hashes.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, List, Optional, Tuple

from ..network.proc import (
    RESYNC_ACK_KIND,
    RESYNC_KIND,
    SHUTDOWN_ACK_KIND,
    SHUTDOWN_KIND,
    STATUS_KIND,
    STATUS_RESPONSE_KIND,
    NodeProcessSpec,
)
from .compare import converge, leg_summary, run_directory
from .submit import SubmitClient
from .supervisor import (
    FleetProcessError,
    ProcessFleet,
    scrape_metrics,
    write_genesis,
)
from .workload import Workload, build_workload

__all__ = ["FleetController", "run_proc_leg", "run_proc_differential"]


class FleetController:
    """Control-plane RPCs over a connected client's transport
    (request ids are this controller's own sequence)."""

    def __init__(self, client: SubmitClient):
        self.client = client
        self._rpc_seq = 0

    async def rpc(self, address: str, kind: str, reply_kind: str,
                  body: Optional[Dict[str, object]] = None, *,
                  timeout: float = 10.0,
                  attempts: int = 2) -> Dict[str, object]:
        """One request/response; raises :class:`TimeoutError` when the
        node never answers."""
        self._rpc_seq += 1
        return await self.client.request(
            address, kind, body or {}, reply_kind=reply_kind,
            request_id=self._rpc_seq, timeout=timeout, attempts=attempts)

    async def status(self, address: str, *, now: float,
                     timeout: float = 10.0) -> Dict[str, object]:
        return await self.rpc(address, STATUS_KIND, STATUS_RESPONSE_KIND,
                              {"now": float(now)}, timeout=timeout)

    async def resync(self, address: str) -> Dict[str, object]:
        return await self.rpc(address, RESYNC_KIND, RESYNC_ACK_KIND)

    async def hashes(self, addresses: List[str], *,
                     now: float) -> Dict[str, Dict[str, str]]:
        """Every node's four state hashes, credit read at *now*."""
        return {address: dict((await self.status(address, now=now))["hashes"])
                for address in addresses}

    async def resync_all(self, addresses: List[str]) -> None:
        """Start one anti-entropy sweep on every node; let it settle."""
        for address in addresses:
            await self.resync(address)
        await asyncio.sleep(0.3)

    async def shutdown_node(self, address: str,
                            timeout: float = 10.0) -> Dict[str, object]:
        return await self.rpc(address, SHUTDOWN_KIND, SHUTDOWN_ACK_KIND,
                              timeout=timeout, attempts=1)


async def _wait_bootstrap(controller: FleetController,
                          addresses: List[str], *, expected_peers: int,
                          now: float, timeout: float = 30.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    last: Dict[str, Tuple[bool, int]] = {}
    while loop.time() < deadline:
        try:
            for address in addresses:
                status = await controller.status(address, now=now,
                                                 timeout=3.0)
                last[address] = (bool(status.get("bootstrapped")),
                                 len(status.get("peers", ())))
        except TimeoutError:
            pass
        else:
            if all(bootstrapped and peers >= expected_peers
                   for bootstrapped, peers in last.values()):
                return
        await asyncio.sleep(0.2)
    raise FleetProcessError(
        f"fleet bootstrap incomplete after {timeout:.0f}s "
        f"(want {expected_peers} peers each): {last}")


async def run_proc_leg(workload: Workload, *, processes: int,
                       seed: int, run_dir: str, host: str = "127.0.0.1",
                       crypto_backend: str = "reference",
                       time_scale: float = 20.0,
                       crash: bool = True) -> Dict[str, object]:
    """Drive *workload* through a fleet of real OS processes.

    With ``crash=True`` (and ≥2 processes) the last node is SIGKILLed a
    third of the way through the workload and cold-restarted from its
    journal two thirds in — it must still converge to the reference
    hashes, proving journal + restart + discovery + anti-entropy
    compose across process boundaries.
    """
    if processes < 1:
        raise ValueError("process fleet needs at least 1 process")
    loop = asyncio.get_running_loop()
    genesis_path = write_genesis(workload.genesis, run_dir)
    storage_dir = os.path.join(run_dir, "storage")
    addresses = [f"n{i}" for i in range(processes)]
    specs = [
        NodeProcessSpec(
            address=address, genesis_path=genesis_path, rng_seed=i,
            listen_host=host, listen_port=0,
            storage_backend="file", storage_dir=storage_dir,
            crypto_backend=crypto_backend,
            metrics_port=0, time_scale=time_scale)
        for i, address in enumerate(addresses)
    ]

    fleet = ProcessFleet(run_dir=run_dir)
    client = SubmitClient()
    try:
        directory = await fleet.spawn_all(specs, discover=True)
        await client.connect(directory, rng_seed=f"fleet-ctl:{seed}",
                             time_scale=time_scale)
        controller = FleetController(client)
        if processes > 1:
            await _wait_bootstrap(controller, addresses,
                                  expected_peers=processes - 1,
                                  now=workload.credit_now)

        victim = addresses[-1] if crash and processes >= 2 else None
        total = len(workload.transactions)
        kill_at = total // 3
        restart_at = (2 * total) // 3
        crash_record: Optional[Dict[str, object]] = None

        for index, encoded in enumerate(workload.transactions):
            if victim is not None and index == kill_at:
                await loop.run_in_executor(None, fleet.kill, victim)
            if victim is not None and index == restart_at:
                info = await loop.run_in_executor(None, fleet.respawn,
                                                  victim)
                # Re-dial the reborn process on its new ephemeral port.
                directory[victim] = (info["host"], info["port"])
                crash_record = {
                    "victim": victim,
                    "killed_at": kill_at,
                    "restarted_at": restart_at,
                    "restored_records": info.get("restored"),
                }
            await client.submit(addresses[0], index, encoded)

        reference = workload.reference_hashes
        per_node, rounds = await converge(
            lambda: controller.hashes(addresses, now=workload.credit_now),
            lambda: controller.resync_all(addresses), reference)

        metrics_report: Dict[str, object] = {}
        for address in addresses:
            port = fleet.processes[address].ready["metrics_port"]
            page = await loop.run_in_executor(None, scrape_metrics,
                                              host, port)
            metrics_report[address] = {
                "port": port,
                "scraped": "repro_transport_frames_sent_total" in page,
                "bytes": len(page),
            }

        # Graceful teardown through the control plane; the supervisor
        # below SIGTERMs whatever does not comply.
        for address in addresses:
            try:
                await controller.shutdown_node(address, timeout=5.0)
            except TimeoutError:
                pass

        summary = leg_summary(per_node, rounds, client.rejected, reference)
        return {
            "seed": seed,
            "processes": processes,
            "transactions": total,
            "storage_backend": specs[0].storage_backend,
            "crypto_backend": crypto_backend,
            "reference": reference,
            "proc": {**summary, "crash": crash_record,
                     "metrics": metrics_report},
            "matched": summary["converged"] and not summary["rejected"],
        }
    finally:
        fleet.shutdown()
        await client.close()


def run_proc_differential(*, seed: int, processes: int = 3,
                          transactions: int = 12,
                          run_dir: Optional[str] = None,
                          **leg_options) -> Dict[str, object]:
    """Build the seeded workload and run the process leg against it
    (*leg_options* are :func:`run_proc_leg`'s); ``run_dir=None`` keeps
    stores and logs in a throwaway temporary directory."""
    workload = build_workload(seed, transactions=transactions)
    with run_directory(run_dir, prefix="repro-fleet-proc-") as directory:
        return asyncio.run(run_proc_leg(
            workload, processes=processes, seed=seed, run_dir=directory,
            **leg_options))
