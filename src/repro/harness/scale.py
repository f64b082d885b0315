"""Sharded scale benchmark: wall-clock tx/s vs node-process count.

Submits a *sharded* workload (each shard's parent links stay inside the
shard, so processes never wait on each other) to 1/2/4 isolated node
processes and measures wall-clock tx/s.  Per-transaction cost is
crypto-dominated (signature verification), so with enough cores
throughput scales with process count — the multi-core number one
process could never produce.  Results land in
``BENCH_fleet_scale.json`` with the host's usable-CPU count recorded,
because on a 1-core box the curve is legitimately flat.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, Optional, Tuple

from ..network.proc import NodeProcessSpec
from .compare import run_directory
from .submit import SubmitClient
from .supervisor import FleetProcessError, ProcessFleet, write_genesis
from .workload import Workload, build_workload

__all__ = ["run_scale_bench"]


async def _bench_leg(workload: Workload, *, processes: int,
                     run_dir: str, host: str,
                     crypto_backend: str) -> Dict[str, object]:
    """Spawn *processes* isolated nodes, pump one shard into each (one
    submission in flight per shard), and time the post-warmup stretch
    end to end."""
    genesis_path = write_genesis(workload.genesis, run_dir)
    addresses = [f"b{i}" for i in range(processes)]
    fleet = ProcessFleet(run_dir=run_dir)
    client = SubmitClient("bench-driver")
    try:
        directory = await fleet.spawn_all([
            NodeProcessSpec(
                address=address, genesis_path=genesis_path, rng_seed=i,
                listen_host=host, listen_port=0,
                storage_backend="none", crypto_backend=crypto_backend,
                metrics_port=0, time_scale=1.0)
            for i, address in enumerate(addresses)])
        await client.connect(directory, rng_seed=f"bench:{processes}")

        async def drive_shard(index: int, positions: range) -> None:
            for j in positions:
                await client.submit(addresses[index], index * 1_000_000 + j,
                                    workload.shards[index][j], timeout=20.0)

        # Warmup (untimed): the shared ACL transaction, which also
        # proves each process is dialable before the clock starts.
        for i in range(processes):
            await drive_shard(i, range(1))

        begin = time.perf_counter()
        await asyncio.gather(
            *[drive_shard(i, range(1, len(workload.shards[i])))
              for i in range(processes)])
        wall = time.perf_counter() - begin

        if client.rejected:
            raise FleetProcessError(
                f"bench transactions rejected: {client.rejected[:3]}")
        timed = sum(len(workload.shards[i]) - 1
                    for i in range(processes))
        return {
            "processes": processes,
            "transactions": timed,
            "wall_seconds": wall,
            "tx_per_s": timed / wall if wall > 0 else 0.0,
        }
    finally:
        fleet.shutdown()
        await client.close()


def run_scale_bench(*, seed: int, process_counts: Tuple[int, ...] = (1, 2, 4),
                    transactions_per_process: int = 120,
                    crypto_backend: str = "accel",
                    host: str = "127.0.0.1",
                    run_dir: Optional[str] = None,
                    smoke: bool = False) -> Dict[str, object]:
    """Measure wall-clock tx/s against 1/2/4-process fleets.

    The report records ``cpus`` (the scheduler-usable core count):
    scaling claims are only meaningful when the host can actually run
    the processes in parallel, so consumers gate their assertions on
    it rather than failing on single-core boxes.
    """
    workload = build_workload(
        seed, transactions=transactions_per_process,
        shards=max(process_counts))

    points: Dict[str, Dict[str, object]] = {}
    with run_directory(run_dir, prefix="repro-fleet-bench-") as directory:
        for count in process_counts:
            points[f"p{count}"] = asyncio.run(_bench_leg(
                workload, processes=count,
                run_dir=os.path.join(directory, f"p{count}"), host=host,
                crypto_backend=crypto_backend))
    base = points[f"p{process_counts[0]}"]["tx_per_s"]
    for point in points.values():
        point["speedup"] = (point["tx_per_s"] / base
                            if base > 0 else 0.0)
    return {
        "bench": "fleet_scale",
        "seed": seed,
        "smoke": smoke,
        "cpus": len(os.sched_getaffinity(0)),
        "crypto_backend": crypto_backend,
        "transactions_per_process": transactions_per_process,
        "process_counts": list(process_counts),
        "points": points,
    }
