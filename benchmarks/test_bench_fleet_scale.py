"""Fleet scale — wall-clock tx/s vs full-node process count.

The whole point of the multi-process lane: signature verification
dominates per-transaction cost, so N node processes on N cores should
ingest close to N disjoint transaction shards in the time one process
ingests one.  :func:`repro.harness.scale.run_scale_bench` spawns
1/2/4 isolated ``repro node`` processes (accel crypto backend, each
with its own Prometheus exporter port), pumps one self-contained shard
into each over real TCP, and times the post-warmup stretch.

Emits ``benchmarks/out/BENCH_fleet_scale.json``.  The report records
``cpus`` — the scheduler-usable core count — because the scaling
claim is a *hardware* claim: on a single-core box the curve is
legitimately flat (the processes time-share one core), so the
monotonicity and ≥1.8x-at-4 assertions only arm when the host has the
cores to show it.  CI runners (4 vCPUs) arm them.

Set ``FLEET_BENCH_SMOKE=1`` to shrink to 1/2 processes with short
shards: same code paths, assertions relaxed to sanity checks.
"""

import json
import os
import pathlib

from repro.analysis.metrics import format_table
from repro.harness.scale import run_scale_bench

OUT_DIR = pathlib.Path(__file__).parent / "out"

SMOKE = os.environ.get("FLEET_BENCH_SMOKE") == "1"

SEED = 7
PROCESS_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
TX_PER_PROCESS = 20 if SMOKE else 120
MIN_SPEEDUP_AT_4 = 1.8


def test_fleet_scale(report_writer):
    result = run_scale_bench(
        seed=SEED, process_counts=PROCESS_COUNTS,
        transactions_per_process=TX_PER_PROCESS, smoke=SMOKE)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_fleet_scale.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")

    points = [result["points"][f"p{count}"] for count in PROCESS_COUNTS]
    table = format_table(
        [(p["processes"], p["transactions"],
          f"{p['wall_seconds']:.3f}", f"{p['tx_per_s']:.1f}",
          f"{p['speedup']:.2f}x") for p in points],
        headers=("processes", "transactions", "wall_s", "tx_per_s",
                 "speedup"))
    report_writer(
        "fleet_scale",
        table + f"\ncpus={result['cpus']}")

    # Sanity, always: every leg moved real transactions over real TCP
    # (per process: the shard minus its untimed ACL warmup).
    for point in points:
        assert point["transactions"] == \
            point["processes"] * (TX_PER_PROCESS - 1), point
        assert point["tx_per_s"] > 0, point

    cpus = result["cpus"]
    by_count = {p["processes"]: p["tx_per_s"] for p in points}
    if not SMOKE and cpus >= 4 and 4 in by_count:
        # The acceptance curve: monotone 1 -> 2 -> 4, >=1.8x at 4.
        assert by_count[2] > by_count[1], by_count
        assert by_count[4] > by_count[2], by_count
        assert by_count[4] / by_count[1] >= MIN_SPEEDUP_AT_4, by_count
    elif not SMOKE and cpus >= 2 and 2 in by_count:
        assert by_count[2] > by_count[1], by_count
    else:
        # Smoke shards (20 transactions: start-up noise outweighs a
        # second core) or a single core (processes time-share): require
        # only that adding processes does not collapse throughput.
        top = max(by_count)
        assert by_count[top] >= 0.5 * by_count[1], by_count
