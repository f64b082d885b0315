"""Ext-1 — DAG-structured vs chain-structured blockchain throughput.

Paper claim (Sections II and IV): "we utilize the DAG-structured
blockchain ... which can achieve a high throughput"; chain-structured
blockchains' "synchronous consensus mechanisms limit the system
throughput, i.e., transactions only can be validated one by one".

Reproduction: identical signed workloads through both substrates under
an equal-aggregate-hash-power, equal-work-per-transaction, fork-safe
frame (see examples/dag_vs_chain.py for the full rationale).  The
sweep varies the device count and reports throughput for both, plus
confirmation latency.
"""

import math
import random

from repro.analysis.metrics import format_table
from repro.analysis.workloads import grow_parallel_tangle
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.chain.miner import Miner
from repro.crypto.keys import KeyPair
from repro.devices.clock import SimulatedClock
from repro.devices.profiles import RASPBERRY_PI_3B, DeviceProfile
from repro.pow.engine import PowEngine
from repro.tangle.transaction import Transaction, ZERO_HASH

TX_PER_DEVICE = 12
TANGLE_DIFFICULTY = 8
BLOCK_SIZE = 8
BLOCK_DIFFICULTY = TANGLE_DIFFICULTY + int(math.log2(BLOCK_SIZE))
MIN_BLOCK_INTERVAL = 5.0


def _tangle_throughput(device_count: int, seed: int) -> float:
    growth = grow_parallel_tangle(
        device_count=device_count, tx_per_device=TX_PER_DEVICE,
        difficulty=TANGLE_DIFFICULTY, seed=seed,
    )
    return growth.throughput


def _chain_throughput(device_count: int, seed: int) -> float:
    aggregate = DeviceProfile(
        name="ext1-aggregate",
        hash_rate=RASPBERRY_PI_3B.hash_rate * device_count,
        pow_overhead_s=RASPBERRY_PI_3B.pow_overhead_s,
        aes_bytes_per_second=RASPBERRY_PI_3B.aes_bytes_per_second,
        signature_seconds=RASPBERRY_PI_3B.signature_seconds,
        is_full_node_capable=True,
    )
    miner_keys = KeyPair.generate(seed=f"ext1-miner-{seed}".encode())
    chain = Blockchain(Block.mine_genesis(miner_keys))
    clock = SimulatedClock()
    engine = PowEngine(aggregate, clock, rng=random.Random(seed))
    miner = Miner(miner_keys, chain, engine,
                  block_difficulty=BLOCK_DIFFICULTY,
                  max_block_transactions=BLOCK_SIZE)
    for d in range(device_count):
        keys = KeyPair.generate(seed=f"ext1-dev-{d}".encode())
        for i in range(TX_PER_DEVICE):
            miner.submit(Transaction.create(
                keys, kind="data", payload=f"{d}-{i}".encode(),
                timestamp=0.0, branch=ZERO_HASH, trunk=ZERO_HASH,
                difficulty=1,
            ))
    last_block_at = 0.0
    mined = 0
    while miner.mempool:
        earliest = last_block_at + MIN_BLOCK_INTERVAL
        if clock.now() < earliest:
            clock.advance(earliest - clock.now())
        block = miner.mine_next_block()
        last_block_at = clock.now()
        mined += len(block.transactions)
    return mined / clock.now()


def _sweep():
    rows = []
    for device_count in (2, 4, 8, 16):
        dag_tps = _tangle_throughput(device_count, seed=device_count)
        chain_tps = _chain_throughput(device_count, seed=device_count)
        rows.append((device_count, dag_tps, chain_tps,
                     dag_tps / chain_tps))
    return rows


def test_bench_ext1_dag_vs_chain(benchmark, report_writer):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    formatted = [
        (devices, f"{dag:.2f}", f"{chain:.2f}", f"{advantage:.1f}x")
        for devices, dag, chain, advantage in rows
    ]
    report_writer("ext1_dag_vs_chain", format_table(formatted, headers=[
        "devices", "tangle (tx/s)", "chain (tx/s)", "DAG advantage",
    ]))
    # The paper's claim must hold at every scale, and the advantage
    # must grow with the device count (the chain cannot parallelise).
    advantages = [advantage for _, _, _, advantage in rows]
    assert all(advantage > 2.0 for advantage in advantages)
    assert advantages[-1] > advantages[0]
