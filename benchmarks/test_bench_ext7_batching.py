"""Ext-7 — reading-batch ablation: ledger cost vs data latency.

Each tangle transaction costs a device one PoW solve, one signature and
one gateway round-trip regardless of how much sensor data it carries.
Batching readings amortises that cost — but a batched device issues
*fewer* transactions, earns CrP more slowly under Eqn. 3, and therefore
digs at a somewhat higher difficulty: the credit mechanism couples the
two knobs.  This bench sweeps the batch size on a live system and
reports readings throughput, mean per-reading energy, and the device's
steady-state difficulty.
"""

from repro.analysis.energy import energy_for_stats
from repro.analysis.metrics import format_table
from repro.core.authority import DataProtector
from repro.core.biot import BIoTConfig, BIoTSystem
from repro.crypto import rand
from repro.devices.profiles import RASPBERRY_PI_3B

RUN_SECONDS = 60.0


def _run_with_batch_size(batch_size: int):
    seed = 200 + batch_size
    # Seeded like ``repro workflow``: the AES IVs would otherwise come
    # from os.urandom and move every PoW solve count with them.
    with rand.deterministic(f"ext7:{seed}".encode()):
        system = BIoTSystem.build(BIoTConfig(
            device_count=2, gateway_count=1, seed=seed,
            initial_difficulty=8, report_interval=1.0,
        ))
        for device in system.devices:
            device.batch_size = batch_size
        system.initialize()
        system.start_devices()
        system.run_for(RUN_SECONDS)
    device = system.devices[0]
    stats = device.stats
    energy = energy_for_stats(RASPBERRY_PI_3B, stats)
    readings = stats.submissions_accepted * batch_size
    # Every acknowledged reading is on the ledger; a submission still in
    # flight when the run stops may be attached before its ack lands.
    on_ledger = _readings_on_ledger(system.gateways[0], device)
    assert readings <= on_ledger <= stats.submissions_sent * batch_size
    return {
        "batch_size": batch_size,
        "transactions": stats.submissions_accepted,
        "readings": readings,
        "joules_per_reading": (
            energy.total_joules / max(1, stats.readings_taken)
        ),
        "steady_difficulty": (
            stats.assigned_difficulties[-1]
            if stats.assigned_difficulties else None
        ),
    }


def _readings_on_ledger(gateway, device):
    """Open every data payload *device* put on *gateway*'s tangle with
    the device's own protector (it holds the group key when the payload
    is encrypted) and count the readings inside."""
    issuer = device.keypair.public.node_id
    count = 0
    for tx in gateway.tangle:
        if tx.kind != "data" or tx.issuer.node_id != issuer:
            continue
        if DataProtector.is_batch(tx.payload):
            count += len(device.protector.unprotect_batch(tx.payload))
        else:
            device.protector.unprotect(tx.payload)
            count += 1
    return count


def _sweep():
    return [_run_with_batch_size(size) for size in (1, 2, 4, 8)]


def test_bench_ext7_batching(benchmark, report_writer):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    formatted = [
        (r["batch_size"], r["transactions"], r["readings"],
         f"{r['joules_per_reading']:.3f}", r["steady_difficulty"])
        for r in rows
    ]
    report_writer("ext7_batching", format_table(formatted, headers=[
        "batch size", "txs accepted", "readings on ledger",
        "J per reading", "difficulty at end",
    ]))

    by_size = {r["batch_size"]: r for r in rows}
    # Bigger batches, fewer transactions for comparable reading volume.
    assert by_size[8]["transactions"] < by_size[1]["transactions"] / 3
    # Per-reading energy falls with batching (PoW cost amortised), even
    # though the batched device runs at a higher difficulty.
    assert (by_size[8]["joules_per_reading"]
            < by_size[1]["joules_per_reading"])
    # The credit coupling: fewer transactions -> less CrP -> the batched
    # device keeps a difficulty at or above the unbatched one.
    assert (by_size[8]["steady_difficulty"]
            >= by_size[1]["steady_difficulty"])
