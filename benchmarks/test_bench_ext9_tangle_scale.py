"""Ext-9 — tangle hot-path scaling: batched weights and bounded walks.

The seed's eager engine re-walked every ancestor on each attach
(O(|past cone|) per transaction, quadratic over a growth run) and the
weighted walk entered at genesis (O(height) per tip selection).  This
bench measures both replacements on identical pre-built DAGs:

* **attach throughput** — eager (``weight_flush_interval=1``, the old
  behaviour) vs batched-lazy (default interval) at 1k/10k, plus the
  lazy engine alone at 50k where eager is impractical;
* **walk latency** — milestone-bounded entry (``start_depth=20``) vs a
  genesis entry (``start_depth`` larger than any height) at each size;
* **differential check** — eager and lazy report identical ``weight()``
  for every probed transaction, so the speedup is not buying wrong
  answers.

Emits ``benchmarks/out/BENCH_tangle_scale.json`` for EXPERIMENTS.md.

Transactions are pre-built unsigned outside the timed regions (pure-
Python Ed25519 would dominate the measurement; the bare ``Tangle`` runs
no validators so signatures are never checked).
"""

import json
import pathlib
import random
import time

from repro.analysis.metrics import format_table
from repro.crypto.keys import KeyPair
from repro.tangle.tangle import DEFAULT_WEIGHT_FLUSH_INTERVAL, Tangle
from repro.tangle.tip_selection import WeightedRandomWalkSelector
from repro.tangle.transaction import Transaction
from repro.telemetry.registry import MetricsRegistry

OUT_DIR = pathlib.Path(__file__).parent / "out"

KEYS = KeyPair.generate(seed=b"ext9-bench")

SIZES = (1_000, 10_000, 50_000)
EAGER_SIZES = (1_000, 10_000)  # eager at 50k is quadratic — minutes
WALK_SAMPLES = 30
GENESIS_ENTRY_DEPTH = 10 ** 9  # deeper than any height -> genesis entry
TELEMETRY_SIZE = 10_000  # instrumented (untimed) replay for histograms


def _build_schedule(n, seed=5):
    """Pre-build *n* unsigned transactions approving recent arrivals."""
    rng = random.Random(seed)
    genesis = Transaction.create_genesis(KEYS)
    hashes = [genesis.tx_hash]
    txs = []
    for i in range(n):
        recent = hashes[-8:]
        branch, trunk = rng.choice(recent), rng.choice(recent)
        tx = Transaction(
            kind="data", issuer=KEYS.public, payload=f"b{i}".encode(),
            timestamp=float(i + 1), branch=branch, trunk=trunk,
            difficulty=1, nonce=0, signature=b"",
        )
        hashes.append(tx.tx_hash)
        txs.append(tx)
    return genesis, txs


def _timed_attach(genesis, txs, flush_interval):
    tangle = Tangle(genesis, weight_flush_interval=flush_interval)
    start = time.perf_counter()
    for tx in txs:
        tangle.attach(tx, arrival_time=tx.timestamp)
    tangle.flush_weights()  # charge any pending epoch to the run
    elapsed = time.perf_counter() - start
    return tangle, elapsed


def _walk_latency(tangle, start_depth):
    selector = WeightedRandomWalkSelector(alpha=0.05,
                                          start_depth=start_depth)
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(WALK_SAMPLES):
        selector.select(tangle, rng)
    return (time.perf_counter() - start) / WALK_SAMPLES


def _histogram_dict(histogram):
    merged = histogram.merged()
    return {
        "buckets": list(histogram.buckets),
        "bucket_counts": merged.bucket_counts,
        "count": merged.count,
        "sum": merged.total,
        "mean": merged.mean,
        "min": merged.minimum if merged.count else None,
        "max": merged.maximum if merged.count else None,
    }


def _instrumented_replay(genesis, txs):
    """Re-run attaches and walks on a telemetry-enabled tangle.

    Kept out of the timed regions: the timed runs use the null registry
    (the production default), this pass only exists to capture the
    flush-batch-size and walk-length distributions for the JSON report.
    """
    registry = MetricsRegistry()
    tangle = Tangle(genesis, telemetry=registry)
    for tx in txs:
        tangle.attach(tx, arrival_time=tx.timestamp)
    tangle.flush_weights()
    selector = WeightedRandomWalkSelector(alpha=0.05, start_depth=20)
    rng = random.Random(11)
    for _ in range(WALK_SAMPLES):
        selector.select(tangle, rng)
    return {
        "flush_batch_size": _histogram_dict(
            registry.get("repro_tangle_flush_batch_size")),
        "walk_length": _histogram_dict(
            registry.get("repro_tangle_walk_length")),
        "attach_total": registry.get("repro_tangle_attach_total").total,
    }


def _run():
    results = {"sizes": list(SIZES), "attach": {}, "walk": {},
               "differential_probes": 0}
    schedules = {n: _build_schedule(n) for n in SIZES}
    lazy_tangles = {}

    for n in SIZES:
        genesis, txs = schedules[n]
        lazy, lazy_s = _timed_attach(genesis, txs,
                                     DEFAULT_WEIGHT_FLUSH_INTERVAL)
        lazy_tangles[n] = lazy
        entry = {"lazy_tx_per_s": n / lazy_s, "lazy_seconds": lazy_s}
        if n in EAGER_SIZES:
            eager, eager_s = _timed_attach(genesis, txs, 1)
            entry.update(eager_tx_per_s=n / eager_s,
                         eager_seconds=eager_s,
                         speedup=eager_s / lazy_s)
            # Differential: the fast engine must agree with the old one.
            probes = [genesis.tx_hash] + [
                tx.tx_hash for tx in txs[:: max(1, n // 200)]
            ]
            for h in probes:
                assert lazy.weight(h) == eager.weight(h)
            results["differential_probes"] += len(probes)
        results["attach"][str(n)] = entry

        results["walk"][str(n)] = {
            "bounded_ms": _walk_latency(lazy, 20) * 1000,
            "genesis_entry_ms":
                _walk_latency(lazy, GENESIS_ENTRY_DEPTH) * 1000,
            "max_height": lazy.max_height,
        }

    genesis, txs = schedules[TELEMETRY_SIZE]
    results["telemetry"] = _instrumented_replay(genesis, txs)
    return results


def test_bench_ext9_tangle_scale(benchmark, report_writer):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    attach_rows = []
    for n in SIZES:
        a = results["attach"][str(n)]
        attach_rows.append((
            n,
            f"{a.get('eager_tx_per_s', float('nan')):,.0f}"
            if "eager_tx_per_s" in a else "-",
            f"{a['lazy_tx_per_s']:,.0f}",
            f"{a['speedup']:.1f}x" if "speedup" in a else "-",
        ))
    walk_rows = [
        (n,
         f"{results['walk'][str(n)]['genesis_entry_ms']:.2f}",
         f"{results['walk'][str(n)]['bounded_ms']:.3f}",
         results["walk"][str(n)]["max_height"])
        for n in SIZES
    ]
    report = "\n\n".join([
        format_table(attach_rows, headers=[
            "transactions", "eager tx/s", "lazy tx/s", "speedup"]),
        format_table(walk_rows, headers=[
            "transactions", "genesis-entry walk ms",
            "bounded walk ms", "max height"]),
    ])
    report_writer("ext9_tangle_scale", report)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_tangle_scale.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")

    # Acceptance: >=5x attach throughput at 10k over the eager path,
    # with the differential probes above proving identical weights.
    assert results["attach"]["10000"]["speedup"] >= 5.0
    assert results["differential_probes"] > 0
    # Bounded walks must not degrade with DAG size the way genesis
    # entry does.
    walk_10k = results["walk"]["10000"]
    assert walk_10k["bounded_ms"] < walk_10k["genesis_entry_ms"]
    # The instrumented replay captured real distributions.
    telem = results["telemetry"]
    assert telem["attach_total"] == TELEMETRY_SIZE
    assert telem["flush_batch_size"]["count"] > 0
    # Each select() walks twice: once per parent (branch and trunk).
    assert telem["walk_length"]["count"] == 2 * WALK_SAMPLES
