#!/usr/bin/env python3
"""Open-loop wire-path benchmark for ``repro node`` (see README.md).

Driver contract (BENCHMARK.json)::

    python3 benchmarks/e2e/bench.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints the metric table and, as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all six workloads — the three
BENCHMARK.json gates and the three it does not — and writes a result
file; ``--compare A.json B.json`` judges two result files against the
bounds fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC_DIR = os.path.join(REPO, "src")
OUT_DIR = os.path.join(HERE, "out")
MANIFEST = os.path.join(REPO, "BENCHMARK.json")

SMOKE_WINDOW_S = 1.0


def _import_harness():
    """The harness modules import ``repro``; a checkout without ``src/``
    cannot run the benchmark and must say so with a non-zero exit."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.exit(f"bench.py: no program to measure: {SRC_DIR}/repro "
                 f"is missing")
    for path in (SRC_DIR, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import e2e_probe
    import e2e_workloads
    return e2e_workloads, e2e_probe


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


# -- one run = a few fresh-process rounds of one workload -------------------

def run_workload(name: str, manifest: dict, *, seed: int, seconds: float,
                 trace: bool, rounds: Optional[int] = None) -> dict:
    workloads, probe_module = _import_harness()
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench.py: unknown workload {name!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    rounds = rounds or workload.rounds
    began = time.perf_counter()
    ctx = workloads.make_context(name, seed, seconds / rounds)
    generate_s = time.perf_counter() - began
    # The stream lives for the whole run: keep the collector from
    # re-walking it inside a measured window.
    gc.collect()
    gc.freeze()

    results = [workloads.run_round(workload.run(ctx))
               for _ in range(rounds)]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    probe: Dict[str, float] = {}
    if trace:
        probe = probe_module.run_probe(name, ctx)
        ratio = probe.get("probe.accounted_ratio", 1.0)
        if name == "submit_burst" and not 0.8 <= ratio <= 1.2:
            problems.append(f"probe.accounted_ratio {ratio:.2f} outside "
                            f"0.8-1.2: the layer table does not add up")
    correct = not problems
    if not correct:
        # A wrong output voids the run: every operation counts failed.
        failed = attempted
    e2e = workloads.end_to_end(results)
    layer_names = [m["name"] for m in manifest["per_layer"]]
    layers = workloads.per_layer(results, probe, generate_s, layer_names)
    gc.unfreeze()
    cpus = len(os.sched_getaffinity(0))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "params": ctx.params,
        "crypto_backend": probe_module.CRYPTO_BACKEND,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": problems,
        "oversubscribed": workload.nodes + 1 > cpus,
        "end_to_end": e2e,
        "per_layer": layers,
        "traced": trace,
    }


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def units(manifest: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in manifest["end_to_end"] + manifest["per_layer"]}


def print_run(run: dict, unit_of: Dict[str, str]) -> None:
    print(f"== {run['workload']}  seed={run['seed']} "
          f"seconds={run['seconds']} rounds={run['rounds']} "
          f"params={run['params']}")
    print(f"   correct={run['correct']} attempted={run['attempted']} "
          f"failed={run['failed']} fail_ratio={run['fail_ratio']:.6f}"
          + ("  OVERSUBSCRIBED" if run["oversubscribed"] else ""))
    for problem in run["problems"]:
        print(f"   PROBLEM: {problem}")
    groups = [("end_to_end", run["end_to_end"])]
    if run["traced"]:
        groups.append(("per_layer", run["per_layer"]))
    for title, metrics in groups:
        print(f"   -- {title}")
        for name, value in metrics.items():
            print(f"   {name:<46} {value:>14.4f} {unit_of.get(name, '')}")


def driver_line(run: dict, unit_of: Dict[str, str]) -> str:
    metrics = run["per_layer"] if run["traced"] else run["end_to_end"]
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    })


# -- result files and --compare ---------------------------------------------

def run_all(args, manifest: dict) -> int:
    unit_of = units(manifest)
    names = list(_import_harness()[0].WORKLOADS)
    runs = []
    for repeat in range(args.repeat):
        for name in names:
            run = run_workload(name, manifest, seed=args.seed + repeat,
                               seconds=args.seconds, trace=args.trace,
                               rounds=args.rounds)
            print_run(run, unit_of)
            runs.append(run)
    report = dict(environment(), seed=args.seed, seconds=args.seconds,
                  rounds=args.rounds, repeat=args.repeat, smoke=args.smoke,
                  runs=runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(OUT_DIR, f"e2e_seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def compare(path_a: str, path_b: str, manifest: dict) -> int:
    """One row per (workload, metric): medians, delta, bound, verdict."""
    def table(path):
        with open(path) as handle:
            report = json.load(handle)
        cells: Dict[tuple, List[float]] = {}
        failed: Dict[str, int] = {}
        for run in report["runs"]:
            failed[run["workload"]] = \
                failed.get(run["workload"], 0) + run["failed"]
            for name, value in run["end_to_end"].items():
                cells.setdefault((run["workload"], name), []).append(value)
        return cells, failed

    a, failed_a = table(path_a)
    b, failed_b = table(path_b)
    worst = 0
    print(f"{'workload':<16} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'delta':>8} {'bound':>6} {'spread':>7}  verdict")
    for metric in manifest["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in failed_a:
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / ma if ma else 0.0
            wide = max(spread(va), spread(vb))
            if sign * delta <= bound:
                verdict = "ok"
            elif wide > bound and not all(
                    sign * y > sign * x for x in va for y in vb):
                verdict = "unresolved"
            else:
                verdict = "regressed"
            worst = max(worst, {"ok": 0, "unresolved": 1,
                                "regressed": 2}[verdict])
            print(f"{workload:<16} {name:<20} {ma:>12.4f} {mb:>12.4f} "
                  f"{delta:>+8.3f} {bound:>6.2f} {wide:>7.3f}  {verdict}")
    for workload in failed_b:
        if failed_b[workload] > failed_a.get(workload, 0):
            print(f"{workload:<16} {'failed':<20} "
                  f"{failed_a.get(workload, 0):>12} {failed_b[workload]:>12}"
                  f"{'':>24}  regressed")
            worst = 2
    return 1 if worst == 2 else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with "
                        "the driver's JSON line (default: all six)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run, split over the "
                             "rounds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: also run the in-process layer probe and "
                             "report the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=None,
                        help="fresh-process rounds per run, medians are "
                             "taken over them (default: the workload's own)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload, on "
                             "seeds seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="one short round per workload, same code paths")
    parser.add_argument("--out", help="result file (all-workloads mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    manifest = load_manifest()
    if args.compare:
        return compare(args.compare[0], args.compare[1], manifest)
    if args.smoke:
        args.rounds = 1
        args.seconds = SMOKE_WINDOW_S
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    args.trace = bool(args.trace)
    if args.seconds <= 0 or (args.rounds is not None and args.rounds < 1):
        parser.error("--rounds and --seconds must be positive")

    if args.workload is None:
        return run_all(args, manifest)
    run = run_workload(args.workload, manifest, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       rounds=args.rounds)
    unit_of = units(manifest)
    print_run(run, unit_of)
    print(driver_line(run, unit_of))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
