#!/usr/bin/env python
"""Reach probe: which functions under ``src/repro`` does no entry point enter?

Every line of the product should earn its place by being run from
somewhere a user or CI runs it.  This script runs every entry point
listed in :data:`ENTRY_POINTS` — the CLI commands CI runs, every
``examples/*.py``, the paper / extension / fleet-scale benches and the
wire-path bench's smoke mode — in a throwaway copy of the repository,
with a ``sitecustomize`` on ``PYTHONPATH`` that hooks ``sys.settrace``
(and ``threading.settrace``) in every Python process: node children
spawned by the fleet and by the e2e bench, forked verify workers and
helper threads included.  The hook returns ``None`` so no line is ever
traced; it only appends the qualified name of each code object it sees
start for the first time to a per-process file, and opens that file
anew when the process closed it (a forked verify worker closes every
descriptor it did not open).

A function is *reached* when a code object with its file and
``__qualname__`` was entered; it is *unreached* otherwise.  Lambdas and
comprehensions are not counted.  Two definitions sharing one qualname
(a property's getter and setter) count as reached together.

The benches run with ``--benchmark-disable``: pytest-benchmark pauses
``sys.settrace``/``sys.setprofile`` inside timed rounds, so a timed run
would report every bench-only function as unreached.

Usage::

    python benchmarks/reach.py                # run, print the unreached list
    python benchmarks/reach.py --check        # CI ratchet against the baseline
    python benchmarks/reach.py --write        # rewrite the baseline
    python benchmarks/reach.py --probe-dir D  # keep the per-process files in D
    python benchmarks/reach.py --probe-dir D --no-run --check   # reuse D

The baseline, ``benchmarks/baselines/reach_unreached.txt``, holds one
``path::qualname  lines`` entry per unreached function, each followed by
``# reason`` when it stays on purpose.  ``--check`` exits 1 when a
function is unreached but absent from the baseline, when the baseline's
total unreached lines would grow, or when a baseline entry is stale —
its function is now reached or deleted — so the list cannot rot.
Entries whose reason starts with ``timing-dependent`` are the one
exception: the multi-process fleet runs over real TCP, so whether a
gossip gap makes a node fetch a parent, or a convergence round needs a
retry, varies from run to run, and whether a node hands signatures to
verify workers depends on the host's cores and the size of each read;
``--check`` accepts them reached and
``--write`` keeps them while their function exists.  ``--write`` also
keeps the reasons of entries that stay.  Needs Python 3.11+
(``co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "baselines" / "reach_unreached.txt"
PACKAGE = pathlib.Path("src") / "repro"

#: Reason prefix of baseline entries whose reach depends on timing.
TIMING = "timing-dependent"

BENCHES = [
    "benchmarks/test_bench_fig7_pow_difficulty.py",
    "benchmarks/test_bench_fig8_credit_dynamics.py",
    "benchmarks/test_bench_fig9_pow_comparison.py",
    "benchmarks/test_bench_fig10_aes.py",
    "benchmarks/test_bench_ext1_dag_vs_chain.py",
    "benchmarks/test_bench_ext2_keydist.py",
    "benchmarks/test_bench_ext3_attack_mitigation.py",
    "benchmarks/test_bench_ext4_tip_selection.py",
    "benchmarks/test_bench_ext5_energy.py",
    "benchmarks/test_bench_ext6_confirmation_latency.py",
    "benchmarks/test_bench_ext7_batching.py",
    "benchmarks/test_bench_ext8_parasite.py",
    "benchmarks/test_bench_ext9_tangle_scale.py",
    "benchmarks/test_bench_ext10_hotpath.py",
    "benchmarks/test_bench_fleet_scale.py",
]

CHAOS_SCENARIOS = ["churn", "churn-durable", "lossy-burst", "partition-heal",
                   "skewed-clock", "smoke"]

#: (label, argv after the interpreter, extra environment).  Paths are
#: relative to the repository copy the probe runs in.
ENTRY_POINTS: List[Tuple[str, List[str], Dict[str, str]]] = [
    ("workflow", ["-m", "repro", "workflow", "--seed", "7"], {}),
    ("summary", ["-m", "repro", "summary"], {}),
    ("report", ["-m", "repro", "report"], {}),
    *[(f"chaos {name}",
       ["-m", "repro", "chaos", "--scenario", name, "--seed", "7"], {})
      for name in CHAOS_SCENARIOS],
    ("storage", ["-m", "repro", "storage", "--seed", "7"], {}),
    ("trace", ["-m", "repro", "trace", "--scenario", "smoke", "--seed", "7",
               "--out-dir", "reach-out/trace"], {}),
    ("telemetry", ["-m", "repro", "telemetry", "--scenario", "smoke",
                   "--out-dir", "reach-out/telemetry", "--require-all"], {}),
    ("fleet", ["-m", "repro", "fleet", "--scenario", "smoke", "--seed", "7",
               "--out-dir", "reach-out/fleet"], {}),
    ("fleet --processes 3",
     ["-m", "repro", "fleet", "--processes", "3", "--scenario", "smoke",
      "--seed", "7", "--out-dir", "reach-out/fleet-proc"], {}),
    *[(name, ["-m", "repro", name], {})
      for name in ("fig7", "fig8", "fig9", "fig10")],
    *[(f"examples/{example.name}", [f"examples/{example.name}"], {})
      for example in sorted((REPO / "examples").glob("*.py"))],
    ("benches", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable", *BENCHES],
     {"HOTPATH_BENCH_SMOKE": "1", "FLEET_BENCH_SMOKE": "1"}),
    ("e2e bench --smoke", ["benchmarks/e2e/bench.py", "--smoke"], {}),
]

SITECUSTOMIZE = '''\
import os, sys, threading

_PREFIX = os.environ["REPRO_REACH_PREFIX"]
_OUT = os.environ["REPRO_REACH_OUT"]
_seen = {}  # id -> code: holding the code keeps its id from being reused
_sink = [None, None, None]  # pid, descriptor, (device, inode)


def _identity(fd):
    try:
        stat = os.fstat(fd)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _record(code):
    line = f"{code.co_filename[len(_PREFIX):]}::{code.co_qualname}\\n"
    pid = os.getpid()
    # Reopen on the first record, in a forked child, and when the process
    # closed the descriptor (a verify worker closes every one it did not
    # open).  Writing to a closed descriptor would raise inside the hook
    # and kill the traced code; writing to a reused one would corrupt it.
    if _sink[0] != pid or _identity(_sink[1]) != _sink[2]:
        fd = os.open(os.path.join(_OUT, f"{pid}.txt"),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        _sink[:] = [pid, fd, _identity(fd)]
    os.write(_sink[1], line.encode())


def _hook(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code
        if code.co_filename.startswith(_PREFIX):
            _record(code)
    return None


sys.settrace(_hook)
threading.settrace(_hook)
'''


def defined_functions(root: pathlib.Path) -> Dict[str, int]:
    """``path::qualname`` -> source lines (decorators included) for every
    ``def`` under ``root / src/repro``."""
    found: Dict[str, int] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                key = f"{path}::{prefix}{child.name}"
                found[key] = found.get(key, 0) + child.end_lineno - first + 1
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for source in sorted((root / PACKAGE).rglob("*.py")):
        path = source.relative_to(root).as_posix()
        visit(ast.parse(source.read_text(), path), path, "")
    return found


def run_entry_points(probe_dir: pathlib.Path) -> List[str]:
    """Run every entry point in a copy of the repository; return the
    labels of those that exited non-zero."""
    work = pathlib.Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        copy = work / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        hook_dir = work / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(copy / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REPRO_REACH_PREFIX"] = f"{copy}{os.sep}"
        env["REPRO_REACH_OUT"] = str(probe_dir.resolve())
        failed = []
        for label, argv, extra in ENTRY_POINTS:
            started = time.monotonic()
            done = subprocess.run([sys.executable, *argv], cwd=copy,
                                  env={**env, **extra},
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            status = "ok" if done.returncode == 0 else f"EXIT {done.returncode}"
            print(f"  {label:<34} {status:<8} {time.monotonic() - started:6.1f} s",
                  flush=True)
            if done.returncode != 0:
                failed.append(label)
                print(done.stdout[-3000:], file=sys.stderr)
        return failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reached_functions(probe_dir: pathlib.Path) -> Set[str]:
    reached: Set[str] = set()
    for probe in probe_dir.glob("*.txt"):
        reached.update(probe.read_text().split())
    return reached


def read_baseline(path: pathlib.Path) -> Dict[str, Tuple[int, str]]:
    """``path::qualname`` -> (lines, reason) from a baseline file."""
    entries: Dict[str, Tuple[int, str]] = {}
    for raw in path.read_text().splitlines():
        line, _, reason = raw.partition("#")
        fields = line.split()
        if len(fields) == 2:
            entries[fields[0]] = (int(fields[1]), reason.strip())
    return entries


def format_baseline(unreached: Dict[str, int],
                    reasons: Dict[str, str]) -> str:
    total = sum(unreached.values())
    header = [
        "# Functions under src/repro that no entry point of benchmarks/reach.py",
        "# enters: `path::qualname  lines  # why it stays`.  CI fails when a",
        "# function is missing here but unreached; delete entries as they go.",
        f"# {len(unreached)} functions, {total} lines.",
    ]
    body = []
    width = max((len(key) for key in unreached), default=0)
    for key in sorted(unreached):
        line = f"{key:<{width}}  {unreached[key]:>4}"
        if reasons.get(key):
            line += f"  # {reasons[key]}"
        body.append(line)
    return "\n".join(header + body) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="fail if the unreached set differs from the "
                           "baseline (timing-dependent entries aside) or "
                           "its lines grew")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the baseline from this run")
    parser.add_argument("--probe-dir", type=pathlib.Path,
                        help="keep the per-process probe files here")
    parser.add_argument("--no-run", action="store_true",
                        help="read an existing --probe-dir instead of running")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        parser.error("needs Python 3.11+ (code objects carry co_qualname)")
    if args.no_run and args.probe_dir is None:
        parser.error("--no-run needs --probe-dir")

    scratch = None
    probe_dir = args.probe_dir
    if probe_dir is None:
        scratch = tempfile.mkdtemp(prefix="reach-probe-")
        probe_dir = pathlib.Path(scratch)
    try:
        if not args.no_run:
            probe_dir.mkdir(parents=True, exist_ok=True)
            failed = run_entry_points(probe_dir)
            if failed:
                print(f"entry points failed: {', '.join(failed)}; "
                      "their reach may be incomplete", file=sys.stderr)
                if args.write:
                    return 2
        reached = reached_functions(probe_dir)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    defined = defined_functions(REPO)
    unreached = {key: lines for key, lines in defined.items()
                 if key not in reached}
    total = sum(unreached.values())
    print(f"{len(unreached)} of {len(defined)} functions ({total} lines) "
          "are never entered")

    baseline = read_baseline(BASELINE) if BASELINE.exists() else {}
    # A path that only some runs take (a gossip gap, a convergence retry)
    # keeps its entry while it exists, or CI would flap.
    kept = {key: defined[key] for key, (_, reason) in baseline.items()
            if reason.startswith(TIMING) and key in defined}
    if args.write:
        BASELINE.write_text(format_baseline(
            {**kept, **unreached},
            {key: reason for key, (_, reason) in baseline.items()}))
        print(f"wrote {BASELINE.relative_to(REPO)}")
        return 0
    if not args.check:
        for key in sorted(unreached):
            print(f"  {key}  {unreached[key]}")
        return 0

    new = sorted(key for key in unreached if key not in baseline)
    stale = sorted(key for key in baseline
                   if key not in unreached and key not in kept)
    baseline_lines = sum(lines for lines, _ in baseline.values())
    for key in stale:
        print(f"  now reached or gone, delete from the baseline: {key}")
    for key in new:
        print(f"  UNREACHED, not in the baseline: {key}  {unreached[key]}")
    if total > baseline_lines:
        print(f"  unreached lines grew: {total} > baseline {baseline_lines}")
    return 1 if new or stale or total > baseline_lines else 0


if __name__ == "__main__":
    sys.exit(main())
