#!/usr/bin/env python
"""Pinned artefacts: the deterministic outputs of the CLI, hashed in the repo.

Every command in :data:`COMMANDS` is seeded and runs under
``rand.deterministic``, so the same source prints the same bytes: the
Fig. 6 workflow, the crash/restart differential, the causal trace, the
six chaos scenarios (and ``lossy-burst`` once more at seed 2, the run
that enters the parent-fetch retry loop) and the two fleet
differentials (in-process TCP and three ``repro node`` processes),
each at the seeds CI runs.  This
script runs them against this checkout's ``src`` in a throwaway
directory and compares the SHA-256 of each file they write with the
manifest, so a change that moves one says so, and says which.

Usage::

    python benchmarks/artefacts.py --check    # CI: exit 1 if a file moved
    python benchmarks/artefacts.py --write    # re-pin, printing before/after
    python benchmarks/artefacts.py --keep D   # also leave the files in D

The manifest, ``benchmarks/baselines/artefacts.sha256``, holds one
``sha256  path  # command`` line per file, sorted by path, then a
``# excluded:`` line per file that carries wall-clock fields (never
hashed), and last a ``# manifest sha256:`` line over every line above
it, so a hand edit of one hash without the others is caught too.
``--check`` exits 1 when a pinned file moved, went missing or appeared
unpinned, or when the manifest's own hash does not match.  The bytes
were pinned with one Python version (the manifest's header names it):
float formatting and hash-seed-free iteration orders are the same on
3.10–3.12 as far as is known, but that is not checked here.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = REPO / "benchmarks" / "baselines" / "artefacts.sha256"

CHAOS_SCENARIOS = ["churn", "churn-durable", "lossy-burst", "partition-heal",
                   "skewed-clock", "smoke"]

#: (argv after ``python -m repro``, file its stdout goes to or None).
#: Paths are relative to the output directory the commands run in.
COMMANDS: List[Tuple[List[str], Optional[str]]] = [
    (["workflow", "--seed", "7"], "workflow-seed7.txt"),
    *[(["storage", "--seed", seed, "--out", f"storage-seed{seed}.json"],
       f"storage-seed{seed}.txt") for seed in ("7", "19")],
    (["trace", "--scenario", "smoke", "--seed", "7",
      "--out-dir", "trace-seed7"], None),
    *[(["chaos", "--scenario", name, "--seed", "7",
        "--out", f"chaos-{name}-seed7.json"], None)
      for name in CHAOS_SCENARIOS],
    # The one seed whose chaos run enters the parent-fetch retry loop.
    (["chaos", "--scenario", "lossy-burst", "--seed", "2",
      "--out", "chaos-lossy-burst-seed2.json"], None),
    *[(["fleet", "--scenario", "smoke", "--seed", seed,
        "--out-dir", f"fleet-seed{seed}"], None) for seed in ("7", "19")],
    *[(["fleet", "--processes", "3", "--scenario", "smoke", "--seed", seed,
        "--out-dir", f"fleet-proc-seed{seed}"], None)
      for seed in ("7", "19")],
]

#: Files the commands write that carry wall-clock fields: listed, never
#: hashed.  Their deterministic part is pinned through a sibling.
EXCLUDED: Dict[str, str] = {
    **{f"fleet-seed{seed}/report-wire.json":
       "wall-clock durations of the TCP leg; hashes-wire.json is pinned"
       for seed in ("7", "19")},
    **{f"fleet-proc-seed{seed}/fleet-proc.json":
       "spawn and restart wall-clock times; hashes-proc.json is pinned"
       for seed in ("7", "19")},
}


def describe(argv: List[str], stdout: Optional[str]) -> str:
    command = " ".join(["repro", *argv])
    return f"{command} > {stdout}" if stdout else command


def produce(out: pathlib.Path) -> Tuple[Dict[str, str], Dict[str, str],
                                         List[str]]:
    """Run every command in *out*; return path -> sha256 of each file
    written (the excluded ones left out), path -> the command that
    wrote it, and the commands that exited non-zero."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    origin: Dict[str, str] = {}
    failed: List[str] = []
    for argv, stdout in COMMANDS:
        command = describe(argv, stdout)
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=out, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        if stdout is not None:
            (out / stdout).write_bytes(done.stdout)
        status = "ok" if done.returncode == 0 else f"EXIT {done.returncode}"
        print(f"  {command:<72} {status:<8} "
              f"{time.monotonic() - started:5.1f} s", flush=True)
        if done.returncode != 0:
            failed.append(command)
            print(done.stderr.decode(errors="replace")[-3000:],
                  file=sys.stderr)
        for path in sorted(out.rglob("*")):
            name = path.relative_to(out).as_posix()
            if path.is_file() and name not in origin:
                origin[name] = command
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in origin if name not in EXCLUDED}
    return hashes, origin, failed


def format_manifest(hashes: Dict[str, str], origin: Dict[str, str]) -> str:
    lines = [
        "# Pinned artefacts of benchmarks/artefacts.py: `sha256  path  "
        "# command`,",
        "# sorted by path; re-pin with --write and say why in CHANGES.md.",
        f"# Written with Python {sys.version_info.major}."
        f"{sys.version_info.minor}.",
    ]
    width = max(len(name) for name in hashes)
    lines += [f"{hashes[name]}  {name:<{width}}  # {origin[name]}"
              for name in sorted(hashes)]
    lines += [f"# excluded: {name}  ({EXCLUDED[name]})"
              for name in sorted(EXCLUDED)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return "\n".join(lines + [f"# manifest sha256: {digest}"]) + "\n"


def read_manifest(text: str) -> Tuple[Dict[str, str], bool]:
    """path -> sha256 from a manifest, and whether its own hash holds."""
    lines = text.splitlines()
    sealed = bool(lines) and lines[-1].startswith("# manifest sha256: ")
    intact = sealed and lines[-1].split()[-1] == hashlib.sha256(
        "\n".join(lines[:-1]).encode()).hexdigest()
    hashes: Dict[str, str] = {}
    for line in lines:
        fields = line.partition("#")[0].split()
        if len(fields) == 2:
            hashes[fields[1]] = fields[0]
    return hashes, intact


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="fail if a pinned artefact moved, went missing "
                           "or appeared unpinned")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the manifest from this run")
    parser.add_argument("--keep", type=pathlib.Path,
                        help="copy the produced files to this directory")
    args = parser.parse_args(argv)

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="artefacts-"))
    try:
        started = time.monotonic()
        hashes, origin, failed = produce(scratch)
        print(f"{len(hashes)} files hashed, {len(EXCLUDED)} excluded, in "
              f"{time.monotonic() - started:.1f} s")
        if args.keep is not None:
            shutil.copytree(scratch, args.keep, dirs_exist_ok=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if failed:
        print(f"commands failed: {'; '.join(failed)}", file=sys.stderr)
        if args.write:
            return 2

    pinned, intact = read_manifest(MANIFEST.read_text()) \
        if MANIFEST.exists() else ({}, False)
    moved = sorted(name for name in hashes
                   if name in pinned and pinned[name] != hashes[name])
    new = sorted(name for name in hashes if name not in pinned)
    gone = sorted(name for name in pinned if name not in hashes)
    if args.write:
        for name in moved:
            print(f"  moved {name}: {pinned[name][:16]} -> "
                  f"{hashes[name][:16]}  # {origin[name]}")
        for name in new:
            print(f"  new   {name}: {hashes[name][:16]}")
        for name in gone:
            print(f"  gone  {name}: {pinned[name][:16]}")
        MANIFEST.write_text(format_manifest(hashes, origin))
        print(f"wrote {MANIFEST.relative_to(REPO)}")
        return 0
    for name in moved:
        print(f"  MOVED {name}  # {origin[name]}")
    for name in new:
        print(f"  UNPINNED {name}  # {origin[name]}")
    for name in gone:
        print(f"  MISSING {name}")
    if MANIFEST.exists() and not intact:
        print("  the manifest's own hash does not match its lines")
    if not args.check:
        return 0
    return 1 if failed or moved or new or gone or not intact else 0


if __name__ == "__main__":
    sys.exit(main())
