"""Smoke and freeze tests for the wire-path benchmark.

Collected by ``pytest benchmarks``; tier-1 (``testpaths = ["tests"]``)
does not run them.
"""

import ast
import importlib.util
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
REPO = HERE.parent.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())

FORBIDDEN_MODULES = (
    "repro.network.fleet_proc",
    "repro.network.differential",
    "repro.storage.differential",
)


def load_bench():
    spec = importlib.util.spec_from_file_location("e2e_bench",
                                                  HERE / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_runs_all_six_workloads_and_their_checks(tmp_path):
    """``--smoke --trace 1``: every workload, its output checks and the
    layer probe, on a stream a tenth the size."""
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--trace", "1",
         "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    for key in ("seed", "cpus", "python", "platform", "git_commit"):
        assert key in report
    runs = {run["workload"]: run for run in report["runs"]}
    assert len(runs) == 6
    assert {w["name"] for w in MANIFEST["workloads"]} <= set(runs)
    for name, run in runs.items():
        assert run["correct"], (name, run["problems"])
        assert run["failed"] == 0 and run["attempted"] > 0, name
        assert isinstance(run["oversubscribed"], bool)
        assert run["crypto_backend"] == "accel" and run["params"]
        assert set(run["end_to_end"]) == \
            {m["name"] for m in MANIFEST["end_to_end"]}
        assert all(value > 0 for value in run["end_to_end"].values()), \
            (name, run["end_to_end"])
        assert set(run["per_layer"]) == \
            {m["name"] for m in MANIFEST["per_layer"]}
    # Count check and controls: duplicates never reach crypto; only the
    # durable workloads journal.
    assert runs["dup_flood"]["per_layer"]["crypto.accel.verify_us"] == 0
    assert runs["submit_burst"]["per_layer"]["crypto.accel.verify_us"] > 0
    assert runs["submit_paced"]["per_layer"]["storage.store.appends_per_tx"] \
        == 0
    assert runs["fleet2_durable"]["per_layer"][
        "storage.store.appends_per_tx"] == 2
    assert (HERE / "out" / "trace_submit_burst.json").exists()


def test_every_manifest_layer_metric_has_a_source():
    """A per-layer name in BENCHMARK.json that nothing computes would
    read 0 for ever."""
    source = "".join(path.read_text() for path in HERE.glob("*.py")
                     if path.name != pathlib.Path(__file__).name)
    assert 'f"proc.{address}.cpu_ms_per_op"' in source
    missing = [m["name"] for m in MANIFEST["per_layer"]
               if f'"{m["name"]}"' not in source
               and not m["name"].startswith("proc.")]
    assert not missing, missing


def test_benchmark_imports_only_public_frozen_names():
    """Later PRs may not edit this directory, so it must not lean on
    private names or on the harness modules ROADMAP item 2 will move."""
    problems = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = []
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            else:
                continue
            for module in modules:
                if not module.startswith("repro"):
                    continue
                if module.startswith(FORBIDDEN_MODULES):
                    problems.append(f"{path.name}: imports {module}")
                private = [part for part in module.split(".") + names
                           if part.startswith("_")]
                if private:
                    problems.append(
                        f"{path.name}: private name(s) {private} "
                        f"from {module}")
    assert not problems, problems


def test_benchmark_touches_no_private_attribute_of_the_program():
    """``node._ingest``-style reaches are as fragile as private imports;
    the harness's own underscore names are its own business."""
    own = set()
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(HERE.glob("*.py"))}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store) and node.attr.startswith("_"):
                own.add(node.attr)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_"):
                own.add(node.name)
    foreign = sorted({
        f"{name}: .{node.attr}"
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__") and node.attr not in own})
    assert not foreign, foreign


def _report(values_by_cell, failed=0):
    runs = []
    for (workload, metric), values in values_by_cell.items():
        for value in values:
            runs.append({"workload": workload, "failed": failed,
                         "end_to_end": {metric: value}})
    return {"runs": runs}


def test_compare_verdicts(tmp_path, capsys):
    bench = load_bench()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_report({
        ("submit_burst", "ops_per_s"): [100, 101, 99, 100, 100],
        ("submit_paced", "op_p50_ms"): [4.0, 4.1, 3.9, 4.0, 4.0],
        ("tips_mixed", "op_p50_ms"): [5.0, 9.0, 5.5, 8.0, 5.2],
    })))
    b.write_text(json.dumps(_report({
        ("submit_burst", "ops_per_s"): [70, 71, 69, 70, 70],
        ("submit_paced", "op_p50_ms"): [4.1, 4.0, 4.0, 4.1, 3.9],
        ("tips_mixed", "op_p50_ms"): [6.0, 9.5, 8.9, 9.0, 5.1],
    })))
    code = bench.compare(str(a), str(b), MANIFEST)
    rows = {(line.split()[0], line.split()[1]): line.split()[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows[("submit_burst", "ops_per_s")] == "regressed"
    assert rows[("submit_paced", "op_p50_ms")] == "ok"
    assert rows[("tips_mixed", "op_p50_ms")] == "unresolved"
    assert code == 1
    assert bench.compare(str(a), str(a), MANIFEST) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark,
    the command must fail instead of printing a result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (REPO / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "submit_paced", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
