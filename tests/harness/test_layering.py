"""One-way dependencies: product ← ``repro.harness`` ← cli/tests/benches.

An AST walk over ``src/repro`` rather than an import-time check, so a
lazy (function-level) import cannot slip through.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"


def _imports(path):
    """Yield ``(module, names, lazy)`` for every import in *path*, with
    relative imports resolved to absolute ``repro.…`` module names."""
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    tree = ast.parse(path.read_text())
    toplevel = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, [], id(node) not in toplevel
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")
                base = base[:len(base) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            yield (module, [alias.name for alias in node.names],
                   id(node) not in toplevel)


def _modules():
    return sorted(PACKAGE.rglob("*.py"))


def test_product_code_never_imports_the_harness():
    offenders = []
    for path in _modules():
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "harness":
            continue
        for module, names, lazy in _imports(path):
            hit = (module == "repro.harness"
                   or module.startswith("repro.harness.")
                   or (module == "repro" and "harness" in names))
            # The CLI may reach the harness, but only from inside a
            # subcommand, so `repro node` never loads it.
            if hit and not (relative.parts == ("cli.py",) and lazy):
                offenders.append(f"{relative}: {module}")
    assert not offenders, offenders


# The accel Ed25519 lane is a second implementation of the *same*
# module, pinned byte-identical to it; it shares the reference's curve
# constants and point primitives instead of re-deriving them.
PRIVATE_IMPORT_EXCEPTIONS = {
    ("crypto/accel/ed25519_accel.py", "repro.crypto.ed25519"),
}


def test_no_module_imports_another_modules_private_names():
    offenders = [
        f"{path.relative_to(PACKAGE)}: from {module} import {name}"
        for path in _modules()
        for module, names, _ in _imports(path)
        for name in names
        if name.startswith("_") and not name.startswith("__")
        and (path.relative_to(PACKAGE).as_posix(), module)
        not in PRIVATE_IMPORT_EXCEPTIONS
    ]
    assert not offenders, offenders


def test_importing_the_node_entrypoint_does_not_load_the_harness():
    probe = ("import sys, repro.network.proc, repro.cli; "
             "print([m for m in sys.modules if m.startswith("
             "'repro.harness')])")
    done = subprocess.run([sys.executable, "-c", probe], cwd=str(SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# One synchronous driver for both transports: what differs between them
# is how time is let pass, and that lives behind ``scheduler.run_for``.
# These two keep the async twin of ``BIoTSystem`` and the private copy
# of workflow steps 1-3 from growing back.

def test_core_has_no_coroutines():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path in sorted((PACKAGE / "core").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.AsyncFunctionDef)
    ]
    assert not offenders, offenders


def test_workflow_lets_time_pass_only_through_the_system():
    def tail(node):
        return getattr(node, "attr", getattr(node, "id", None))

    tree = ast.parse((PACKAGE / "core" / "workflow.py").read_text())
    offenders = [
        f"line {node.lineno}: scheduler.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("run")
        and tail(node.value) == "scheduler"
    ]
    assert not offenders, offenders
