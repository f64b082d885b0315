"""Tests for benchmarks/reach.py, the unreached-function ratchet: the
function census, the baseline format, the per-process probe hook and
the ``--check`` / ``--write`` decisions.  The full probe (every entry
point) runs in its own CI job; these tests run it on toy trees."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reach", REPO / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = "src/repro/m.py"


def write_tree(root, source):
    path = root / MODULE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


class TestDefinedFunctions:
    def test_qualnames_and_line_counts(self, tmp_path):
        write_tree(tmp_path, """\
            def top():
                return 1


            class Box:
                async def fetch(self):
                    def inner():
                        return 2
                    return inner()

            square = lambda x: x * x
            """)
        assert reach.defined_functions(tmp_path) == {
            f"{MODULE}::top": 2,
            f"{MODULE}::Box.fetch": 4,
            f"{MODULE}::Box.fetch.<locals>.inner": 2,
        }

    def test_decorators_count_and_shared_qualnames_sum(self, tmp_path):
        """A property's getter and setter share one qualname: the probe
        cannot tell them apart, so their lines are counted together."""
        write_tree(tmp_path, """\
            class Box:
                @property
                def size(self):
                    return 0

                @size.setter
                def size(self, value):
                    pass
            """)
        assert reach.defined_functions(tmp_path) == {f"{MODULE}::Box.size": 6}


class TestBaselineFormat:
    def test_read_skips_comments_and_keeps_reasons(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text(
            "# header: 2 functions, 7 lines.\n"
            "src/repro/m.py::a     3  # error/cleanup path\n"
            "src/repro/m.py::B.c   4\n"
            "\n")
        assert reach.read_baseline(path) == {
            "src/repro/m.py::a": (3, "error/cleanup path"),
            "src/repro/m.py::B.c": (4, ""),
        }

    def test_format_round_trips_through_read(self, tmp_path):
        unreached = {"src/repro/z.py::late": 5, "src/repro/a.py::early": 2}
        reasons = {"src/repro/z.py::late": "timing-dependent: a retry"}
        text = reach.format_baseline(unreached, reasons)
        assert "# 2 functions, 7 lines." in text.splitlines()
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert [line.split()[0] for line in body] == sorted(unreached)
        path = tmp_path / "baseline.txt"
        path.write_text(text)
        assert reach.read_baseline(path) == {
            "src/repro/a.py::early": (2, ""),
            "src/repro/z.py::late": (5, "timing-dependent: a retry"),
        }


def run_hooked(tmp_path, source):
    """Run ``repro.m.main()`` of a toy tree under the probe hook; return
    every record of every process."""
    package = tmp_path / "tree"
    write_tree(package, source)
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(reach.SITECUSTOMIZE)
    out = tmp_path / "probe"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(package / "src")])
    env["REPRO_REACH_PREFIX"] = f"{package}{os.sep}"
    env["REPRO_REACH_OUT"] = str(out)
    subprocess.run([sys.executable, "-c", "import repro.m; repro.m.main()"],
                   env=env, check=True, timeout=60)
    return [line for probe in out.glob("*.txt")
            for line in probe.read_text().split()]


class TestProbe:
    def test_reached_functions_unions_probe_files(self, tmp_path):
        (tmp_path / "101.txt").write_text("src/repro/m.py::a\nsrc/repro/m.py::b\n")
        (tmp_path / "102.txt").write_text("src/repro/m.py::b\nsrc/repro/m.py::C.d\n")
        (tmp_path / "notes.log").write_text("src/repro/m.py::ignored\n")
        assert reach.reached_functions(tmp_path) == {
            "src/repro/m.py::a", "src/repro/m.py::b", "src/repro/m.py::C.d"}

    def test_hook_records_each_entered_function_once(self, tmp_path):
        """The sitecustomize hook records the first entry of every code
        object under the prefix, from helper threads too, and nothing
        outside it."""
        records = run_hooked(tmp_path, """\
            import threading


            class Box:
                def method(self):
                    def inner():
                        return 1
                    return inner() + inner()


            def never():
                return 0


            def in_thread():
                return Box().method()


            def main():
                Box().method()
                worker = threading.Thread(target=in_thread)
                worker.start()
                worker.join()
            """)
        assert sorted(records) == sorted(set(records))
        assert set(records) == {
            f"{MODULE}::<module>",
            f"{MODULE}::Box",
            f"{MODULE}::Box.method",
            f"{MODULE}::Box.method.<locals>.inner",
            f"{MODULE}::in_thread",
            f"{MODULE}::main",
        }

    def test_hook_survives_a_process_closing_its_descriptors(self, tmp_path):
        """A forked verify worker closes every descriptor it did not open,
        the probe's file included: the hook opens a new one rather than
        raise into the traced code, which would end the worker."""
        records = run_hooked(tmp_path, """\
            import os


            def after_close():
                return 0


            def main():
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                        code = after_close()
                    finally:
                        os._exit(code)
                _, status = os.waitpid(pid, 0)
                assert os.waitstatus_to_exitcode(status) == 0
            """)
        assert f"{MODULE}::after_close" in records


class TestRatchet:
    """``main`` over a toy tree: ``a`` (2 lines) is reached, ``b`` (3)
    and ``c`` (2) are not."""

    @pytest.fixture()
    def toy(self, tmp_path, monkeypatch):
        write_tree(tmp_path, """\
            def a():
                return 1


            def b():
                x = 2
                return x


            def c():
                return 3
            """)
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "1.txt").write_text(f"{MODULE}::a\n")
        baseline = tmp_path / "baseline.txt"
        monkeypatch.setattr(reach, "REPO", tmp_path)
        monkeypatch.setattr(reach, "BASELINE", baseline)
        return baseline, ["--probe-dir", str(probe), "--no-run"]

    def test_check_passes_on_matching_baseline(self, toy, capsys):
        baseline, args = toy
        baseline.write_text(f"{MODULE}::b  3\n{MODULE}::c  2  # kept\n")
        assert reach.main([*args, "--check"]) == 0
        assert "2 of 3 functions (5 lines)" in capsys.readouterr().out

    def test_check_fails_on_unlisted_unreached_function(self, toy, capsys):
        baseline, args = toy
        baseline.write_text(f"{MODULE}::b  3\n")
        assert reach.main([*args, "--check"]) == 1
        assert f"UNREACHED, not in the baseline: {MODULE}::c" in (
            capsys.readouterr().out)

    def test_check_fails_when_unreached_lines_grow(self, toy, capsys):
        baseline, args = toy
        baseline.write_text(f"{MODULE}::b  2\n{MODULE}::c  2\n")
        assert reach.main([*args, "--check"]) == 1
        assert "unreached lines grew: 5 > baseline 4" in capsys.readouterr().out

    def test_check_fails_on_stale_entries(self, toy, capsys):
        """A reached or deleted function left in the baseline fails the
        check, so the list cannot rot."""
        baseline, args = toy
        baseline.write_text(
            f"{MODULE}::a  2  # candidate\n{MODULE}::b  3\n{MODULE}::c  2\n"
            f"{MODULE}::gone  4  # timing-dependent: deleted since\n")
        assert reach.main([*args, "--check"]) == 1
        out = capsys.readouterr().out
        assert f"delete from the baseline: {MODULE}::a" in out
        assert f"delete from the baseline: {MODULE}::gone" in out

    def test_check_keeps_reached_timing_dependent_entries(self, toy, capsys):
        baseline, args = toy
        baseline.write_text(
            f"{MODULE}::a  2  # timing-dependent: a gossip gap\n"
            f"{MODULE}::b  3\n{MODULE}::c  2\n")
        assert reach.main([*args, "--check"]) == 0
        assert "delete from the baseline" not in capsys.readouterr().out

    def test_write_keeps_reasons_and_timing_dependent_entries(self, toy):
        baseline, args = toy
        baseline.write_text(
            f"{MODULE}::a  2  # timing-dependent: a gossip gap\n"
            f"{MODULE}::b  3  # error/cleanup path\n"
            f"{MODULE}::gone  4  # candidate\n")
        assert reach.main([*args, "--write"]) == 0
        assert reach.read_baseline(baseline) == {
            f"{MODULE}::a": (2, "timing-dependent: a gossip gap"),
            f"{MODULE}::b": (3, "error/cleanup path"),
            f"{MODULE}::c": (2, ""),
        }

    def test_no_run_needs_a_probe_dir(self, toy):
        with pytest.raises(SystemExit) as exit_info:
            reach.main(["--no-run", "--check"])
        assert exit_info.value.code == 2


class TestCommittedBaseline:
    def test_probe_runs_every_bench(self):
        benches = sorted(path.relative_to(REPO).as_posix() for path in
                         (REPO / "benchmarks").glob("test_bench_*.py"))
        assert sorted(reach.BENCHES) == benches

    def test_probe_runs_every_chaos_scenario(self):
        from repro.faults.scenarios import SCENARIOS
        assert sorted(reach.CHAOS_SCENARIOS) == sorted(SCENARIOS)

    def test_entries_name_defined_functions(self):
        """Deleting an unreached function deletes its entry too."""
        defined = reach.defined_functions(REPO)
        baseline = reach.read_baseline(reach.BASELINE)
        assert [key for key in baseline if key not in defined] == []

    def test_header_totals_match_entries(self):
        baseline = reach.read_baseline(reach.BASELINE)
        total = sum(lines for lines, _ in baseline.values())
        assert f"# {len(baseline)} functions, {total} lines." in (
            reach.BASELINE.read_text().splitlines())
