"""The ``repro telemetry`` subcommand and its smoke scenario."""

import json

from repro.cli import build_parser, main
from repro.telemetry.scenario import run_smoke_scenario


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.scenario == "smoke"
        assert args.require_all is False

    def test_unknown_scenario_rejected(self):
        import pytest
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--scenario", "nope"])


class TestSmokeScenario:
    def test_every_registered_metric_fires(self):
        system = run_smoke_scenario(seconds=40.0)
        assert system.telemetry.unobserved() == []

    def test_all_five_subsystems_covered(self):
        system = run_smoke_scenario(seconds=40.0)
        names = {inst.name for inst in system.telemetry.instruments()}
        for prefix in ("repro_tangle_", "repro_pow_", "repro_network_",
                       "repro_keydist_", "repro_credit_"):
            assert any(n.startswith(prefix) for n in names), prefix


class TestCommand:
    def test_writes_artifacts_and_passes_require_all(self, tmp_path, capsys):
        out_dir = tmp_path / "telemetry"
        code = main(["telemetry", "--scenario", "smoke",
                     "--out-dir", str(out_dir), "--require-all"])
        assert code == 0

        out = capsys.readouterr().out
        assert "repro_pow_solves_total" in out

        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_tangle_attach_total counter" in prom
        assert "repro_pow_solve_seconds_bucket" in prom

        lines = (out_dir / "telemetry.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows and {r["type"] for r in rows} == {"span"}
        assert [r["t"] for r in rows] == sorted(r["t"] for r in rows)
