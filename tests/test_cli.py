"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main

NODE = ["node", "--address", "n0", "--genesis", "g.hex"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workflow_defaults(self):
        args = build_parser().parse_args(["workflow"])
        assert args.devices == 4
        assert args.gateways == 2

    def test_fig8_attack_times(self):
        args = build_parser().parse_args(["fig8", "--attacks", "24", "60"])
        assert args.attacks == [24.0, 60.0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        NODE + ["--storage-backend", "sqlite"],
        NODE + ["--storage-backend", "memory"],
        ["storage", "--backend", "file"],
        ["fleet", "--storage-backend", "file"],
    ], ids=["node-sqlite", "node-memory", "storage-backend",
            "fleet-storage-backend"])
    def test_retired_storage_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "backend" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["none", "file"])
    def test_node_storage_backends(self, backend):
        args = build_parser().parse_args(
            NODE + ["--storage-backend", backend])
        assert args.storage_backend == backend

    @pytest.mark.parametrize("argv", [
        ["telemetry", "--crypto-backend", "accel"],
        ["telemetry", "--pow-workers", "2"],
        ["fleet", "--processes", "2", "--crypto-backend", "accel"],
        NODE + ["--crypto-backend", "reference"],
    ], ids=["telemetry-crypto-backend", "telemetry-pow-workers",
            "fleet-crypto-backend", "node-reference"])
    def test_retired_crypto_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "--" in capsys.readouterr().err

    def test_node_still_accepts_crypto_backend_accel(self):
        args = build_parser().parse_args(NODE + ["--crypto-backend", "accel"])
        assert args.crypto_backend == "accel"


class TestCommands:
    def test_fig7(self, capsys):
        assert main(["fig7", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "difficulty" in out
        assert "paper" in out

    def test_fig8(self, capsys):
        assert main(["fig8", "--attacks", "24", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "CrN" in out
        assert "minimum credit" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "original-pow" in out
        assert "credit-2-attacks" in out

    def test_fig10(self, capsys):
        assert main(["fig10", "--max-exponent", "10"]) == 0
        out = capsys.readouterr().out
        assert "1024" in out

    def test_workflow(self, capsys):
        code = main([
            "workflow", "--devices", "2", "--gateways", "1",
            "--seconds", "20", "--difficulty", "6", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "step 5" in out
        assert "FAILED" not in out

    def test_summary(self, capsys):
        assert main([
            "summary", "--devices", "2", "--gateways", "1",
            "--seconds", "15", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "submissions_accepted" in out

    @pytest.mark.parametrize("command", ["workflow", "summary"])
    def test_same_seed_prints_the_same_bytes(self, capsys, command):
        """Sensitive-data devices encrypt with fresh AES IVs, which
        change every PoW challenge; under ``--seed`` they are seeded
        too, so two runs print the same report."""
        outputs = []
        for _ in range(2):
            assert main([command, "--devices", "8", "--seconds", "30",
                         "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
