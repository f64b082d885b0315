"""The crash/restart differential: a node restored from its durable
store must be byte-identical (tangle/ledger/ACL/credit hashes) to a
reference node that never crashed — for multiple seeds and randomized
kill points."""

import json

import pytest

from repro.harness.storage import run_differential

SEEDS = [7, 19]


class TestDifferentialGreen:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_restored_node_matches_reference(self, tmp_path, seed):
        result = run_differential(seed=seed, storage_dir=str(tmp_path))
        assert result["matched"], result
        assert not result["divergences"]
        # The acceptance criterion: >= 3 randomized kill points, each
        # restored to byte-identical state hashes.
        assert len(result["kills"]) >= 3
        for kill in result["kills"]:
            assert kill["matched"], kill
            assert kill["replayed"] >= 0
        final = result["final"]
        assert final["reference"] == final["restarted"] \
            == final["cold"]["hashes"]

    def test_pure_log_replay_without_checkpoints(self, tmp_path):
        """A kill before any checkpoint exists restores by replaying
        the full journal from genesis."""
        result = run_differential(seed=3, storage_dir=str(tmp_path),
                                  checkpoints=0)
        assert result["matched"], result
        assert result["epoch_hashes"] == []
        for kill in result["kills"]:
            assert kill["replayed"] > 0


class TestDeterminism:
    def test_same_seed_same_result_bytes(self, tmp_path):
        results = [
            run_differential(seed=7, storage_dir=str(tmp_path / str(i)),
                             steps=30, kills=2, checkpoints=2)
            for i in range(2)
        ]
        first, second = (json.dumps(r, sort_keys=True) for r in results)
        assert first == second

    def test_different_seeds_different_workloads(self, tmp_path):
        a = run_differential(seed=7, storage_dir=str(tmp_path / "a"),
                             steps=30, kills=2, checkpoints=2)
        b = run_differential(seed=8, storage_dir=str(tmp_path / "b"),
                             steps=30, kills=2, checkpoints=2)
        assert a["log"]["head"] != b["log"]["head"]


class TestArguments:
    def test_too_short_workload_refused(self, tmp_path):
        with pytest.raises(ValueError):
            run_differential(seed=7, storage_dir=str(tmp_path), steps=10)

    def test_zero_kills_refused(self, tmp_path):
        with pytest.raises(ValueError):
            run_differential(seed=7, storage_dir=str(tmp_path), kills=0)
