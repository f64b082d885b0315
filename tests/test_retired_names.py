"""Names of deleted code stay deleted: the metric event log, the SQLite
store, the unimported analysis helpers, the second Ed25519 lane with
the registry, worker pool and options that chose between the two, and
the unchained node snapshot merged into ``EpochSnapshot`` have no
reader, so nothing under ``src/`` may name them again."""

import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

RETIRED = ["sqlite3", "SQLiteStore", "record_events", "MetricEvent",
           "events_dropped", "TimeSeries", "ThroughputMeter",
           "tangle_to_dot",
           "CryptoPool", "CRYPTO_BACKENDS", "CryptoBackend", "pow_workers",
           "crypto_pool", "pow_pool", "ed25519_accel",
           "NodeSnapshot", "node_snapshot"]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_absent_from_src(name):
    hits = [str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if name in path.read_text(encoding="utf-8")]
    assert hits == []
