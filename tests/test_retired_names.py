"""Names of deleted code stay deleted: the metric event log, the SQLite
store, the unimported analysis helpers, the second Ed25519 lane with
the registry, worker pool and options that chose between the two, the
unchained node snapshot merged into ``EpochSnapshot``, the gossip
seen-set bookkeeping that tangle membership replaced, the ledger's
first-arrival transfer policy with its two errors, the per-read hook
that one ``deliver_run`` per read replaced, the Merkle inclusion proofs
nothing built or checked, and the options no caller set have no reader,
so nothing under ``src/`` may name them again."""

import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

RETIRED = ["sqlite3", "SQLiteStore", "record_events", "MetricEvent",
           "events_dropped", "TimeSeries", "ThroughputMeter",
           "tangle_to_dot",
           "CryptoPool", "CRYPTO_BACKENDS", "CryptoBackend", "pow_workers",
           "crypto_pool", "pow_pool", "ed25519_accel",
           "NodeSnapshot", "node_snapshot",
           "mark_seen_batch", "reset_seen", "seen_count",
           "duplicates_suppressed", "gossip_seen",
           "DoubleSpendError", "InsufficientFundsError",
           "double_spends_detected", "prepare_run",
           "read_chunk", "flush_timeout", "protect_group", "request_timeout",
           "verify_proof"]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_absent_from_src(name):
    hits = [str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if name in path.read_text(encoding="utf-8")]
    assert hits == []
