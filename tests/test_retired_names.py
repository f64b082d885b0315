"""Names of deleted code stay deleted: the metric event log, the SQLite
store, the unimported analysis helpers, the second Ed25519 lane with
the registry, worker pool and options that chose between the two, the
unchained node snapshot merged into ``EpochSnapshot``, the gossip
seen-set bookkeeping that tangle membership replaced, the ledger's
first-arrival transfer policy with its two errors, the per-read hook
that one ``deliver_run`` per read replaced, the Merkle inclusion proofs
nothing built or checked, the AES inverse cipher with CBC and PKCS#7
(CTR only runs the cipher forward), the chain's difficulty retargeting,
the tangle's tip metadata and newest-tip-arrival heap, the linear
difficulty ablation, the tracer's open-explicit-span index, the chain's
fork and confirmation read-outs, the other read-outs only tests called,
and the options no caller set have no reader, so nothing under ``src/`` may name
them again.  The same holds for the transport surface no node called
(broadcast, address lists, delivery taps, the second scheduler entry
points, the simulator's second name) and the link-cut fault kind a
two-group partition already expresses.  A name that live code shares as
a substring (``broadcast``, ``cancel``) is retired as a qualified
function name instead: no ``def`` may define it again."""

import functools
import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

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
           "verify_proof",
           "decrypt_block", "cbc_encrypt", "pkcs7_pad", "_INV_SBOX",
           "RetargetingSchedule", "TipInfo", "newest_tip_arrival",
           "_tip_arrival_heap", "LinearDifficultyPolicy", "open_explicit",
           "cbc_decrypt", "pkcs7_unpad", "_invert_round_keys",
           "_build_dec_tables", "retarget_difficulty", "_ClampedPolicy",
           "tip_metadata", "transactions_by_issuer", "approved_fresh_tips",
           "is_on_main_chain", "orphaned_blocks", "confirmed_blocks",
           "mempool_depth", "known_nodes", "installed_groups",
           "mean_submit_latency", "successful_double_spends",
           "add_tap", "_taps", "is_transport", "SimTransport",
           "_addresses_cache", "bound_port", "LinkCut", "link_cut",
           "_schedule_cut", "summary_stats", "SummaryStats",
           "format_series", "credit_series", "positive_series",
           "negative_series", "from_tangle", "sha256_hex", "WallClock",
           "pow_energy_joules", "remove_peer", "key_distribution_complete",
           "FixedPairTipSelector", "notice_deposit", "leaf_count",
           "decode_frame"]

RETIRED_FUNCTIONS = [
    "Transport.broadcast", "Transport.addresses", "Network.broadcast",
    "Network.addresses", "AsyncioTransport.broadcast",
    "AsyncioTransport.addresses", "AsyncioTransport.node",
    "AsyncioTransport._tap", "AsyncioScheduler.schedule_at",
    "AsyncioScheduler.cancel", "AsyncioScheduler.__len__",
    "SchedulerLike.cancel", "NodeRunner.address", "PlanBuilder.cut",
    "FaultPlan.is_empty", "EnergyBreakdown.per_transaction",
    "AuthorizationList.from_genesis", "CreditBasedConsensus.credit",
    "_NodeHistory.transactions", "sha512", "BackoffPolicy.schedule",
    "ConvergenceReport.reference_hashes", "NodeProcess.pid",
    "LifecycleTracker.context_of",
    "LifecycleTracker.timeline_for", "NullLifecycle.context_of",
    "NullLifecycle.timeline_for", "Tracer.children"]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_absent_from_src(name):
    hits = [str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if name in path.read_text(encoding="utf-8")]
    assert hits == []


@functools.lru_cache(maxsize=None)
def _defined_qualnames():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO / "benchmarks" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return {key.split("::", 1)[1] for key in reach.defined_functions(REPO)}


@pytest.mark.parametrize("qualname", RETIRED_FUNCTIONS)
def test_retired_function_not_defined_in_src(qualname):
    assert qualname not in _defined_qualnames()
