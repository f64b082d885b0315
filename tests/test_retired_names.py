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
two-group partition already expresses, and the pinning of verify
workers off the node's CPU that the kernel's own balancing replaced
once the node stopped checking a shard itself, and the tangle's
depth-from-tips cache, its exact-on-demand weight fork and the attach
result's tip count, which only tests read, and the chaos, fleet and
parasite options no caller set (now constants), and the full node's
second fold, per-run decode memo and three more copies of the batch
hand-off that one ingress lane and one sync service replaced (with the
synchronous ``verify_workers.verify_batch`` only they called, and the
node methods the lane and the sync service now define), the node's
snapshot pass-through and the solidification buffer's two read-outs
only a test called, and the three hand-written retry loops that one
``RetryLoop`` replaced: the manager's five handshake maps and three
loop methods, the sync service's parent-request map and ``_arm``, the
full node's retry instruments and the distributor's completed-session
read-out, and the lane's blocking ``_drain``, the decoder's
``_Y_MASK`` and the transport's ever-running writer tasks that the
non-blocking delivery, the folded field kernel and the one-queue
coalesced writes replaced, and the lane's second, loop-blocking entry
for sync and parent responses (``ingest_batch``, with the sync
service's parent-response handler) that the one per-read pass
replaced.  A name that live code shares as a substring (``broadcast``,
``cancel``, ``_keydist_m3``, ``parent_requests``) is retired as a
qualified function name or with its receiver instead: no ``def`` may
define it again, and no ``self.`` or ``sync.`` may read it."""

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
           "decode_frame", "_place_workers", "_placed_around",
           "spare_cores", "track_cumulative_weight", "new_tip_count",
           "repro_tangle_depth_cache_hits_total",
           "repro_tangle_depth_cache_misses_total", "max_sync_rounds",
           "sync_round_seconds", "drain_timeout", "honest_before",
           "_run_decoded", "_carried_transaction", "_preverify",
           "_unverified", "verify_workers.verify_batch",
           "_worth_preverifying", "_schedule_parent_fetch",
           "_arm_parent_fetch", "_settle_parent_fetch", "_parent_fetch_peer",
           "_release_solid_children", "_ingest_batch",
           "_PARENT_RESPONSE_BUDGET", "export_snapshot",
           "missing_dependencies", "waiter_count",
           "_keydist_sessions", "_keydist_started", "_keydist_meta",
           "_keydist_active", "self._keydist_m3", "_start_keydist_attempt",
           "_keydist_m1_expired", "_arm_keydist_m3", "sync.parent_requests",
           "self.parent_requests", "is_completed", "session.completed",
           "_m_retry_", "_Y_MASK", "ingest_batch"]

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
    "NullLifecycle.timeline_for", "Tracer.children",
    "Tangle.depth_from_tips", "Tangle.retired_tips",
    "Tangle._rebuild_depth_map", "SyncService._arm", "IngressLane._drain",
    "SyncService.handle_parent_response",
    "AsyncioTransport._outbox", "AsyncioTransport._ensure_writer",
    *[f"FullNode.{name}" for name in (
        "_ingest", "_decode", "_count", "_flood", "_signed", "_settle",
        "_drain", "_deliver_pending", "_handle_submit", "_handle_gossip",
        "_handle_sync_request", "_handle_sync_response",
        "_handle_parent_request", "_handle_parent_response",
        "_parent_response_chain", "deliver_run", "finish_runs",
        "ingest_local", "replay_attach", "request_sync",
        "resync_with_peers")]]


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
