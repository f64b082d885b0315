"""In-process layer probe (``--trace 1``): where a frame's time goes.

The wire run measures the node from outside; this replays the same
frames inside the benchmark process against three full nodes built like
a ``repro node`` process:

* the *root* is timed around ``FrameDecoder.feed`` + ``handle_message``
  with a capturing transport that frames every reply — one root span
  per frame, named after the handler it lands in;
* the *shadow* is advanced in lock-step through each layer's public
  call, in ``_ingest`` order, with one child span per call;
* the *plain* node replays the frames with no spans at all, which
  prices the tracing itself (``probe.overhead_ratio``).

``probe.accounted_ratio`` is child time over root time: the share of a
handler the layer table explains.  Spans stay in memory and are written
to ``out/trace_<workload>.json`` with the per-layer table at the end.
Stage timers inside ``src/`` are a later change; nothing here touches a
private name.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.crypto.accel import get_backend
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.transport import Message
from repro.storage.persistence import NodePersistence
from repro.storage.store import open_store
from repro.tangle.transaction import Transaction, TransactionKind
from repro.tangle.validation import VerificationCache
from repro.telemetry.registry import MetricsRegistry

from e2e_stream import CRYPTO_BACKEND, new_full_node
from e2e_wire import OUT_DIR, Conn, encode
from e2e_workloads import (
    DUP_PEERS,
    MIXED_SUBMIT_TPS,
    MIXED_TIPS_RPS,
    WORKLOADS,
    Context,
    round_robin,
    submit_frame,
    tips_frame,
)

BATCH_SIZE = 64
BATCHES = 4

ROOT_SPANS = {
    "submit_transaction": "nodes.full_node.handle_submit",
    "gossip_transaction": "nodes.full_node.handle_gossip_dup",
    "get_tips_request": "nodes.full_node.handle_get_tips",
}

# span name -> per-layer metric it feeds (mean µs per call)
SPAN_METRICS = {
    "network.frame.decode": "network.frame.decode_us",
    "network.frame.encode": "network.frame.encode_us",
    "network.gossip.seen": "network.gossip.seen_us",
    "tangle.transaction.decode": "tangle.transaction.decode_us",
    "tangle.transaction.encode": "tangle.transaction.encode_us",
    "crypto.accel.verify": "crypto.accel.verify_us",
    "pow.verify": "pow.verify_us",
    "core.acl.admit": "core.acl.admit_us",
    "core.consensus.admit": "core.consensus.admit_us",
    "core.consensus.observe": "core.consensus.observe_us",
    "core.credit.required_difficulty": "core.credit.required_difficulty_us",
    "tangle.tangle.attach": "tangle.tangle.attach_us",
    "tangle.tip_selection.select": "tangle.tip_selection.select_us",
    "tangle.ledger.apply": "tangle.ledger.apply_us",
    "storage.persistence.append": "storage.persistence.append_us",
    "nodes.full_node.handle_submit": "nodes.full_node.handle_submit_us",
    "nodes.full_node.handle_gossip_dup":
        "nodes.full_node.handle_gossip_dup_us",
    "nodes.full_node.handle_get_tips": "nodes.full_node.handle_get_tips_us",
}


class CaptureTransport:
    """Stands where a node's transport stands: frames every message the
    node sends (as ``AsyncioTransport.send`` does) and owns its clock."""

    def __init__(self):
        origin = time.monotonic()
        self.scheduler = SimpleNamespace(clock=SimpleNamespace(
            now=lambda: time.monotonic() - origin))

    def send(self, sender: str, recipient: str, kind: str, body, *,
             size_bytes: int = 0) -> bool:
        encode(sender, recipient, kind, body, size_bytes)
        return True


def build_node(ctx: Context, name: str, *, durable_dir: Optional[str],
               peers: List[str], cache: Optional[VerificationCache] = None):
    node = new_full_node("n0", ctx.stream.genesis, verification_cache=cache,
                         telemetry=MetricsRegistry())
    for peer in peers:
        node.add_peer(peer)
    node.bind(CaptureTransport())
    if durable_dir is not None:
        store = open_store("file", durable_dir, node=name)
        node.attach_persistence(NodePersistence(store))
    return node


def probe_frames(name: str, ctx: Context) -> Tuple[List[Tuple[str, bytes]], int]:
    """``(connection, frame)`` in one arrival order the workload can
    produce, and the index where its measured window starts."""
    stream = ctx.stream
    rid = iter(range(1, 1 << 30))
    # Unopened connections: only their names go into the frames.
    conns = {label: Conn(label, "n0") for label in
             ["driver0", "driver1"] + [f"peer{k}" for k in range(DUP_PEERS)]}

    def submit(tx: bytes) -> Tuple[str, bytes]:
        return "driver0", submit_frame(conns["driver0"], tx, next(rid))

    frames = [submit(stream.acl)]
    if name == "tips_mixed":
        live_count = int(ctx.params["paced_submits"])
        frames += [submit(tx) for tx in
                   stream.lanes[0] + stream.lanes[1][:-live_count]]
        window = len(frames)
        reads = MIXED_TIPS_RPS // MIXED_SUBMIT_TPS
        for tx in stream.lanes[1][-live_count:]:
            frames.append(submit(tx))
            frames += [("driver1", tips_frame(
                conns["driver1"], stream.device_ids[1][0], next(rid)))
                for _ in range(reads)]
        return frames, window
    if name == "dup_flood":
        frames += [submit(tx) for tx in stream.lanes[0]]
        window = len(frames)
        for k in range(DUP_PEERS):
            peer = f"peer{k}"
            frames += [(peer, conns[peer].frame(
                "gossip_transaction", {"transaction": tx}, len(tx)))
                for tx in stream.lanes[0]]
        return frames, window
    frames += [submit(tx) for tx in round_robin(stream.lanes)]
    return frames, 1


class Spans:
    def __init__(self):
        self.rows: List[Tuple[str, int, int, int, Optional[str]]] = []

    def timed(self, name: str, parent: int, tx: Optional[str], fn, *args,
              **kwargs):
        began = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.rows.append((name, began, time.perf_counter_ns(), parent, tx))
        return out


def shadow_frame(node, spans: Spans, decoder: FrameDecoder, frame: bytes,
                 parent: int, backend, cache: VerificationCache) -> None:
    """One frame through the shadow, layer by layer, in ``_ingest``
    order.  State transitions match the root's, so both stay in step."""
    timed = spans.timed
    message = timed("network.frame.decode", parent, None,
                    decoder.feed, frame)[0]
    body = message.body
    now = node.network.scheduler.clock.now()

    def reply(kind: str, payload: dict, tx_id: Optional[str]) -> None:
        timed("network.frame.encode", parent, tx_id, encode_frame,
              Message(sender="n0", recipient=message.sender, kind=kind,
                      body=payload, sent_at=now))

    if message.kind == "get_tips_request":
        node_id = body["node_id"]
        timed("core.acl.is_authorized", parent, None,
              node.acl.is_authorized, node_id)
        branch, trunk = timed("tangle.tip_selection.select", parent, None,
                              node.tip_selector.select, node.tangle, node.rng)
        difficulty = timed("core.credit.required_difficulty", parent, None,
                           node.consensus.required_difficulty, node_id, now)
        reply("get_tips_response",
              {"request_id": body.get("request_id"), "ok": True,
               "branch": branch, "trunk": trunk, "difficulty": difficulty},
              None)
        return

    tx = timed("tangle.transaction.decode", parent, None,
               Transaction.from_bytes, body["transaction"])
    tx_id = tx.tx_hash.hex()[:16]
    spans.rows[-1] = spans.rows[-1][:4] + (tx_id,)
    known = timed("network.gossip.seen", parent, tx_id,
                  lambda: node.relay.has_seen(tx.tx_hash)
                  and tx.tx_hash in node.tangle)
    if known:
        return
    admit = message.kind == "submit_transaction"
    if admit:
        timed("core.acl.admit", parent, tx_id,
              node.acl.validator, node.tangle, tx)
        timed("core.consensus.admit", parent, tx_id,
              node.consensus.validator, node.tangle, tx)
    timed("pow.verify", parent, tx_id, tx.verify_pow)
    timed("crypto.accel.verify", parent, tx_id, backend.verify,
          tx.issuer.sign_public, tx.tx_hash, tx.signature)
    # Crypto is settled above, so the attach span holds the tangle only.
    cache.confirm(tx.full_digest)
    result = timed("tangle.tangle.attach", parent, tx_id,
                   node.tangle.attach, tx, arrival_time=now)
    if node.persistence is not None:
        timed("storage.persistence.append", parent, tx_id,
              node.persistence.record_transaction, tx, now)
    timed("core.consensus.observe", parent, tx_id,
          node.consensus.observe_attach, result)
    if tx.kind == TransactionKind.TRANSFER:
        timed("tangle.ledger.apply", parent, tx_id,
              node.ledger.apply_or_conflict, tx, now=now)
    elif tx.kind == TransactionKind.ACL:
        timed("core.acl.apply", parent, tx_id, node.acl.apply, tx)
    node.relay.mark_seen(tx.tx_hash)
    encoded = timed("tangle.transaction.encode", parent, tx_id, tx.to_bytes)
    for peer in node.relay.relay_targets(tx.tx_hash, exclude=None):
        timed("network.frame.encode", parent, tx_id, encode_frame,
              Message(sender="n0", recipient=peer, kind="gossip_transaction",
                      body={"transaction": encoded}, sent_at=now,
                      size_bytes=len(encoded)))
    if admit:
        reply("submit_response",
              {"request_id": body.get("request_id"), "ok": True,
               "error": None, "tx_hash": tx.tx_hash}, tx_id)


def batch_verify_us(ctx: Context, backend) -> float:
    """Mean µs per signature through the batch verifier, batches of
    ``BATCH_SIZE`` (the anti-entropy lane's crypto)."""
    txs = [Transaction.from_bytes(encoded)
           for encoded in round_robin(ctx.stream.lanes)[:BATCH_SIZE * BATCHES]]
    items = [(tx.issuer.sign_public, tx.tx_hash, tx.signature) for tx in txs]
    spent, count = 0, 0
    for start in range(0, len(items), BATCH_SIZE):
        batch = items[start:start + BATCH_SIZE]
        began = time.perf_counter_ns()
        verdicts = backend.verify_batch(batch)
        spent += time.perf_counter_ns() - began
        count += len(batch)
        if not all(verdicts):
            raise RuntimeError("batch verifier refused a generated signature")
    return spent / count / 1e3


def run_probe(name: str, ctx: Context) -> Dict[str, float]:
    """Replay *name*'s frames; returns the T-sourced layer metrics."""
    frames, window = probe_frames(name, ctx)
    backend = get_backend(CRYPTO_BACKEND)
    durable = WORKLOADS[name].nodes > 1
    peers = ["n1", "observer"] if durable else []
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        cache = VerificationCache()
        def make(label, **kw):
            return build_node(ctx, label, peers=peers,
                              durable_dir=scratch if durable else None, **kw)

        root, shadow, plain = (make("root"), make("shadow", cache=cache),
                               make("plain"))
        spans = Spans()
        decoders: Dict[Tuple[str, str], FrameDecoder] = {}

        def decoder(role: str, conn: str) -> FrameDecoder:
            return decoders.setdefault((role, conn), FrameDecoder())

        plain_ns = 0
        for index, (conn, frame) in enumerate(frames):
            began = time.perf_counter_ns()
            for message in decoder("plain", conn).feed(frame):
                plain.handle_message(message)
            if index >= window:
                plain_ns += time.perf_counter_ns() - began

        traced_ns = window_row = 0
        for index, (conn, frame) in enumerate(frames):
            if index == window:
                window_row = len(spans.rows)
            began = time.perf_counter_ns()
            messages = decoder("root", conn).feed(frame)
            for message in messages:
                root.handle_message(message)
            ended = time.perf_counter_ns()
            spans.rows.append((ROOT_SPANS[messages[0].kind], began, ended,
                               -1, None))
            parent = len(spans.rows) - 1
            shadow_frame(shadow, spans, decoder("shadow", conn), frame,
                         parent, backend, cache)
            if index >= window:
                traced_ns += ended - began

        if len(root.tangle) != len(shadow.tangle) \
                or len(root.tangle) != ctx.stream.reference_size:
            raise RuntimeError(
                f"probe nodes diverged: root {len(root.tangle)}, shadow "
                f"{len(shadow.tangle)}, reference "
                f"{ctx.stream.reference_size}")
        metrics = summarise(spans.rows[window_row:])
        metrics["probe.overhead_ratio"] = \
            traced_ns / plain_ns if plain_ns else 0.0
        metrics["crypto.accel.verify_batch_us_per_sig"] = \
            batch_verify_us(ctx, backend)
        write_trace(os.path.join(OUT_DIR, f"trace_{name}.json"), name, ctx,
                    spans, metrics)
        return metrics
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def summarise(rows) -> Dict[str, float]:
    """Mean µs per call of every span name in *rows* (the window's
    spans), the admission growth ratio and the accounted ratio."""
    durations: Dict[str, List[int]] = {}
    root_total = child_total = 0
    for name, began, ended, parent, _ in rows:
        durations.setdefault(name, []).append(ended - began)
        if parent == -1:
            root_total += ended - began
        else:
            child_total += ended - began
    metrics = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for name, values in durations.items():
        if name in SPAN_METRICS:
            metrics[SPAN_METRICS[name]] = sum(values) / len(values) / 1e3
    admits = durations.get("core.consensus.admit", [])
    decile = len(admits) // 10
    metrics["core.consensus.admit_growth"] = (
        sum(admits[-decile:]) / sum(admits[:decile]) if decile else 0.0)
    metrics["probe.accounted_ratio"] = \
        child_total / root_total if root_total else 0.0
    return metrics


def write_trace(path: str, name: str, ctx: Context, spans: Spans,
                metrics: Dict[str, float]) -> None:
    with open(path, "w") as handle:
        json.dump({
            "workload": name,
            "seed": ctx.stream.seed,
            "params": ctx.params,
            "columns": ["name", "start_ns", "end_ns", "parent", "tx"],
            "spans": spans.rows,
            "per_layer": metrics,
        }, handle)
        handle.write("\n")
