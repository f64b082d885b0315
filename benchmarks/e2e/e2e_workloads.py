"""The six wire-path workloads.

Every workload is one coroutine ``run(ctx) -> RoundResult`` that starts
fresh node processes, sets them up, measures one window, and checks the
nodes' final state against the generator's reference.  ``bench.py``
calls it ``Workload.rounds`` times per run and reports medians over the
rounds.  BENCHMARK.json gates the three single-node workloads; the
other three (more processes than the host has cores, or replies only a
millisecond long) repeat too poorly to gate (README, "Steadiness") and
run by name or in all-workloads mode.

All load is open loop: each request has a *due* time fixed before the
window opens (a paced schedule, or the window start for bursts) and its
latency is timed from that due time, so a stall in the node is billed
to every request that was due during it.
"""

from __future__ import annotations

import asyncio
import selectors
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from e2e_stream import Stream, build_stream
from e2e_wire import (
    BenchError,
    Conn,
    Fleet,
    NodeProcess,
    next_request_id,
    scrape,
)

PACED_SUBMIT_TPS = 120
BURST_NOMINAL_TPS = 300
MIXED_SUBMIT_TPS = 60
MIXED_TIPS_RPS = 300
DUP_NOMINAL_FPS = 15_000
DUP_PEERS = 2
FLEET_SUBMIT_TPS = 100
RESTART_MISSED_SHARE = 0.5
IDLE_RTT_SAMPLES = 100
REPLY_GRACE_S = 20.0
RESYNC_PERIOD_S = 0.5
RECOVERY_TIMEOUT_S = 60.0
READY_BOOTSTRAP_S = 30.0


# -- per-round bookkeeping ----------------------------------------------------

@dataclass
class RoundResult:
    setup_s: float = 0.0
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    latency_ms: List[float] = field(default_factory=list)
    cpu_ms: Dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)


@dataclass
class Context:
    """What a workload needs for one round."""

    stream: Stream
    params: Dict[str, float]


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


class Replies:
    """Due times and reply times of one class of request."""

    def __init__(self):
        self.due_ns: Dict[object, int] = {}
        self.done_ns: Dict[object, int] = {}
        self.refused: List[str] = []
        self._all_done = asyncio.Event()

    def expect(self, key, due_ns: int) -> None:
        self.due_ns[key] = due_ns

    def new(self, due_ns: int = 0) -> int:
        """Register one request due at *due_ns*; returns its id."""
        request_id = next_request_id()
        self.due_ns[request_id] = due_ns
        return request_id

    @property
    def complete(self) -> bool:
        return len(self.done_ns) + len(self.refused) >= len(self.due_ns)

    def on_reply(self, body: dict, t_ns: int) -> None:
        if body.get("ok"):
            self.done_ns[body["request_id"]] = t_ns
        else:
            self.refused.append(str(body.get("error")))
        if self.complete:
            self._all_done.set()

    def seen(self, key, t_ns: int) -> None:
        if key in self.due_ns and key not in self.done_ns:
            self.done_ns[key] = t_ns
            if self.complete:
                self._all_done.set()

    async def wait(self, timeout: float) -> None:
        """Until every request registered so far has its reply, or
        *timeout*: a missing reply is a measured failure, not a harness
        error.  Call it once nothing more will be registered."""
        self._all_done.clear()
        if self.complete:
            return
        try:
            await asyncio.wait_for(self._all_done.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def latencies_ms(self) -> List[float]:
        return [(done - self.due_ns[key]) / 1e6
                for key, done in self.done_ns.items()]

    @property
    def attempted(self) -> int:
        return len(self.due_ns)

    @property
    def failed(self) -> int:
        """Refused, or no reply by the end of the grace period.  A late
        reply is not a failure: on a shared host a stall of seconds is
        the host's, and it already shows in the percentiles."""
        return self.attempted - len(self.done_ns)

    @property
    def last_ns(self) -> int:
        return max(self.done_ns.values())

    @property
    def first_ns(self) -> int:
        return min(self.done_ns.values())


def submit_frame(conn: Conn, encoded: bytes, request_id: int) -> bytes:
    return conn.frame("submit_transaction",
                      {"transaction": encoded, "request_id": request_id},
                      size_bytes=len(encoded))


def tips_frame(conn: Conn, node_id: bytes, request_id: int) -> bytes:
    return conn.frame("get_tips_request",
                      {"node_id": node_id, "request_id": request_id})


def round_robin(lanes: Sequence[Sequence[bytes]]) -> List[bytes]:
    return [tx for group in zip(*lanes) for tx in group]


def run_round(coro):
    """``asyncio.run`` on a ``select()`` event loop.  The default epoll
    loop rounds every timer wait up to a whole millisecond, which made
    the pacer ~0.9 ms late on each request — more than a whole
    ``get_tips`` round trip; ``select()`` waits in microseconds, and a
    round holds a handful of sockets."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(coro)
    finally:
        asyncio.set_event_loop(None)
        loop.close()


async def paced(conn: Conn, make_frame: Callable[[int], bytes], count: int,
                rate: float, start_ns: int, late_ns: List[int]) -> None:
    """Write *count* frames on a fixed schedule; ``make_frame(due_ns)``
    is called just before each write so the request is registered with
    its due time, however late the loop runs."""
    interval_ns = 1e9 / rate
    for index in range(count):
        due_ns = start_ns + int(index * interval_ns)
        delay = (due_ns - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        frame = make_frame(due_ns)
        # Taken before the write: a loopback send can hand this core to
        # the node it wakes, and that is the node's time, not lateness.
        late_ns.append(time.perf_counter_ns() - due_ns)
        conn.write(frame)
    await conn.drain()


async def burst(conn: Conn, encoded: Sequence[bytes]) -> None:
    """Submit *encoded* back to back and wait for every ack (set-up
    preloads: refusals here are harness errors)."""
    replies = Replies()
    conn.handlers["submit_response"] = replies.on_reply
    conn.write(b"".join(submit_frame(conn, tx, replies.new())
                        for tx in encoded))
    await conn.drain()
    await replies.wait(REPLY_GRACE_S + len(encoded) / 50.0)
    if replies.failed:
        raise BenchError(f"preload: {replies.failed} of {len(encoded)} "
                         f"submits failed {replies.refused[:3]}")


class Edge:
    """``/metrics`` and CPU readings of every node at a window edge."""

    def __init__(self, metrics: Dict[str, Dict[str, float]],
                 cpu_ms: Dict[str, float]):
        self.metrics = metrics
        self.cpu_ms = cpu_ms

    @classmethod
    async def take(cls, nodes: Sequence[NodeProcess], *,
                   opening: bool) -> "Edge":
        # The scrape costs the node CPU: keep it outside the CPU window.
        if opening:
            metrics = {n.address: await scrape(n) for n in nodes}
            cpu = {n.address: n.cpu_ms() for n in nodes}
        else:
            cpu = {n.address: n.cpu_ms() for n in nodes}
            metrics = {n.address: await scrape(n) for n in nodes}
        return cls(metrics, cpu)

    def delta(self, opening: "Edge", name: str) -> float:
        """Counter growth over the window, summed over the nodes (a
        node first seen at the closing edge counts from zero)."""
        return sum(page.get(name, 0.0)
                   - opening.metrics.get(address, {}).get(name, 0.0)
                   for address, page in self.metrics.items())


async def status(conn: Conn, stream: Stream) -> dict:
    body, _ = await conn.rpc("fleet_status", {"now": stream.credit_now},
                             "fleet_status_response")
    return body


class Round:
    """One round: its result, and the set-up / window-edge steps every
    workload shares."""

    def __init__(self, ctx: Context, fleet: Fleet):
        self.stream = ctx.stream
        self.params = ctx.params
        self.fleet = fleet
        self.result = RoundResult()
        self.layer = self.result.layer
        self._began = time.perf_counter()
        self._cpu_began = 0.0
        self._opening: Optional[Edge] = None

    # -- set-up ------------------------------------------------------------

    async def warm_up(self, conn: Conn) -> None:
        """First submit (the shared ACL transaction; pays the lazily
        built accel tables), then the idle round-trip floor."""
        began = time.perf_counter()
        await burst(conn, [self.stream.acl])
        self.layer["network.proc.warmup_ack_ms"] = \
            (time.perf_counter() - began) * 1e3
        node_id = self.stream.device_ids[0][0]
        rtts = []
        for _ in range(IDLE_RTT_SAMPLES):
            sent = time.perf_counter_ns()
            _, t_ns = await conn.rpc("get_tips_request",
                                     {"node_id": node_id},
                                     "get_tips_response")
            rtts.append((t_ns - sent) / 1e6)
        self.layer["network.aio.idle_rtt_ms"] = percentile(rtts, 0.5)

    async def single_node(self):
        """One storage-less node, connected and warmed up."""
        node = await self.fleet.spawn("n0", 0)
        self.layer["network.proc.spawn_ready_s"] = node.spawn_ready_s
        conn = await self.fleet.connect("driver0", node)
        await self.warm_up(conn)
        return node, conn

    async def durable_pair(self):
        """n0 (seed) and n1 with file journals, bootstrapped, observed
        and warmed up: ``(n0, n1, conn to n0, conn to n1, observer)``."""
        n0 = await self.fleet.spawn("n0", 0, durable=True)
        n1 = await self.fleet.spawn("n1", 1, durable=True, seed_node=n0)
        self.layer["network.proc.spawn_ready_s"] = max(n0.spawn_ready_s,
                                                       n1.spawn_ready_s)
        conn0 = await self.fleet.connect("driver0", n0)
        conn1 = await self.fleet.connect("driver0", n1)
        began = time.perf_counter()
        while True:
            states = [await status(conn0, self.stream),
                      await status(conn1, self.stream)]
            if all(s["bootstrapped"] and s["peers"] for s in states):
                break
            if time.perf_counter() - began > READY_BOOTSTRAP_S:
                raise BenchError(f"fleet never bootstrapped: {states}")
            await asyncio.sleep(0.02)
        self.layer["network.discovery.bootstrap_s"] = \
            time.perf_counter() - began
        observer = Observer(self.fleet)
        await observer.join(n0)
        await observer.join(n1)
        await self.warm_up(conn0)
        await observer.wait_seen("n1", [self.stream.acl], REPLY_GRACE_S)
        return n0, n1, conn0, conn1, observer

    # -- window edges ------------------------------------------------------

    async def open_window(self, nodes: Sequence[NodeProcess]) -> None:
        """End of set-up: opening scrape, then the clocks start."""
        self._opening = await Edge.take(nodes, opening=True)
        self.result.setup_s = time.perf_counter() - self._began
        self._cpu_began = time.process_time()

    def measure(self, replies: Replies, start_ns: int) -> None:
        """Fill the end-to-end fields from the operation's replies."""
        result = self.result
        result.attempted = replies.attempted
        result.failed = replies.failed
        result.ops = len(replies.done_ns)
        result.latency_ms = replies.latencies_ms()
        if replies.done_ns:
            result.window_s = (replies.last_ns - start_ns) / 1e9
            self.layer["driver.first_ack_ms"] = \
                (replies.first_ns - start_ns) / 1e6
        if replies.refused:
            result.problems.append(f"refused: {replies.refused[:3]}")

    def secondary_acks(self, acks: Replies) -> None:
        """Submit acks where they are not the workload's operation:
        ungated latency, but their failures still count."""
        latencies = acks.latencies_ms()
        if latencies:
            self.layer["driver.ack_p50_ms"] = percentile(latencies, 0.50)
            self.layer["driver.ack_p90_ms"] = percentile(latencies, 0.90)
            self.layer["driver.ack_p99_ms"] = percentile(latencies, 0.99)
        if acks.refused:
            self.result.problems.append(f"refused: {acks.refused[:3]}")

    async def close_window(self, nodes: Sequence[NodeProcess],
                           control: Dict[str, Conn], *, transactions: int,
                           offered: int, schedule_s: float,
                           late_ns: Sequence[int] = ()) -> RoundResult:
        """Driver health, closing scrape, per-layer counters, memory,
        and the output check against the generator's reference."""
        result, layer = self.result, self.layer
        layer["driver.cpu_s"] = time.process_time() - self._cpu_began
        layer["driver.offered_tps"] = \
            offered / schedule_s if schedule_s else 0.0
        layer["driver.late_p99_ms"] = \
            percentile(late_ns, 0.99) / 1e6 if late_ns else 0.0
        layer["driver.samples"] = float(len(result.latency_ms))
        for name, q in (("driver.op_p90_ms", 0.90),
                        ("driver.op_p99_ms", 0.99)):
            layer[name] = \
                percentile(result.latency_ms, q) if result.latency_ms else 0.0

        closing = await Edge.take(nodes, opening=False)
        opening = self._opening
        ops, txs = max(result.ops, 1), max(transactions, 1)
        for address, cpu_ms in closing.cpu_ms.items():
            result.cpu_ms[address] = cpu_ms - opening.cpu_ms.get(address, 0.0)
            layer[f"proc.{address}.cpu_ms_per_op"] = \
                result.cpu_ms[address] / ops
        for name, counter, per in (
                ("network.aio.frames_sent_per_op",
                 "repro_transport_frames_sent_total", ops),
                ("network.aio.frames_received_per_op",
                 "repro_transport_frames_received_total", ops),
                ("network.aio.bytes_sent_per_op",
                 "repro_transport_bytes_sent_total", ops),
                ("network.frame.bytes_per_tx",
                 "repro_transport_bytes_received_total", txs),
                ("network.aio.dropped_total",
                 "repro_network_messages_dropped_total", 1),
                ("network.aio.reconnects_total",
                 "repro_transport_reconnects_total", 1),
                ("network.aio.frame_errors_total",
                 "repro_transport_frame_errors_total", 1),
                ("network.gossip.relays_per_tx",
                 "repro_network_gossip_relays_total", txs),
                ("network.gossip.duplicates_total",
                 "repro_network_gossip_duplicates_total", 1),
                ("tangle.tangle.flush_epochs_per_tx",
                 "repro_tangle_flush_total", txs),
                ("storage.store.appends_per_tx",
                 "repro_storage_appends_total", txs),
                ("storage.store.bytes_per_tx",
                 "repro_storage_bytes_written_total", txs),
                ("storage.store.flushes_per_tx",
                 "repro_storage_flushes_total", txs)):
            layer[name] = closing.delta(opening, counter) / per
        layer["tangle.tangle.tips_final"] = max(
            page.get("repro_tangle_tips", 0.0)
            for page in closing.metrics.values())
        layer["storage.store.journal_mb"] = self.fleet.journal_mb()
        result.rss_mb = max(node.rss_hwm_mb() for node in nodes)

        for address, conn in control.items():
            began = time.perf_counter()
            body = await status(conn, self.stream)
            layer["network.proc.status_rpc_ms"] = \
                (time.perf_counter() - began) * 1e3
            if body["tangle_size"] != self.stream.reference_size:
                result.problems.append(
                    f"{address}: tangle size {body['tangle_size']} != "
                    f"reference {self.stream.reference_size}")
            for name, expected in self.stream.reference_hashes.items():
                if body["hashes"].get(name) != expected:
                    result.problems.append(
                        f"{address}: {name} hash differs from reference")
        return result


class Observer:
    """The driver as an observe-only full peer of every node: each node
    floods what it attaches to the observer over the reverse route, so
    per-node attach times arrive without polling."""

    NAME = "observer"

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.seen_ns: Dict[str, Dict[bytes, int]] = {}
        self.watchers: Dict[str, Replies] = {}

    async def join(self, node: NodeProcess) -> Conn:
        conn = await self.fleet.connect(self.NAME, node)
        seen = self.seen_ns.setdefault(node.address, {})

        def on_gossip(body: dict, t_ns: int) -> None:
            encoded = body["transaction"]
            seen.setdefault(encoded, t_ns)
            watcher = self.watchers.get(node.address)
            if watcher is not None:
                watcher.seen(encoded, t_ns)

        conn.handlers["gossip_transaction"] = on_gossip
        await conn.rpc("disc_hello",
                       {"address": self.NAME, "host": None, "port": None,
                        "role": "full"}, "disc_peers", tagged=False)
        return conn

    async def wait_seen(self, address: str, encoded: Sequence[bytes],
                        timeout: float) -> None:
        """Set-up barrier: *address* has flooded every one of *encoded*."""
        deadline = time.perf_counter() + timeout
        seen = self.seen_ns[address]
        while not all(tx in seen for tx in encoded):
            if time.perf_counter() > deadline:
                raise BenchError(f"{address} never flooded "
                                 f"{sum(tx not in seen for tx in encoded)} "
                                 f"of {len(encoded)} set-up transactions")
            await asyncio.sleep(0.005)


def window_start() -> int:
    """A paced schedule's first due time: far enough ahead that the
    pacer is already waiting when it arrives."""
    return time.perf_counter_ns() + 20_000_000


# -- single-node workloads --------------------------------------------------

async def submit_paced(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        node, conn = await rnd.single_node()
        encoded = iter(round_robin(rnd.stream.lanes))
        count = sum(len(lane) for lane in rnd.stream.lanes)
        replies = Replies()
        conn.handlers["submit_response"] = replies.on_reply
        await rnd.open_window([node])

        late_ns: List[int] = []
        start_ns = window_start()
        await paced(conn, lambda due: submit_frame(conn, next(encoded),
                                                   replies.new(due)),
                    count, PACED_SUBMIT_TPS, start_ns, late_ns)
        await replies.wait(REPLY_GRACE_S)
        rnd.measure(replies, start_ns)
        return await rnd.close_window(
            [node], {"n0": conn}, transactions=count, offered=count,
            schedule_s=count / PACED_SUBMIT_TPS, late_ns=late_ns)


async def submit_burst(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        node, conn0 = await rnd.single_node()
        lanes = rnd.stream.lanes
        conns = [conn0] + [await fleet.connect(f"driver{k}", node)
                           for k in range(1, len(lanes))]
        replies = Replies()
        await rnd.open_window([node])

        start_ns = time.perf_counter_ns()
        for conn, lane in zip(conns, lanes):
            conn.handlers["submit_response"] = replies.on_reply
            conn.write(b"".join(
                submit_frame(conn, tx, replies.new(start_ns))
                for tx in lane))
        count = sum(len(lane) for lane in lanes)
        await replies.wait(REPLY_GRACE_S + count / 50.0)
        rnd.measure(replies, start_ns)
        return await rnd.close_window(
            [node], {"n0": conn0}, transactions=count, offered=count,
            schedule_s=rnd.result.window_s)


async def tips_mixed(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        node, writer = await rnd.single_node()
        reader = await fleet.connect("driver1", node)
        lanes = rnd.stream.lanes
        live_count = int(rnd.params["paced_submits"])
        await burst(writer, lanes[0] + lanes[1][:-live_count])
        live = iter(lanes[1][-live_count:])
        acks = Replies()
        tips = Replies()
        writer.handlers["submit_response"] = acks.on_reply
        reader.handlers["get_tips_response"] = tips.on_reply
        await rnd.open_window([node])

        late_ns: List[int] = []
        start_ns = window_start()
        node_id = rnd.stream.device_ids[1][0]
        tips_count = live_count * MIXED_TIPS_RPS // MIXED_SUBMIT_TPS
        await asyncio.gather(
            paced(writer, lambda due: submit_frame(writer, next(live),
                                                   acks.new(due)),
                  live_count, MIXED_SUBMIT_TPS, start_ns, late_ns),
            paced(reader, lambda due: tips_frame(reader, node_id,
                                                 tips.new(due)),
                  tips_count, MIXED_TIPS_RPS, start_ns, late_ns))
        await acks.wait(REPLY_GRACE_S)
        await tips.wait(REPLY_GRACE_S)
        # The operation is the read beside the writes; throughput and
        # failures count both kinds.
        rnd.measure(tips, start_ns)
        rnd.secondary_acks(acks)
        result = rnd.result
        result.attempted += acks.attempted
        result.failed += acks.failed
        result.ops += len(acks.done_ns)
        if acks.done_ns and tips.done_ns:
            result.window_s = (max(tips.last_ns, acks.last_ns)
                               - start_ns) / 1e9
        return await rnd.close_window(
            [node], {"n0": writer}, transactions=live_count,
            offered=live_count + tips_count,
            schedule_s=live_count / MIXED_SUBMIT_TPS, late_ns=late_ns)


async def dup_flood(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        node, control = await rnd.single_node()
        lane = rnd.stream.lanes[0]
        await burst(control, lane)
        peers = [await fleet.connect(f"peer{k}", node)
                 for k in range(DUP_PEERS)]
        passes = int(rnd.params["passes"])
        node_id = rnd.stream.device_ids[0][0]
        await rnd.open_window([node])

        fences = Replies()
        start_ns = time.perf_counter_ns()
        for peer in peers:
            peer.handlers["get_tips_response"] = fences.on_reply
            one_pass = b"".join(
                peer.frame("gossip_transaction", {"transaction": tx},
                           size_bytes=len(tx)) for tx in lane)
            # Each pass ends in a fence request: its reply proves the
            # node has absorbed every duplicate queued before it.
            peer.write(b"".join(
                one_pass + tips_frame(peer, node_id, fences.new(start_ns))
                for _ in range(passes)))
        await fences.wait(REPLY_GRACE_S + passes * len(lane) / 1000.0)
        # A frame's latency is its fence's: every pass holds the same
        # number of frames, so fence percentiles are frame percentiles.
        rnd.measure(fences, start_ns)
        frames = DUP_PEERS * passes * len(lane)
        result = rnd.result
        result.attempted = frames
        result.ops = len(fences.done_ns) * len(lane)
        result.failed = frames - result.ops
        await rnd.close_window(
            [node], {"n0": control}, transactions=frames, offered=frames,
            schedule_s=result.window_s)
        absorbed = rnd.layer["network.gossip.duplicates_total"]
        if absorbed != frames:
            result.problems.append(
                f"node counted {absorbed:.0f} duplicates for {frames} "
                f"duplicate frames sent")
        return result


# -- two-node durable fleet -------------------------------------------------

def follower_lag(acks: Replies, follower_seen: Dict[bytes, int],
                 by_request: Dict[int, bytes]) -> float:
    """Max over time of (acked by n0) − (flooded by n1)."""
    events = [(t_ns, 1) for t_ns in acks.done_ns.values()]
    events += [(follower_seen[by_request[rid]], -1)
               for rid in acks.done_ns if by_request[rid] in follower_seen]
    lag = worst = 0
    for _, step in sorted(events):
        lag += step
        worst = max(worst, lag)
    return float(worst)


async def fleet2_durable(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        n0, n1, submit, control1, observer = await rnd.durable_pair()
        encoded = iter(round_robin(rnd.stream.lanes))
        count = sum(len(lane) for lane in rnd.stream.lanes)
        acks = Replies()
        submit.handlers["submit_response"] = acks.on_reply
        by_request: Dict[int, bytes] = {}
        # Replicated = flooded by the last node to attach, which on a
        # two-node chain is the follower.
        replicated = Replies()
        observer.watchers["n1"] = replicated
        await rnd.open_window([n0, n1])

        late_ns: List[int] = []
        start_ns = window_start()

        def make(due_ns: int) -> bytes:
            tx = next(encoded)
            replicated.expect(tx, due_ns)
            request_id = acks.new(due_ns)
            by_request[request_id] = tx
            return submit_frame(submit, tx, request_id)

        await paced(submit, make, count, FLEET_SUBMIT_TPS, start_ns, late_ns)
        await acks.wait(REPLY_GRACE_S)
        await replicated.wait(REPLY_GRACE_S)
        rnd.measure(replicated, start_ns)
        rnd.secondary_acks(acks)
        rnd.result.failed = max(rnd.result.failed, acks.failed)
        rnd.layer["network.gossip.follower_lag_tx_max"] = follower_lag(
            acks, observer.seen_ns["n1"], by_request)
        return await rnd.close_window(
            [n0, n1], {"n0": submit, "n1": control1}, transactions=count,
            offered=count, schedule_s=count / FLEET_SUBMIT_TPS,
            late_ns=late_ns)


async def wait_peer_given_up(rnd: Round, node: NodeProcess,
                             frames: int) -> None:
    """Until *node* has dropped the *frames* floods it queued for its
    dead peer.  Today a node keeps re-dialling a dead peer's old port
    for the whole backoff schedule (~8 s) and then drops that peer's
    backlog, sync replies included; a restart inside that stall cannot
    catch up until it ends (README, "restart stall").  Waiting it out in
    set-up keeps the window on journal replay and anti-entropy."""
    began = time.perf_counter()
    while (await scrape(node)).get(
            "repro_network_messages_dropped_total", 0.0) < frames:
        if time.perf_counter() - began > RECOVERY_TIMEOUT_S:
            raise BenchError(f"{node.address} never gave up on its dead "
                             f"peer ({frames} floods still queued)")
        await asyncio.sleep(0.1)
    rnd.layer["recovery.peer_giveup_s"] = time.perf_counter() - began


async def restart_catchup(ctx: Context) -> RoundResult:
    async with Fleet(ctx.stream.genesis_hex) as fleet:
        rnd = Round(ctx, fleet)
        n0, n1, submit, _, observer = await rnd.durable_pair()
        encoded = round_robin(rnd.stream.lanes)
        missed_count = int(rnd.params["missed"])
        before, missed = encoded[:-missed_count], encoded[-missed_count:]
        await burst(submit, before)
        await observer.wait_seen("n1", before,
                                 REPLY_GRACE_S + len(before) / 50.0)
        # Crash the follower and let the leader move on without it.
        await n1.kill()
        await burst(submit, missed)
        await wait_peer_given_up(rnd, n0, len(missed))
        await rnd.open_window([n0])

        # Window: restart the follower from its journal (identical
        # argv) and let anti-entropy close the gap.  Every missed
        # transaction is due at the re-spawn.
        recovered = Replies()
        start_ns = time.perf_counter_ns()
        for tx in missed:
            recovered.expect(tx, start_ns)
        n1 = await fleet.respawn("n1")
        ready_ns = time.perf_counter_ns()
        restored = int(n1.ready["restored"])
        observer.seen_ns["n1"] = {}
        observer.watchers["n1"] = recovered
        await observer.join(n1)
        control1 = await fleet.connect("driver0", n1)
        deadline = time.perf_counter() + RECOVERY_TIMEOUT_S
        resyncs = 0
        while not recovered.complete and time.perf_counter() < deadline:
            await control1.rpc("fleet_resync", {}, "fleet_resync_ack")
            resyncs += 1
            await recovered.wait(RESYNC_PERIOD_S)
        rnd.measure(recovered, start_ns)
        # An operation is one record brought back: replayed from the
        # journal or fetched by anti-entropy.
        result, layer = rnd.result, rnd.layer
        result.attempted = len(before) + 1 + len(missed)
        result.ops = restored + len(recovered.done_ns)
        result.failed = result.attempted - result.ops
        restart_ready_s = (ready_ns - start_ns) / 1e9
        layer["recovery.restart_ready_s"] = restart_ready_s
        if recovered.done_ns:
            layer["recovery.catchup_s"] = (recovered.last_ns - ready_ns) / 1e9
        layer["recovery.resync_requests"] = float(resyncs)
        layer["nodes.full_node.sync_response_txs"] = \
            float(len(recovered.done_ns))
        layer["storage.persistence.replay_us_per_record"] = (
            (restart_ready_s - layer["network.proc.spawn_ready_s"])
            * 1e6 / max(restored, 1))
        return await rnd.close_window(
            [n0, n1], {"n0": submit, "n1": control1},
            transactions=len(missed), offered=len(missed),
            schedule_s=result.window_s)


# -- a run's figures: medians over its rounds -------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: Sequence[RoundResult]) -> Dict[str, float]:
    """Median over the rounds of each end-to-end figure."""
    return {
        "setup_s": median([r.setup_s for r in rounds]),
        "ops_per_s": median([r.ops / r.window_s for r in rounds
                             if r.window_s > 0]),
        "op_p50_ms": median([percentile(r.latency_ms, 0.50)
                             for r in rounds if r.latency_ms]),
        "node_cpu_ms_per_op": median([sum(r.cpu_ms.values()) / r.ops
                                      for r in rounds if r.ops]),
        "node_rss_mb": median([r.rss_mb for r in rounds]),
    }


def per_layer(rounds: Sequence[RoundResult], probe: Dict[str, float],
              generate_s: float, names: Sequence[str]) -> Dict[str, float]:
    """Median over the rounds of each wire-run layer figure, plus the
    in-process probe's; a layer a workload never enters reads 0."""
    values = {name: median([r.layer[name] for r in rounds
                            if name in r.layer]) for name in names}
    values.update(probe)
    values["driver.generate_s"] = generate_s
    return {name: values.get(name, 0.0) for name in names}


# -- the table --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A workload's code; its one-line rationale is BENCHMARK.json's."""

    name: str
    run: Callable[[Context], "asyncio.Future"]
    # (window seconds) -> (per_lane, lane_count, params)
    size: Callable[[float], tuple]
    nodes: int = 1
    # Fresh-process rounds per run; every figure is the median over
    # them, so up to four disturbed rounds do not move a run.
    # restart_catchup pays over 10 s of set-up per round and keeps three.
    rounds: int = 9


def _paced_size(window_s: float):
    return max(2, round(PACED_SUBMIT_TPS * window_s / 2)), 2, {}


def _burst_size(window_s: float):
    return max(2, round(BURST_NOMINAL_TPS * window_s / 2)), 2, {}


def _mixed_size(window_s: float):
    per_lane = max(2, round(BURST_NOMINAL_TPS * window_s / 2))
    paced_submits = max(1, min(per_lane - 1,
                               round(MIXED_SUBMIT_TPS * window_s)))
    return per_lane, 2, {"paced_submits": paced_submits}


def _dup_size(window_s: float):
    per_lane = max(2, round(BURST_NOMINAL_TPS * window_s / 2))
    passes = max(2, round(DUP_NOMINAL_FPS * window_s
                          / (DUP_PEERS * per_lane)))
    return per_lane, 1, {"passes": passes}


def _fleet_size(window_s: float):
    return max(2, round(FLEET_SUBMIT_TPS * window_s / 2)), 2, {}


def _restart_size(window_s: float):
    per_lane = max(4, round(FLEET_SUBMIT_TPS * window_s))
    return per_lane, 2, {
        "missed": max(2, round(2 * per_lane * RESTART_MISSED_SHARE))}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("submit_paced", submit_paced, _paced_size),
    Workload("submit_burst", submit_burst, _burst_size),
    Workload("tips_mixed", tips_mixed, _mixed_size),
    Workload("dup_flood", dup_flood, _dup_size),
    Workload("fleet2_durable", fleet2_durable, _fleet_size, nodes=2),
    Workload("restart_catchup", restart_catchup, _restart_size, nodes=2,
             rounds=3),
)}


def make_context(name: str, seed: int, window_s: float) -> Context:
    per_lane, lane_count, params = WORKLOADS[name].size(window_s)
    stream = build_stream(seed, per_lane=per_lane, lane_count=lane_count)
    params = dict(params, per_lane=per_lane, lane_count=lane_count)
    return Context(stream=stream, params=params)
