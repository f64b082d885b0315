"""The asyncio/TCP transport: clock/scheduler units, wire delivery,
reverse routes, reconnect-with-backoff, graceful shutdown, framing
hostility, and the ``repro_transport_*`` telemetry.

Synchronous tests throughout (no pytest-asyncio in the environment):
coroutines run on the :class:`~tests.network.fleet.FleetSandbox`'s
dedicated loop with hard teardown.
"""

import asyncio
import random
import time

import pytest

from repro.crypto import ed25519, verify_workers
from repro.faults.report import node_state_hashes
from repro.faults.backoff import BackoffPolicy
from repro.harness.workload import build_workload
from repro.network import aio
from repro.network.aio import (
    AsyncClock,
    AsyncioScheduler,
    AsyncioTransport,
    NodeRunner,
)
from repro.network.base import Transport
from repro.network.frame import FrameDecoder, encode_frame
from repro.network.network import Network, NetworkNode
from repro.network.proc import build_node
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.nodes.lane import RUNS_IN_FLIGHT
from repro.tangle.transaction import Transaction
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import TraceContext, Tracer

from ..nodes.runs import NODE, needs_fork, submit_frame
from ..nodes.test_run_amplification import material

FAST_BACKOFF = BackoffPolicy(base_delay=0.05, multiplier=1.5,
                             max_delay=0.2, jitter=0.0, max_attempts=30)


class Recorder(NetworkNode):
    """Collects deliveries; optionally echoes every ping as a pong."""

    def __init__(self, address, *, echo=False):
        super().__init__(address)
        self.echo = echo
        self.received = []

    def handle_message(self, message):
        self.received.append(message)
        if self.echo and message.kind == "ping":
            self.send(message.sender, "pong", {"re": message.body})


@pytest.fixture
def one_worker():
    """One forked verify worker, stopped and reaped at teardown."""
    ed25519.precompute()
    yield verify_workers.start(1)
    verify_workers.stop()


def _transport(scheduler, directory, **kwargs):
    kwargs.setdefault("reconnect_policy", FAST_BACKOFF)
    kwargs.setdefault("rng", random.Random(0))
    return AsyncioTransport(scheduler, directory=directory, **kwargs)


async def _wait_for(predicate, *, timeout=10.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestAsyncClock:
    def test_scales_wall_time(self):
        clock = AsyncClock(time_scale=100.0)
        start = clock.now()
        time.sleep(0.02)
        elapsed = clock.now() - start
        assert elapsed >= 1.0  # 20ms wall * 100

    def test_to_wall_inverts_the_scale(self):
        clock = AsyncClock(time_scale=20.0)
        assert clock.to_wall(10.0) == pytest.approx(0.5)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            AsyncClock(time_scale=0.0)


class TestAsyncioScheduler:
    def test_schedule_fires_and_counts(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=50.0)
            fired = []
            scheduler.schedule(0.5, lambda: fired.append("a"))  # 10ms wall
            assert scheduler.events_executed == 0
            assert len(scheduler._handles) == 1
            await asyncio.sleep(0.1)
            return fired, scheduler.events_executed, dict(scheduler._handles)

        fired, executed, pending = fleet_sandbox.run(scenario())
        assert fired == ["a"]
        assert executed == 1
        assert pending == {}  # a fired timer drops its handle

    def test_given_a_loop_it_schedules_from_plain_code_and_runs_it(self):
        """The driver half of the contract: no loop is running when the
        timer is armed; ``run_for`` runs the scheduler's own loop for
        the wall-clock equivalent of the simulated span."""
        loop = asyncio.new_event_loop()
        try:
            scheduler = AsyncioScheduler(time_scale=50.0, loop=loop)
            fired = []
            scheduler.schedule(0.5, lambda: fired.append("a"))  # 10ms wall
            late_id = scheduler.schedule(50.0, lambda: fired.append("late"))
            before = scheduler.clock.now()
            scheduler.run_for(5.0)  # 100ms wall
            assert fired == ["a"]
            assert scheduler.clock.now() - before >= 5.0
            assert scheduler.events_executed == 1
            assert list(scheduler._handles) == [late_id]
            scheduler.cancel_all()
        finally:
            loop.close()

    def test_without_a_loop_plain_code_cannot_schedule(self):
        with pytest.raises(RuntimeError):
            AsyncioScheduler().schedule(0.0, lambda: None)

    def test_rejects_negative_delay(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler()
            with pytest.raises(ValueError):
                scheduler.schedule(-1.0, lambda: None)

        fleet_sandbox.run(scenario())


class TestTransportContract:
    def test_both_transports_satisfy_the_protocol(self):
        assert isinstance(Network(EventScheduler()), Transport)
        assert isinstance(_transport(AsyncioScheduler(), {}), Transport)


class TestWireDelivery:
    def test_send_receive_and_reverse_route_reply(self, fleet_sandbox):
        """A connect-only client reaches a listener, and the listener's
        reply rides the reverse route back over the same socket."""
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            server = Recorder("server", echo=True)
            client = Recorder("client")
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", 0))
            client_transport = _transport(scheduler, directory)
            client_runner = NodeRunner(client, client_transport)
            try:
                await server_runner.start()
                assert server_runner.bound_address is not None
                assert directory["server"] == server_runner.bound_address
                await client_runner.start()
                assert client.send("server", "ping", {"n": 1})
                await _wait_for(lambda: client.received)
                return (server.received[0], client.received[0],
                        client_transport.messages_delivered)
            finally:
                await client_runner.stop()
                await server_runner.stop()

        ping, pong, delivered = fleet_sandbox.run(scenario())
        assert ping.kind == "ping" and ping.body == {"n": 1}
        assert ping.sender == "client" and ping.recipient == "server"
        assert pong.kind == "pong" and pong.body == {"re": {"n": 1}}
        assert delivered == 1

    def test_message_ids_are_scoped_per_transport(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            server = Recorder("server")
            runner = NodeRunner(server, _transport(scheduler, directory),
                                listen=("127.0.0.1", 0))
            clients, runners = [], []
            for name in ("c1", "c2"):
                node = Recorder(name)
                runners.append(NodeRunner(
                    node, _transport(scheduler, directory)))
                clients.append(node)
            try:
                await runner.start()
                for client_runner in runners:
                    await client_runner.start()
                for client in clients:
                    for n in range(3):
                        assert client.send("server", "ping", {"n": n})
                await _wait_for(lambda: len(server.received) == 6)
                ids = {}
                for message in server.received:
                    ids.setdefault(message.sender, []).append(
                        message.message_id)
                return ids
            finally:
                for client_runner in runners:
                    await client_runner.stop()
                await runner.stop()

        ids = fleet_sandbox.run(scenario())
        # Each transport allocates independently from 1 (the regression
        # the old module-global counter would fail).
        assert ids == {"c1": [1, 2, 3], "c2": [1, 2, 3]}

    def test_loopback_and_unroutable(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = Recorder("solo")
            transport = _transport(scheduler, {})
            runner = NodeRunner(node, transport)
            try:
                await runner.start()
                assert node.send("solo", "note", {"to": "self"})
                await _wait_for(lambda: node.received)
                unroutable = node.send("ghost", "ping", None)
                return node.received[0].kind, unroutable, \
                    transport.messages_dropped
            finally:
                await runner.stop()

        kind, unroutable, dropped = fleet_sandbox.run(scenario())
        assert kind == "note"
        assert unroutable is False
        assert dropped == 1

    def test_unframeable_envelope_is_a_counted_drop(self, fleet_sandbox):
        """An envelope int outside i64 or a string past 65 535 bytes
        cannot be framed: ``send`` returns False and counts a drop of
        that kind instead of raising into the sending handler."""
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            registry = MetricsRegistry()
            far = "p" * 65536
            transport = _transport(
                scheduler, {"peer": ("127.0.0.1", 9), far: ("127.0.0.1", 9)},
                telemetry=registry)
            sent = [transport.send("me", "peer", "ping", None,
                                   size_bytes=2 ** 63),
                    transport.send("me", "peer", "é" * 32768, None),
                    transport.send("me", far, "ping", None)]
            return sent, transport.messages_dropped, registry

        sent, dropped, registry = fleet_sandbox.run(scenario())
        assert sent == [False, False, False]
        assert dropped == 3
        counter = registry.counter("repro_network_messages_dropped_total")
        assert counter.value(kind="ping") == 2

    def test_trace_context_rides_the_wire(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            tracer = Tracer(scheduler.clock)
            server = Recorder("server")
            client = Recorder("client")
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", 0))
            client_runner = NodeRunner(
                client, _transport(scheduler, directory, tracer=tracer))
            try:
                await server_runner.start()
                await client_runner.start()
                sent_context = TraceContext(trace_id="wire-test-1",
                                            span_id=4)
                with tracer.activate(sent_context):
                    client.send("server", "ping", None)
                await _wait_for(lambda: server.received)
                return server.received[0].trace, sent_context
            finally:
                await client_runner.stop()
                await server_runner.stop()

        received, sent = fleet_sandbox.run(scenario())
        assert received == sent
        assert received is not None


class TestReconnect:
    def test_backoff_redial_reaches_a_late_listener(self, fleet_sandbox):
        """Frames queued for a peer that is not up yet are delivered
        once the peer starts listening — the writer loop redials under
        the BackoffPolicy instead of dropping on the first refusal."""
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            port = fleet_sandbox.ephemeral_port()
            directory = {"server": ("127.0.0.1", port)}
            client = Recorder("client")
            client_transport = _transport(scheduler, directory)
            client_runner = NodeRunner(client, client_transport)
            await client_runner.start()
            assert client.send("server", "ping", {"early": True})
            await asyncio.sleep(0.15)  # a few refused dial attempts

            server = Recorder("server")
            fleet_sandbox.release_port(port)  # about to bind it for real
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", port))
            try:
                await server_runner.start()
                await _wait_for(lambda: server.received)
                return server.received[0].body, \
                    client_transport.reconnect_attempts
            finally:
                await client_runner.stop()
                await server_runner.stop()

        body, attempts = fleet_sandbox.run(scenario())
        assert body == {"early": True}
        assert attempts >= 1

    def test_exhausted_backoff_drops_the_frame(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            port = fleet_sandbox.ephemeral_port()
            directory = {"server": ("127.0.0.1", port)}  # nobody home
            client = Recorder("client")
            transport = _transport(
                scheduler, directory,
                reconnect_policy=BackoffPolicy(
                    base_delay=0.02, multiplier=1.0, max_delay=0.02,
                    jitter=0.0, max_attempts=2))
            runner = NodeRunner(client, transport)
            try:
                await runner.start()
                assert client.send("server", "ping", None)
                await _wait_for(lambda: transport.messages_dropped >= 1)
                return transport.messages_dropped
            finally:
                await runner.stop()

        assert fleet_sandbox.run(scenario()) >= 1

    class _Doomed:
        """A connection that takes every byte written to it and then
        fails: at once (``hold`` None: the transport closes, as one does
        when ``send()`` hits a reset socket) or in the drain after the
        ``hold`` event is set, its socket backed up until then."""

        def __init__(self, hold=None):
            self.written = []
            self.hold = hold
            self.broken = False
            self.transport = self

        def get_write_buffer_size(self):
            return 0 if self.hold is None else 1

        def is_closing(self):
            return self.broken

        def write(self, data):
            self.written.append(data)
            self.broken = self.hold is None

        async def drain(self):
            if self.hold is not None:
                await self.hold.wait()
            self.broken = True
            raise ConnectionResetError("reset mid-burst")

        def close(self):
            pass

    def _burst_through(self, fleet_sandbox, doomed, before, after):
        """Send *before* frames with *doomed* as the server's route,
        yield, send *after* more, then let *doomed* fail: returns what it
        was written and the ``n`` of every frame the server got."""
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            server = Recorder("server")
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", 0))
            client = Recorder("client")
            client_transport = _transport(scheduler, directory)
            client_runner = NodeRunner(client, client_transport)
            try:
                await server_runner.start()
                await client_runner.start()
                client_transport._reverse["server"] = doomed
                for n in range(before):
                    assert client.send("server", "burst", {"n": n})
                await asyncio.sleep(0.02)
                for n in range(before, before + after):
                    assert client.send("server", "burst", {"n": n})
                await asyncio.sleep(0.02)
                if doomed.hold is not None:
                    doomed.hold.set()
                total = before + after
                await _wait_for(lambda: len(server.received) >= total)
                await asyncio.sleep(0.05)  # no stray duplicate follows
                return ([[m.body["n"] for m in FrameDecoder().feed(data)]
                         for data in doomed.written],
                        [m.body["n"] for m in server.received])
            finally:
                await client_runner.stop()
                await server_runner.stop()

        return fleet_sandbox.run(scenario())

    def test_a_chunk_whose_write_fails_goes_again_whole_and_first(
            self, fleet_sandbox):
        """40 frames sent in one callback: the 16th writes the first
        COALESCE_FRAMES as one chunk, and the connection fails under
        it.  That chunk is written again on a fresh connection, ahead of
        the 24 behind it: the peer gets all 40, once each, in order."""
        written, received = self._burst_through(
            fleet_sandbox, self._Doomed(), 40, 0)
        assert written == [list(range(aio.COALESCE_FRAMES))]
        assert received == list(range(40))

    def test_nothing_passes_a_chunk_whose_drain_is_pending(
            self, fleet_sandbox):
        """A backed-up connection hands the peer to its writer task,
        which writes 5 frames and waits in the drain.  The 20 sent
        meanwhile wait behind them in the outbox, never on that
        connection; when the drain fails, all 25 arrive, once each, in
        order, on a fresh connection."""
        doomed = self._Doomed(hold=asyncio.Event())
        written, received = self._burst_through(
            fleet_sandbox, doomed, 5, 20)
        assert written == [list(range(5))]
        assert received == list(range(25))


class TestFramingHostility:
    def test_garbage_stream_is_dropped_but_listener_survives(
            self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            telemetry = MetricsRegistry()
            server = Recorder("server")
            server_runner = NodeRunner(
                server,
                _transport(scheduler, directory, telemetry=telemetry),
                listen=("127.0.0.1", 0))
            client = Recorder("client")
            client_runner = NodeRunner(client,
                                       _transport(scheduler, directory))
            try:
                await server_runner.start()
                host, port = server_runner.bound_address
                # A hostile peer writes bytes that are not a frame.
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"NOT A FRAME AT ALL")
                await writer.drain()
                writer.close()
                # The listener refused the stream with a clean error...
                errors = telemetry.counter(
                    "repro_transport_frame_errors_total", "")
                await _wait_for(lambda: sum(
                    (telemetry.snapshot().get(
                        "repro_transport_frame_errors_total", {})
                     .get("series") or {}).values()) >= 1)
                # ...and still serves well-framed peers.
                await client_runner.start()
                assert client.send("server", "ping", None)
                await _wait_for(lambda: server.received)
                return len(server.received)
            finally:
                await client_runner.stop()
                await server_runner.stop()

        assert fleet_sandbox.run(scenario()) == 1


class TestRuns:
    def test_a_read_is_delivered_as_runs_split_at_control_frames(
            self, fleet_sandbox):
        """Frames written together arrive in one ``read()``; the node
        gets the ones addressed to it in one ``deliver_run`` per stretch
        between two control-plane frames, a traced frame in a run of its
        own under its context.  The node sees every frame addressed to it,
        and the counters move by kind once per read."""
        tracer_box = {}

        class RunRecorder(Recorder):
            def __init__(self, address):
                super().__init__(address)
                self.runs, self.contexts = [], []

            def deliver_run(self, run):
                self.runs.append([m.body for m in run])
                super().deliver_run(run)

            def handle_message(self, message):
                self.contexts.append(tracer_box["tracer"].current)
                super().handle_message(message)

        context = TraceContext(trace_id="run-test", span_id=3)

        def framed(kind, body, recipient="server", trace=None):
            return encode_frame(Message(
                sender="raw", recipient=recipient, kind=kind, body=body,
                sent_at=0.0, trace=trace))

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            tracer_box["tracer"] = Tracer(scheduler.clock)
            registry = MetricsRegistry()
            server = RunRecorder("server")
            transport = _transport(scheduler, {}, telemetry=registry,
                                   tracer=tracer_box["tracer"])
            handled = []
            transport.register_handler("control", handled.append)
            runner = NodeRunner(server, transport, listen=("127.0.0.1", 0))
            try:
                await runner.start()
                _, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(framed("ping", 1) + framed("ping", 2)
                             + framed("control", 3)
                             + framed("ping", 4, recipient="elsewhere")
                             + framed("ping", 5)
                             + framed("ping", 6, trace=context)
                             + framed("ping", 7))
                await writer.drain()
                await _wait_for(lambda: len(server.received) >= 5)
                writer.close()
                return server, [m.body for m in handled], registry
            finally:
                await runner.stop()

        server, handled, registry = fleet_sandbox.run(scenario())
        assert server.runs == [[1, 2], [5], [6], [7]]
        assert handled == [3]
        assert [m.body for m in server.received] == [1, 2, 5, 6, 7]
        assert server.contexts == [None, None, None, context, None]
        assert server.received_count == 5
        received = registry.counter("repro_transport_frames_received_total")
        delivered = registry.counter("repro_network_messages_delivered_total")
        dropped = registry.counter("repro_network_messages_dropped_total")
        assert (received.value(kind="ping"), received.value(kind="control")) \
            == (6, 1)
        assert (delivered.value(kind="ping"),
                delivered.value(kind="control")) == (5, 1)
        assert dropped.value(kind="ping") == 1

    def test_a_status_between_submits_sees_exactly_those_before_it(
            self, fleet_sandbox):
        """One read carries ``[submit, submit, fleet_status, submit]``
        to a full node: the status handler runs after the first two
        submits attached and before the third is delivered."""
        genesis, acl, good = material()[:3]
        seen = []

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = build_node(NODE, genesis, rng_seed=0)
            transport = _transport(scheduler, {})
            transport.register_handler(
                "fleet_status",
                lambda message: seen.append(
                    [tx.tx_hash in node.tangle
                     for tx in (acl, good[0], good[1])]))
            runner = NodeRunner(node, transport, listen=("127.0.0.1", 0))
            try:
                await runner.start()
                _, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(submit_frame(0, acl.to_bytes())
                             + submit_frame(1, good[0].to_bytes())
                             + encode_frame(Message(
                                 sender="client", recipient=NODE,
                                 kind="fleet_status", body={},
                                 sent_at=0.0))
                             + submit_frame(2, good[1].to_bytes()))
                await writer.drain()
                await _wait_for(lambda: good[1].tx_hash in node.tangle)
                writer.close()
            finally:
                await runner.stop()

        fleet_sandbox.run(scenario())
        assert seen == [[True, True, False]]

    @needs_fork
    def test_with_live_workers_a_status_waits_for_the_pending_run(
            self, fleet_sandbox, one_worker):
        """The same with a verify worker forked: the eight submits ahead
        of the status form a run whose batch is handed off, and the
        status handler still runs only after that run was delivered,
        before any of the eight behind it."""
        genesis, acl, good = material()[:3]
        seen, pending = [], []

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = build_node(NODE, genesis, rng_seed=0)
            transport = _transport(scheduler, {})

            def status(message):
                seen.append([tx.tx_hash in node.tangle for tx in good[:16]])

            transport.register_handler("fleet_status", status)
            deliver_run = node.deliver_run

            def recording(run):
                deliver_run(run)
                pending.append(len(node.lane._runs))

            node.deliver_run = recording
            runner = NodeRunner(node, transport, listen=("127.0.0.1", 0))
            try:
                await runner.start()
                _, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(submit_frame(0, acl.to_bytes()))
                await writer.drain()
                await _wait_for(lambda: acl.tx_hash in node.tangle)
                writer.write(
                    b"".join(submit_frame(1 + index, tx.to_bytes())
                             for index, tx in enumerate(good[:8]))
                    + encode_frame(Message(
                        sender="client", recipient=NODE,
                        kind="fleet_status", body={}, sent_at=0.0))
                    + b"".join(submit_frame(9 + index, tx.to_bytes())
                               for index, tx in enumerate(good[8:16])))
                await writer.drain()
                await _wait_for(lambda: good[15].tx_hash in node.tangle)
                writer.close()
            finally:
                await runner.stop()

        fleet_sandbox.run(scenario())
        assert seen == [[True] * 8 + [False] * 8]
        assert max(pending) >= 1  # a run did wait for its verdicts

    @needs_fork
    def test_a_flooding_client_is_paused_at_two_pending_runs(
            self, fleet_sandbox, one_worker, monkeypatch):
        """2 000 submits in one ``write()``, to a node with one verify
        worker: the node takes no read while two runs await verdicts,
        the bound is reached, and every ack comes back accepted, in the
        order the submits were written."""
        workload = build_workload(41, transactions=2000)
        pending_at_read, pending_after_run = [], []
        box = {}

        class Watched(FrameDecoder):
            def feed(self, data):
                node = box.get("node")
                if node is not None:
                    pending_at_read.append(len(node.lane._runs))
                return super().feed(data)

        monkeypatch.setattr(aio, "FrameDecoder", Watched)

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = build_node(NODE, workload.genesis, rng_seed=0)
            deliver_run = node.deliver_run

            def recording(run):
                deliver_run(run)
                pending_after_run.append(len(node.lane._runs))

            node.deliver_run = recording
            runner = NodeRunner(node, _transport(scheduler, {}),
                                listen=("127.0.0.1", 0))
            try:
                await runner.start()
                box["node"] = node
                reader, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(b"".join(
                    submit_frame(index, encoded) for index, encoded
                    in enumerate(workload.transactions)))
                await writer.drain()
                decoder, acks = FrameDecoder(), []
                while len(acks) < len(workload.transactions):
                    data = await asyncio.wait_for(reader.read(65536), 60.0)
                    assert data, "the node closed the connection"
                    acks.extend(decoder.feed(data))
                writer.close()
                return acks
            finally:
                await runner.stop()

        acks = fleet_sandbox.run(scenario())
        assert [(ack.kind, ack.body["request_id"], ack.body["ok"])
                for ack in acks] \
            == [("submit_response", index, True)
                for index in range(len(workload.transactions))]
        assert max(pending_at_read) < RUNS_IN_FLIGHT
        assert max(pending_after_run) == RUNS_IN_FLIGHT


class TestTurns:
    """Who the node serves next while its verify workers are busy: a
    long response is taken in runs between other connections' reads,
    and a freed slot goes to the reader that has waited longest."""

    @needs_fork
    def test_a_long_sync_response_lets_another_connection_through(
            self, fleet_sandbox, one_worker):
        """A peer's 1 000-transaction ``sync_response``: a client's
        ``get_tips_request``, written on another connection once the
        node has the response, is answered before the response's last
        transaction attaches — the response waits its turn in runs of
        ``SHARD_CAP`` instead of holding the loop until it is all
        verified — and all of it attaches in the end."""
        workload = build_workload(43, transactions=1001)
        acl, *synced = [Transaction.from_bytes(encoded)
                        for encoded in workload.transactions]
        box = {}

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = box["node"] = build_node(NODE, workload.genesis,
                                            rng_seed=0)
            runner = NodeRunner(node, _transport(scheduler, {}),
                                listen=("127.0.0.1", 0))
            try:
                await runner.start()
                client_reader, client = await asyncio.open_connection(
                    *runner.bound_address)
                _, peer = await asyncio.open_connection(
                    *runner.bound_address)
                client.write(submit_frame(0, acl.to_bytes()))
                await client.drain()
                await _wait_for(lambda: acl.tx_hash in node.tangle)
                peer.write(encode_frame(Message(
                    sender="peer", recipient=NODE, kind="sync_response",
                    sent_at=0.0,
                    body={"transactions": [tx.to_bytes()
                                           for tx in synced]})))
                await peer.drain()
                await _wait_for(lambda: node.received_count == 2,
                                interval=0.001)
                client.write(encode_frame(Message(
                    sender="client", recipient=NODE,
                    kind="get_tips_request", sent_at=0.0,
                    body={"request_id": 1,
                          "node_id": synced[0].issuer.node_id})))
                await client.drain()
                decoder, replies = FrameDecoder(), []
                while not any(reply.kind == "get_tips_response"
                              for reply in replies):
                    data = await asyncio.wait_for(
                        client_reader.read(65536), 60.0)
                    assert data, "the node closed the connection"
                    replies.extend(decoder.feed(data))
                box["last_attached"] = synced[-1].tx_hash in node.tangle
                box["tips_ok"] = replies[-1].body["ok"]
                await _wait_for(lambda: synced[-1].tx_hash in node.tangle,
                                timeout=60.0)
                client.close()
                peer.close()
            finally:
                await runner.stop()

        fleet_sandbox.run(scenario())
        node = box["node"]
        assert box["last_attached"] is False
        assert box["tips_ok"] is True
        assert node.stats.sync_transactions_received == len(synced)
        assert node_state_hashes(node, credit_now=workload.credit_now) \
            == workload.reference_hashes

    @needs_fork
    def test_a_decoded_read_is_never_held_behind_an_older_waiter(
            self, fleet_sandbox, one_worker, monkeypatch):
        """Two clients each write three reads' worth of submits in one
        ``write()``.  The first client's first two reads fill the node
        (the node files no verdict meanwhile) and its reader waits for
        room; the second client's first read, decoded after that, is
        handed over at once instead of waiting behind it, so it is
        delivered before the first client's third read."""
        workload = build_workload(44, transactions=700, shards=2)
        streams = [[Transaction.from_bytes(encoded) for encoded in shard]
                   for shard in workload.shards]
        held, pull = [True], verify_workers._pull
        monkeypatch.setattr(
            verify_workers, "_pull",
            lambda worker: None if held[0] else pull(worker))
        fed = {}

        class Counted(FrameDecoder):
            def feed(self, data):
                fed[self] = fed.get(self, 0) + 1
                return super().feed(data)

        monkeypatch.setattr(aio, "FrameDecoder", Counted)
        runs, delivered = [], []

        def frames(sender, transactions, first):
            return b"".join(
                encode_frame(Message(
                    sender=sender, recipient=NODE,
                    kind="submit_transaction", sent_at=0.0,
                    body={"request_id": first + index,
                          "transaction": tx.to_bytes()}))
                for index, tx in enumerate(transactions))

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            node = build_node(NODE, workload.genesis, rng_seed=0)
            deliver_run, handle = node.deliver_run, node.handle_message

            def run_recorder(run):
                runs.append((run[0].sender, run[0].body["request_id"]))
                return deliver_run(run)

            def delivery_recorder(message, tx=None):
                delivered.append((message.sender,
                                  message.body["request_id"]))
                handle(message, tx)

            node.deliver_run = run_recorder
            node.handle_message = delivery_recorder
            transport = _transport(scheduler, {})
            runner = NodeRunner(node, transport, listen=("127.0.0.1", 0))
            try:
                await runner.start()
                first_reader, first = await asyncio.open_connection(
                    *runner.bound_address)
                second_reader, second = await asyncio.open_connection(
                    *runner.bound_address)
                first.write(frames("c1", streams[0][:1], 0))
                await first.drain()
                await _wait_for(
                    lambda: streams[0][0].tx_hash in node.tangle)
                first.write(frames("c1", streams[0][1:], 1))
                await first.drain()
                await _wait_for(
                    lambda: len(node.lane._runs) == RUNS_IN_FLIGHT)
                reads = sum(fed.values())
                second.write(frames("c2", streams[1][1:], 1))
                await second.drain()
                await _wait_for(lambda: sum(fed.values()) > reads)
                await asyncio.sleep(0.05)
                held[0] = False
                total = sum(len(stream) - 1 for stream in streams)
                await _wait_for(lambda: len(delivered) >= total + 1,
                                timeout=60.0)
                first.close()
                second.close()
            finally:
                await runner.stop()

        fleet_sandbox.run(scenario())
        first_runs = [start for sender, start in runs
                      if sender == "c1" and start > 0]
        second_first = delivered.index(("c2", 1))
        assert len(first_runs) >= 3
        assert second_first < delivered.index(("c1", first_runs[2]))


class TestDeliveryLatency:
    def test_a_read_frame_records_no_latency_sample(self, fleet_sandbox):
        """Two processes' clocks share no origin, so the wire transport
        observes no send-to-delivery latency: a frame stamped
        ``sent_at=0.0`` (what a driver writes) leaves the histogram
        unobserved instead of recording the receiver's uptime."""
        name = "repro_network_delivery_latency_seconds"

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=1000.0)
            registry = MetricsRegistry()
            server = Recorder("server")
            runner = NodeRunner(server, _transport(scheduler, {},
                                                   telemetry=registry),
                                listen=("127.0.0.1", 0))
            try:
                await runner.start()
                await asyncio.sleep(0.01)  # the receiver's clock moves on
                _, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(encode_frame(Message(
                    sender="raw", recipient="server", kind="ping",
                    body=None, sent_at=0.0)))
                await writer.drain()
                await _wait_for(lambda: server.received)
                writer.close()
                return registry
            finally:
                await runner.stop()

        snapshot = fleet_sandbox.run(scenario()).snapshot()
        assert snapshot.get(name, {"count": 0})["count"] == 0
        assert snapshot["repro_network_messages_delivered_total"][
            "series"] == {"kind=ping": 1.0}


class TestGracefulShutdown:
    def test_close_is_idempotent_and_stops_sends(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            server = Recorder("server")
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", 0))
            client = Recorder("client")
            client_transport = _transport(scheduler, directory)
            client_runner = NodeRunner(client, client_transport)
            await server_runner.start()
            await client_runner.start()
            assert client.send("server", "ping", None)
            await _wait_for(lambda: server.received)

            await client_runner.stop()
            await client_runner.stop()  # idempotent
            refused = client.send("server", "ping", None)
            await server_runner.stop()
            return refused

        assert fleet_sandbox.run(scenario()) is False

    def test_outbox_flushes_before_teardown(self, fleet_sandbox):
        """Messages sent immediately before close() still arrive: close
        waits (briefly) for outboxes to drain before cancelling."""
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            directory = {}
            server = Recorder("server")
            server_runner = NodeRunner(server,
                                       _transport(scheduler, directory),
                                       listen=("127.0.0.1", 0))
            client = Recorder("client")
            client_runner = NodeRunner(client,
                                       _transport(scheduler, directory))
            try:
                await server_runner.start()
                await client_runner.start()
                for n in range(5):
                    assert client.send("server", "burst", {"n": n})
                await client_runner.stop()  # flush, then tear down
                await _wait_for(lambda: len(server.received) == 5)
                return [m.body["n"] for m in server.received]
            finally:
                await server_runner.stop()

        assert fleet_sandbox.run(scenario()) == [0, 1, 2, 3, 4]
