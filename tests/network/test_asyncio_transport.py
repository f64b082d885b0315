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

from repro.faults.backoff import BackoffPolicy
from repro.network.aio import (
    AsyncClock,
    AsyncioScheduler,
    AsyncioTransport,
    NodeRunner,
)
from repro.network.base import Transport, is_transport
from repro.network.frame import encode_frame
from repro.network.network import Network, NetworkNode
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import TraceContext, Tracer

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
            assert len(scheduler) == 1
            await asyncio.sleep(0.1)
            return fired, scheduler.events_executed, len(scheduler)

        fired, executed, pending = fleet_sandbox.run(scenario())
        assert fired == ["a"]
        assert executed == 1
        assert pending == 0

    def test_cancel_prevents_firing(self, fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler(time_scale=50.0)
            fired = []
            event_id = scheduler.schedule(0.5, lambda: fired.append("a"))
            scheduler.cancel(event_id)
            await asyncio.sleep(0.05)
            return fired

        assert fleet_sandbox.run(scenario()) == []

    def test_given_a_loop_it_schedules_from_plain_code_and_runs_it(self):
        """The driver half of the contract: no loop is running when the
        timer is armed; ``run_for`` runs the scheduler's own loop for
        the wall-clock equivalent of the simulated span."""
        loop = asyncio.new_event_loop()
        try:
            scheduler = AsyncioScheduler(time_scale=50.0, loop=loop)
            fired = []
            scheduler.schedule(0.5, lambda: fired.append("a"))  # 10ms wall
            scheduler.schedule(50.0, lambda: fired.append("late"))
            before = scheduler.clock.now()
            scheduler.run_for(5.0)  # 100ms wall
            assert fired == ["a"]
            assert scheduler.clock.now() - before >= 5.0
            assert len(scheduler) == 1
            scheduler.cancel_all()
        finally:
            loop.close()

    def test_without_a_loop_plain_code_cannot_schedule(self):
        with pytest.raises(RuntimeError):
            AsyncioScheduler().schedule(0.0, lambda: None)

    def test_rejects_negative_delay_and_past_timestamps(self,
                                                        fleet_sandbox):
        async def scenario():
            scheduler = AsyncioScheduler()
            with pytest.raises(ValueError):
                scheduler.schedule(-1.0, lambda: None)
            with pytest.raises(ValueError):
                scheduler.schedule_at(scheduler.clock.now() - 5.0,
                                      lambda: None)

        fleet_sandbox.run(scenario())


class TestTransportContract:
    def test_both_transports_satisfy_the_protocol(self):
        sim = Network(EventScheduler())
        assert is_transport(sim)
        assert isinstance(sim, Transport)
        aio = _transport(AsyncioScheduler(), {})
        assert is_transport(aio)
        assert isinstance(aio, Transport)


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
    def test_a_read_is_shown_to_the_node_before_it_is_delivered(
            self, fleet_sandbox):
        """Frames written together arrive in one ``read()``; the node
        sees the ones it is about to be delivered — not a registered
        handler's, not another recipient's — as one run ahead of the
        first delivery.  A frame that arrives alone forms no run."""
        class RunRecorder(Recorder):
            def prepare_run(self, messages):
                self.received.append([m.body for m in messages])

        def framed(kind, body, recipient="server"):
            return encode_frame(Message(
                sender="raw", recipient=recipient, kind=kind, body=body,
                sent_at=0.0))

        async def scenario():
            scheduler = AsyncioScheduler(time_scale=20.0)
            server = RunRecorder("server")
            transport = _transport(scheduler, {})
            handled = []
            transport.register_handler("control", handled.append)
            runner = NodeRunner(server, transport, listen=("127.0.0.1", 0))
            try:
                await runner.start()
                _, writer = await asyncio.open_connection(
                    *runner.bound_address)
                writer.write(framed("ping", 1) + framed("control", 2)
                             + framed("ping", 3, recipient="elsewhere")
                             + framed("ping", 4))
                await writer.drain()
                await _wait_for(lambda: len(server.received) >= 3)
                writer.write(framed("ping", 5))
                await writer.drain()
                await _wait_for(lambda: len(server.received) >= 4)
                writer.close()
                return ([m.body if isinstance(m, Message) else m
                         for m in server.received],
                        [m.body for m in handled])
            finally:
                await runner.stop()

        seen, handled = fleet_sandbox.run(scenario())
        assert seen == [[1, 4], 1, 4, 5]
        assert handled == [2]


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
