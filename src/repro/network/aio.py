"""Real asyncio/TCP transport behind the Network interface.

Where :class:`~repro.network.network.Network` simulates delivery on a
discrete-event heap, :class:`AsyncioTransport` moves the same protocol
messages as length-prefixed frames (:mod:`repro.network.frame`) over
localhost/LAN TCP.  Each transport instance carries exactly one node —
a full node, a light node, or the manager — and a :class:`NodeRunner`
hosts the pair as asyncio tasks: accept loop (when listening), one
writer task per peer with reconnect-with-:class:`~repro.faults.backoff.
BackoffPolicy`, one reader task per live connection, and a graceful
shutdown that flushes outboxes before tearing sockets down.

Scheduling-facing node code is untouched: nodes read time through
``transport.scheduler.clock.now()`` and defer work through
``transport.scheduler.schedule(...)``, so :class:`AsyncioScheduler`
adapts those calls onto its event loop (``loop.call_later``)
and :class:`AsyncClock` maps wall time into *simulated seconds* through
a configurable ``time_scale`` — protocol timers written in simulated
seconds (keydist retries, parent-fetch backoff) fire proportionally
faster when a test compresses time.

Peers are found through a shared *directory* (address -> (host, port)),
filled in as runners bind their listen sockets.  Replies to peers that
do not listen (light-node style clients, test drivers) travel the
*reverse route*: every decoded frame registers its sender's connection,
and ``send`` prefers a live reverse route over dialing out.

Determinism boundary: this transport is **convergence-deterministic** —
the byte schedule varies run to run (kernel timing), but the replicated
state it carries must converge to the same tangle/ledger/ACL/credit
hashes as the simulator for the same seeded scenario.  The fleet
differential harness (:mod:`repro.harness.fleet`) asserts
exactly that.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Set, Tuple

from ..devices.clock import Clock
from ..faults.backoff import DEFAULT_BACKOFF, BackoffPolicy
from ..telemetry.registry import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    coerce_registry,
)
from ..telemetry.tracer import NULL_TRACER
from .frame import FrameDecoder, FrameError, encode_frame
from .transport import Message

__all__ = ["AsyncClock", "AsyncioScheduler", "AsyncioTransport",
           "NodeRunner"]


class AsyncClock(Clock):
    """Monotonic wall time rescaled into simulated seconds.

    ``time_scale`` is simulated seconds per wall second: 1.0 runs in
    real time; 20.0 makes a 0.5 s protocol backoff fire after 25 ms of
    wall time.  Scaling keeps protocol timer *code* identical across
    transports while letting wire tests compress waiting.
    """

    def __init__(self, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self._origin = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._origin) * self.time_scale

    def to_wall(self, sim_seconds: float) -> float:
        """Wall-clock seconds equivalent to *sim_seconds*."""
        return sim_seconds / self.time_scale


class AsyncioScheduler:
    """`EventScheduler`-shaped facade over an asyncio event loop.

    Nodes get ``clock``, ``schedule``, ``schedule_at``, ``cancel``,
    ``trace_binder`` and ``len()`` (``loop.call_later`` underneath);
    drivers get ``run_for``.  Given ``loop=``, timers and sends also
    work from plain code between two ``run_for`` calls; without it the
    running loop is used, so calls must come from inside it.
    """

    def __init__(self, clock: Optional[AsyncClock] = None, *,
                 time_scale: float = 1.0,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.clock = clock if clock is not None else AsyncClock(time_scale)
        self.trace_binder = None
        self.events_executed = 0
        self._loop = loop
        self._handles: Dict[int, asyncio.TimerHandle] = {}
        self._sequence = 0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The loop given at construction, else the running one."""
        return self._loop if self._loop is not None \
            else asyncio.get_running_loop()

    def run_for(self, seconds: float) -> None:
        """Run the loop for *seconds* of simulated time (driver side:
        not callable from inside the loop)."""
        self.loop.run_until_complete(
            asyncio.sleep(self.clock.to_wall(seconds)))

    def schedule(self, delay: float, callback) -> int:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        loop = self.loop
        event_id = self._sequence
        self._sequence += 1
        binder = self.trace_binder
        context = binder.capture() if binder is not None else None

        def fire() -> None:
            self._handles.pop(event_id, None)
            self.events_executed += 1
            if binder is None:
                callback()
            else:
                with binder.activate(context):
                    callback()

        self._handles[event_id] = loop.call_later(
            self.clock.to_wall(delay), fire)
        return event_id

    def schedule_at(self, timestamp: float, callback) -> int:
        delay = timestamp - self.clock.now()
        if delay < 0:
            raise ValueError(
                f"cannot schedule in the past ({timestamp} < "
                f"{self.clock.now()})")
        return self.schedule(delay, callback)

    def cancel(self, event_id: int) -> None:
        handle = self._handles.pop(event_id, None)
        if handle is not None:
            handle.cancel()

    def __len__(self) -> int:
        return len(self._handles)

    def cancel_all(self) -> None:
        """Cancel every pending timer (shutdown)."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()


class AsyncioTransport:
    """One node's TCP endpoint, satisfying the Transport contract.

    Args:
        scheduler: the shared :class:`AsyncioScheduler` (all runners in
            one process share one loop, one scheduler, one clock).
        directory: shared mutable address book
            (``address -> (host, port)``); runners add themselves as
            their listen sockets bind.
        rng: jitter source for reconnect backoff.
        reconnect_policy: :class:`~repro.faults.backoff.BackoffPolicy`
            pacing re-dials after connect failures or lost connections.
        telemetry: registry for the ``repro_transport_*`` instruments.
        tracer: trace contexts are stamped onto outgoing messages and
            restored around delivery, exactly as on the simulator; on
            the wire they ride the frame's header extension.
    """

    def __init__(self, scheduler: AsyncioScheduler, *,
                 directory: Optional[Dict[str, Tuple[str, int]]] = None,
                 rng: Optional[random.Random] = None,
                 reconnect_policy: Optional[BackoffPolicy] = None,
                 telemetry=None, tracer=None,
                 read_chunk: int = 65536):
        self.scheduler = scheduler
        self.directory = directory if directory is not None else {}
        self._rng = rng if rng is not None else random.Random()
        self.reconnect_policy = reconnect_policy if reconnect_policy \
            is not None else DEFAULT_BACKOFF
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = coerce_registry(telemetry)
        self._read_chunk = read_chunk
        self._node = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.listen_address: Optional[Tuple[str, int]] = None
        self.advertised_address: Optional[Tuple[str, int]] = None
        # kind -> callable(Message); consulted before node delivery so
        # out-of-band protocols (peer discovery, fleet control) can ride
        # the same framed envelopes without touching node handlers.
        self._handlers: Dict[str, object] = {}
        self._outboxes: Dict[str, asyncio.Queue] = {}
        self._writer_tasks: Dict[str, asyncio.Task] = {}
        self._reader_tasks: Set[asyncio.Task] = set()
        self._open_writers: Set[asyncio.StreamWriter] = set()
        self._reverse: Dict[str, asyncio.StreamWriter] = {}
        self._connected_once: Set[str] = set()
        self._taps: List = []
        self._closing = False
        self._message_sequence = 0
        # Counter parity with Network, so summaries read the same.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.reconnect_attempts = 0
        self._m_sent = self.telemetry.counter(
            "repro_network_messages_sent_total",
            "Messages handed to the network, by kind")
        self._m_delivered = self.telemetry.counter(
            "repro_network_messages_delivered_total",
            "Messages delivered to their recipient, by kind")
        self._m_dropped = self.telemetry.counter(
            "repro_network_messages_dropped_total",
            "Messages lost (down node, cut link, loss model)")
        self._m_latency = self.telemetry.histogram(
            "repro_network_delivery_latency_seconds",
            "Send-to-delivery simulated latency",
            buckets=SECONDS_BUCKETS)
        self._m_frames_sent = self.telemetry.counter(
            "repro_transport_frames_sent_total",
            "Frames written to TCP connections, by kind")
        self._m_frames_received = self.telemetry.counter(
            "repro_transport_frames_received_total",
            "Frames decoded off TCP connections, by kind")
        self._m_bytes_sent = self.telemetry.counter(
            "repro_transport_bytes_sent_total",
            "Bytes written to TCP connections")
        self._m_bytes_received = self.telemetry.counter(
            "repro_transport_bytes_received_total",
            "Bytes read from TCP connections")
        self._m_frame_bytes = self.telemetry.histogram(
            "repro_transport_frame_bytes",
            "Encoded frame sizes on the wire",
            buckets=BYTES_BUCKETS)
        self._m_reconnects = self.telemetry.counter(
            "repro_transport_reconnects_total",
            "Connection attempts beyond a peer's first (failure retries "
            "and re-dials after a lost connection)")
        self._m_frame_errors = self.telemetry.counter(
            "repro_transport_frame_errors_total",
            "Streams dropped for framing violations (bad magic/CRC/"
            "truncation)")
        self._m_connections = self.telemetry.gauge(
            "repro_transport_connections",
            "Currently open TCP connections (either direction)")

    # -- topology ----------------------------------------------------------

    def attach(self, node) -> None:
        """Bind the single local *node* this transport carries."""
        if self._node is not None:
            raise ValueError(
                f"transport already carries {self._node.address!r}; "
                f"AsyncioTransport is one-node-per-instance")
        self._node = node
        node.bind(self)
        if self.advertised_address is not None:
            # listen() ran before attach: publish now that the bound
            # address finally has a node name to file it under.
            self.directory[node.address] = self.advertised_address

    def node(self, address: str):
        if self._node is not None and self._node.address == address:
            return self._node
        raise KeyError(address)

    @property
    def addresses(self) -> List[str]:
        known = set(self.directory) | set(self._reverse)
        if self._node is not None:
            known.add(self._node.address)
        return sorted(known)

    def add_tap(self, tap) -> None:
        """Observe every delivered message (metrics, debugging)."""
        self._taps.append(tap)

    def register_handler(self, kind: str, handler) -> None:
        """Route every received frame of *kind* to *handler* instead of
        the local node.

        Control-plane protocols (peer discovery ``disc_*``, fleet
        control ``fleet_*``) register here: their handlers run before
        the recipient check, so a frame addressed to a node name that
        has not bootstrapped yet — exactly the situation during
        discovery — is still answered instead of dropped.  One handler
        per kind; re-registering a kind replaces the previous handler.
        """
        self._handlers[kind] = handler

    # -- listening ---------------------------------------------------------

    _WILDCARD_HOSTS = frozenset({"0.0.0.0", "::", ""})

    async def listen(self, host: str = "127.0.0.1", port: int = 0, *,
                     advertise_host: Optional[str] = None
                     ) -> Tuple[str, int]:
        """Accept inbound connections; returns the bound (host, port).

        Port 0 picks an ephemeral port — the sandboxed fleet fixture's
        default, so parallel test runs never collide; the OS-assigned
        port is read back from the bound socket and surfaced through
        :attr:`listen_address`.  The *advertised* address — what peers
        should dial — is published into the shared
        directory: ``advertise_host`` when given, otherwise the bind
        host, with wildcard binds (``0.0.0.0`` / ``::``) rewritten to
        ``127.0.0.1`` because a wildcard is listenable but not dialable.
        If no node is attached yet, publication is deferred until
        :meth:`attach` names one.
        """
        if self._server is not None:
            raise RuntimeError("transport is already listening")
        self._server = await asyncio.start_server(
            self._serve_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.listen_address = (sockname[0], sockname[1])
        if advertise_host is None:
            advertise_host = ("127.0.0.1" if host in self._WILDCARD_HOSTS
                              else host)
        self.advertised_address = (advertise_host, sockname[1])
        if self._node is not None:
            self.directory[self._node.address] = self.advertised_address
        return self.listen_address

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        try:
            await self._read_loop(reader, writer)
        except asyncio.CancelledError:
            # Swallow shutdown cancellation: asyncio.streams inspects
            # this task's exception from its connection_made callback,
            # and a cancelled result would be re-raised into the loop's
            # exception handler as teardown noise.
            pass
        finally:
            self._reader_tasks.discard(task)

    # -- transmission ------------------------------------------------------

    def send(self, sender: str, recipient: str, kind: str, body, *,
             size_bytes: int = 0) -> bool:
        """Frame and enqueue one message; returns False when the
        recipient is not routable (not in the directory and no reverse
        route) or the transport is shutting down."""
        self.messages_sent += 1
        self._m_sent.inc(kind=kind)
        if self._closing:
            self._count_drop(kind)
            return False
        self._message_sequence += 1
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            body=body,
            sent_at=self.scheduler.clock.now(),
            size_bytes=size_bytes,
            message_id=self._message_sequence,
            trace=self.tracer.current,
        )
        if self._node is not None and recipient == self._node.address:
            # Loopback keeps the async-hop property: delivery happens
            # on a later loop iteration, never inside the send call.
            self.scheduler.schedule(0.0, lambda: self._dispatch(message))
            return True
        if recipient not in self.directory and recipient not in self._reverse:
            self._count_drop(kind)
            return False
        frame = encode_frame(message)
        self._m_frame_bytes.observe(len(frame))
        self._outbox(recipient).put_nowait((frame, kind))
        self._ensure_writer(recipient)
        return True

    def broadcast(self, sender: str, kind: str, body, *,
                  recipients: Optional[List[str]] = None,
                  size_bytes: int = 0) -> int:
        targets = recipients if recipients is not None else [
            addr for addr in self.addresses if addr != sender
        ]
        return sum(
            1 for addr in targets
            if self.send(sender, addr, kind, body, size_bytes=size_bytes)
        )

    def _count_drop(self, kind: str) -> None:
        self.messages_dropped += 1
        self._m_dropped.inc(kind=kind)

    def _outbox(self, peer: str) -> asyncio.Queue:
        queue = self._outboxes.get(peer)
        if queue is None:
            queue = asyncio.Queue()
            self._outboxes[peer] = queue
        return queue

    def _ensure_writer(self, peer: str) -> None:
        task = self._writer_tasks.get(peer)
        if task is None or task.done():
            self._writer_tasks[peer] = self.scheduler.loop.create_task(
                self._writer_loop(peer))

    async def _writer_loop(self, peer: str) -> None:
        """Drain *peer*'s outbox over a connection that is re-dialed
        (backoff-paced) whenever it drops.  Frames are FIFO per peer —
        TCP preserves their order, which is what keeps parents arriving
        before children along any single connection."""
        queue = self._outbox(peer)
        writer: Optional[asyncio.StreamWriter] = None
        while not self._closing:
            frame, kind = await queue.get()
            while not self._closing:
                if writer is None or writer.is_closing():
                    writer = self._usable_reverse(peer)
                if writer is None:
                    writer = await self._connect(peer)
                if writer is None:
                    # Reconnect exhausted: this frame (and the backlog
                    # behind it) is undeliverable right now.
                    self._count_drop(kind)
                    while not queue.empty():
                        _, queued_kind = queue.get_nowait()
                        self._count_drop(queued_kind)
                    break
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._discard_writer(writer)
                    writer = None
                    continue
                self._m_frames_sent.inc(kind=kind)
                self._m_bytes_sent.inc(len(frame))
                break

    def _usable_reverse(self, peer: str) -> Optional[asyncio.StreamWriter]:
        writer = self._reverse.get(peer)
        if writer is not None and writer.is_closing():
            self._reverse.pop(peer, None)
            return None
        return writer

    async def _connect(self, peer: str) -> Optional[asyncio.StreamWriter]:
        address = self.directory.get(peer)
        if address is None:
            return None
        attempt = 0
        while not self._closing:
            attempt += 1
            if attempt > 1 or peer in self._connected_once:
                self.reconnect_attempts += 1
                self._m_reconnects.inc(peer=peer)
            try:
                reader, writer = await asyncio.open_connection(*address)
            except OSError:
                if self.reconnect_policy.exhausted(attempt):
                    return None
                delay = self.reconnect_policy.delay(attempt, self._rng)
                await asyncio.sleep(self.scheduler.clock.to_wall(delay))
                continue
            self._connected_once.add(peer)
            self._track_connection(writer)
            task = self.scheduler.loop.create_task(
                self._read_loop(reader, writer))
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
            return writer
        return None

    # -- reception ---------------------------------------------------------

    def _track_connection(self, writer: asyncio.StreamWriter) -> None:
        self._open_writers.add(writer)
        self._m_connections.inc()

    def _untrack_connection(self, writer: asyncio.StreamWriter) -> None:
        if writer in self._open_writers:
            self._open_writers.discard(writer)
            self._m_connections.dec()

    def _discard_writer(self, writer: asyncio.StreamWriter) -> None:
        self._untrack_connection(writer)
        for peer, reverse in list(self._reverse.items()):
            if reverse is writer:
                self._reverse.pop(peer, None)
        try:
            writer.close()
        except Exception:
            pass

    async def _read_loop(self, reader, writer) -> None:
        """Decode frames off one connection until EOF or a framing
        violation (which drops the stream — a misframed peer cannot be
        resynchronised)."""
        if writer not in self._open_writers:
            self._track_connection(writer)
        decoder = FrameDecoder()
        try:
            while not self._closing:
                try:
                    data = await reader.read(self._read_chunk)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                self._m_bytes_received.inc(len(data))
                try:
                    messages = decoder.feed(data)
                except FrameError:
                    self._m_frame_errors.inc()
                    break
                self._prepare_run(messages)
                for message in messages:
                    self._m_frames_received.inc(kind=message.kind)
                    # Reverse route: replies reach peers that never
                    # listen (drivers, light-node-style clients).
                    self._reverse[message.sender] = writer
                    self._dispatch(message)
        finally:
            self._discard_writer(writer)

    def _prepare_run(self, messages: List[Message]) -> None:
        """Show the local node what one ``read()`` carried for it before
        the first frame is dispatched (``NetworkNode.prepare_run``).  A
        lone frame has nothing to be prepared together with."""
        node = self._node
        if node is None or len(messages) < 2:
            return
        node.prepare_run([
            message for message in messages
            if message.recipient == node.address
            and message.kind not in self._handlers])

    def _dispatch(self, message: Message) -> None:
        if self._closing:
            self._count_drop(message.kind)
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            self.messages_delivered += 1
            self._m_delivered.inc(kind=message.kind)
            handler(message)
            return
        node = self._node
        if node is None:
            self._count_drop(message.kind)
            return
        if message.recipient != node.address:
            self._count_drop(message.kind)
            return
        self.messages_delivered += 1
        self._m_delivered.inc(kind=message.kind)
        self._m_latency.observe(
            max(0.0, self.scheduler.clock.now() - message.sent_at))
        if message.trace is not None:
            with self.tracer.activate(message.trace):
                for tap in self._taps:
                    tap(message)
                node._deliver(message)
            return
        for tap in self._taps:
            tap(message)
        node._deliver(message)

    # -- shutdown ----------------------------------------------------------

    async def close(self, *, flush_timeout: float = 1.0) -> None:
        """Graceful shutdown: flush outboxes briefly, then tear down
        the server, every connection, and every task.  Idempotent."""
        if self._closing:
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + flush_timeout
        while (any(not q.empty() for q in self._outboxes.values())
               and loop.time() < deadline):
            await asyncio.sleep(0.01)
        self._closing = True
        tasks = list(self._writer_tasks.values()) + list(self._reader_tasks)
        for task in tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._open_writers):
            self._discard_writer(writer)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._writer_tasks.clear()
        self._reader_tasks.clear()
        self._reverse.clear()


class NodeRunner:
    """Hosts one node on one :class:`AsyncioTransport`.

    ``listen=(host, port)`` (port 0 = ephemeral) starts an accept loop
    and publishes the bound address into the shared directory;
    ``listen=None`` makes a connect-only runner (light nodes, drivers).
    """

    def __init__(self, node, transport: AsyncioTransport, *,
                 listen: Optional[Tuple[str, int]] = None,
                 advertise_host: Optional[str] = None):
        self.node = node
        self.transport = transport
        self._listen = listen
        self._advertise_host = advertise_host
        self.bound_address: Optional[Tuple[str, int]] = None
        transport.attach(node)

    @property
    def address(self) -> str:
        return self.node.address

    @property
    def bound_port(self) -> Optional[int]:
        """The OS-assigned listen port (after start), or None."""
        return None if self.bound_address is None else \
            self.bound_address[1]

    async def start(self) -> "NodeRunner":
        if self._listen is not None:
            self.bound_address = await self.transport.listen(
                *self._listen, advertise_host=self._advertise_host)
        return self

    async def stop(self) -> None:
        await self.transport.close()
