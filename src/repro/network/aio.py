"""Real asyncio/TCP transport behind the Transport contract.

Where :class:`~repro.network.network.Network` simulates delivery on a
discrete-event heap, :class:`AsyncioTransport` moves the same protocol
messages as length-prefixed frames (:mod:`repro.network.frame`) over
localhost/LAN TCP.  Each transport instance carries exactly one node —
a full node, a light node, or the manager — and a :class:`NodeRunner`
hosts the pair as asyncio tasks: accept loop (when listening), a
writer task for a peer while it (re)connects with
:class:`~repro.faults.backoff.BackoffPolicy` or waits on a full socket,
one reader task per live connection, and a graceful shutdown that
flushes outboxes before tearing sockets down.

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
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..devices.clock import Clock
from ..faults.backoff import DEFAULT_BACKOFF, BackoffPolicy
from ..telemetry.registry import BYTES_BUCKETS, coerce_registry
from ..telemetry.tracer import NULL_TRACER
from .frame import FrameDecoder, FrameError, encode_frame
from .transport import Message

__all__ = ["AsyncClock", "AsyncioScheduler", "AsyncioTransport",
           "NodeRunner"]

READ_CHUNK = 65536
"""Bytes asked of one ``read()``: the most a run batch can carry."""

COALESCE_FRAMES = 16
"""Frames a peer's outbox holds before they are written out as one
``write()`` within the sending callback; fewer go at its end
(:meth:`AsyncioTransport._flush`).  Also the most a writer task takes
off the outbox at once."""

FLUSH_TIMEOUT_S = 1.0
"""Wall seconds :meth:`AsyncioTransport.close` waits for outboxes to
drain before tearing sockets down."""


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

    Nodes get ``clock``, ``schedule`` and ``trace_binder``
    (``loop.call_later`` underneath); drivers get ``run_for`` and, at
    shutdown, ``cancel_all``.  Given ``loop=``, timers and sends also
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

    def cancel_all(self) -> None:
        """Cancel every pending timer (shutdown)."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()


class AsyncioTransport:
    """One node's TCP endpoint, satisfying the Transport contract
    (:mod:`repro.network.base`).

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
                 telemetry=None, tracer=None):
        self.scheduler = scheduler
        self.directory = directory if directory is not None else {}
        self._rng = rng if rng is not None else random.Random()
        self.reconnect_policy = reconnect_policy if reconnect_policy \
            is not None else DEFAULT_BACKOFF
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = coerce_registry(telemetry)
        self._node = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.listen_address: Optional[Tuple[str, int]] = None
        self.advertised_address: Optional[Tuple[str, int]] = None
        # kind -> callable(Message); consulted before node delivery so
        # out-of-band protocols (peer discovery, fleet control) can ride
        # the same framed envelopes without touching node handlers.
        self._handlers: Dict[str, object] = {}
        # peer -> frames not yet written, in send order: the one queue
        # a frame leaves by, through _flush or the peer's writer task.
        self._outboxes: Dict[str, Deque[Tuple[bytes, str]]] = {}
        # peer -> the task that holds its outbox while it (re)connects
        # or waits on a drain; done once the outbox is empty.
        self._writer_tasks: Dict[str, asyncio.Task] = {}
        # peer -> the connection its writer task last wrote a chunk on.
        self._links: Dict[str, asyncio.StreamWriter] = {}
        self._reader_tasks: Set[asyncio.Task] = set()
        self._open_writers: Set[asyncio.StreamWriter] = set()
        self._reverse: Dict[str, asyncio.StreamWriter] = {}
        self._connected_once: Set[str] = set()
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
        route), the transport is shutting down, or the message is too
        large for one frame.  Each of those counts as a drop of its
        kind; none raises into the handler that is sending."""
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
            self.scheduler.schedule(0.0, lambda: self._dispatch([message]))
            return True
        if recipient not in self.directory and recipient not in self._reverse:
            self._count_drop(kind)
            return False
        try:
            frame = encode_frame(message)
        except FrameError:
            # Past MAX_FRAME_BYTES: a drop of this message, not an
            # error in the handler that is sending it.
            self._count_drop(kind)
            return False
        self._m_frame_bytes.observe(len(frame))
        outbox = self._outboxes.get(recipient)
        if outbox is None:
            outbox = self._outboxes[recipient] = deque()
        outbox.append((frame, kind))
        if len(outbox) >= COALESCE_FRAMES:
            self._flush(recipient)
        elif len(outbox) == 1:
            self.scheduler.loop.call_soon(self._flush, recipient)
        return True

    def _count_drop(self, kind: str) -> None:
        self.messages_dropped += 1
        self._m_dropped.inc(kind=kind)

    def _flush(self, peer: str) -> None:
        """Write what waits in *peer*'s outbox as one ``write()`` on its
        live connection, with no hop through a task.  While a writer
        task holds the peer, the task takes it instead, behind the chunk
        it holds; with no live connection, or one whose socket is backed
        up, a writer task is started to (re)connect and drain.  One
        queue and one writer at a time keep frames FIFO per peer — TCP
        preserves their order, which is what keeps parents arriving
        before children along any single connection."""
        outbox = self._outboxes[peer]
        task = self._writer_tasks.get(peer)
        if not outbox or self._closing or (
                task is not None and not task.done()):
            return
        link = self._link(peer)
        if link is not None and not link.transport.get_write_buffer_size():
            chunk = list(outbox)
            outbox.clear()
            link.write(b"".join([frame for frame, _ in chunk]))
            if not link.is_closing():
                self._count_sent(chunk)
                return
            # The write failed (a drain would raise): the chunk goes
            # again, first, on the next connection.
            outbox.extendleft(reversed(chunk))
            self._discard_writer(link)
        self._writer_tasks[peer] = self.scheduler.loop.create_task(
            self._writer_loop(peer))

    async def _writer_loop(self, peer: str) -> None:
        """Drain *peer*'s outbox over a connection that is re-dialed
        (backoff-paced) whenever it drops, in chunks of up to
        :data:`COALESCE_FRAMES` frames, one ``write()`` and ``drain()``
        each, until the outbox is empty.  A chunk whose drain fails is
        sent whole again on the next connection, ahead of everything
        behind it."""
        outbox = self._outboxes[peer]
        while outbox and not self._closing:
            chunk = [outbox.popleft()
                     for _ in range(min(COALESCE_FRAMES, len(outbox)))]
            while not self._closing:
                writer = self._link(peer)
                if writer is None:
                    writer = await self._connect(peer)
                if writer is None:
                    # Reconnect exhausted: this chunk (and the backlog
                    # behind it) is undeliverable right now.
                    for _, kind in chunk:
                        self._count_drop(kind)
                    while outbox:
                        self._count_drop(outbox.popleft()[1])
                    break
                try:
                    writer.write(b"".join([frame for frame, _ in chunk]))
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._discard_writer(writer)
                    continue
                self._links[peer] = writer
                self._count_sent(chunk)
                break

    def _count_sent(self, chunk: List[Tuple[bytes, str]]) -> None:
        sent: Dict[str, int] = {}
        size = 0
        for frame, kind in chunk:
            sent[kind] = sent.get(kind, 0) + 1
            size += len(frame)
        for kind, count in sent.items():
            self._m_frames_sent.inc(count, kind=kind)
        self._m_bytes_sent.inc(size)

    def _link(self, peer: str) -> Optional[asyncio.StreamWriter]:
        """The live connection *peer*'s frames go out on: the one its
        writer task last wrote on, else its reverse route."""
        writer = self._links.get(peer)
        if writer is not None and not writer.is_closing():
            return writer
        return self._usable_reverse(peer)

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
        for routes in (self._reverse, self._links):
            for peer, route in list(routes.items()):
                if route is writer:
                    routes.pop(peer, None)
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
                await self.room_for_run()
                try:
                    data = await reader.read(READ_CHUNK)
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
                rest = self._receive(messages, writer)
                if rest is not None:  # taken in turns: read on after it
                    await rest
                # A read never waits on the socket while it has buffered
                # bytes: yield, so every connection takes turns.
                await asyncio.sleep(0)
        finally:
            self._discard_writer(writer)

    async def room_for_run(self) -> None:
        """Return at this reader's turn to hand the node a run
        (``NetworkNode.run_room``): how a node's backlog of runs
        awaiting verdicts pauses its readers, oldest waiter first."""
        node = self._node
        if node is not None:
            turn = node.run_room()
            if turn is not None:
                await turn

    def _receive(self, messages: List[Message], writer):
        """Everything one ``read()`` completed: count its frames by kind
        once, give each sender a reverse route over *writer* (replies
        reach peers that never listen — drivers, light-node-style
        clients), then :meth:`_dispatch` them."""
        received: Dict[str, int] = {}
        reverse = self._reverse
        for message in messages:
            kind = message.kind
            received[kind] = received.get(kind, 0) + 1
            reverse[message.sender] = writer
        for kind, count in received.items():
            self._m_frames_received.inc(count, kind=kind)
        return self._dispatch(messages)

    def _dispatch(self, messages: List[Message]):
        """Deliver *messages* in order: a control-plane frame to its
        registered handler, and every stretch of frames for the local
        node between two of them as one run (``NetworkNode.deliver_run``,
        contract in :mod:`repro.network.base`).  A frame carrying a
        trace context is a run of its own, delivered and finished under
        that context.  Before either, the node finishes every run it
        holds pending (``NetworkNode.finish_runs``), so a handler sees
        exactly the frames before it delivered.  Deliveries are counted
        by kind once per call.  Returns what the last ``deliver_run``
        returned if nothing finished it."""
        if self._closing:
            for message in messages:
                self._count_drop(message.kind)
            return None
        node = self._node
        address = node.address if node is not None else None
        handlers = self._handlers
        delivered: Dict[str, int] = {}
        run: List[Message] = []
        try:
            for message in messages:
                kind = message.kind
                handler = handlers.get(kind)
                if handler is None and message.recipient != address:
                    self._count_drop(kind)
                    continue
                delivered[kind] = delivered.get(kind, 0) + 1
                if handler is None and message.trace is None:
                    run.append(message)
                    continue
                if run:
                    node.deliver_run(run)
                    run = []
                if node is not None:
                    node.finish_runs()
                if handler is not None:
                    handler(message)
                else:
                    with self.tracer.activate(message.trace):
                        node.deliver_run([message])
                        node.finish_runs()
            if run:
                return node.deliver_run(run)
        finally:
            for kind, count in delivered.items():
                self.messages_delivered += count
                self._m_delivered.inc(count, kind=kind)
        return None

    # -- shutdown ----------------------------------------------------------

    async def close(self) -> None:
        """Graceful shutdown: deliver every run the node holds pending,
        flush outboxes briefly, then tear down the server, every
        connection, and every task.  Idempotent."""
        if self._closing:
            return
        if self._node is not None:
            self._node.finish_runs()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + FLUSH_TIMEOUT_S
        while ((any(self._outboxes.values())
                or any(not task.done()
                       for task in self._writer_tasks.values()))
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
        self._links.clear()


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

    async def start(self) -> "NodeRunner":
        if self._listen is not None:
            self.bound_address = await self.transport.listen(
                *self._listen, advertise_host=self._advertise_host)
        return self

    async def stop(self) -> None:
        await self.transport.close()
