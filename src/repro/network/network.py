"""The simulated network connecting B-IoT nodes.

Nodes register under string addresses; :meth:`Network.send` samples the
link's latency model and schedules delivery on the shared
:class:`~repro.network.simulator.EventScheduler`.  Links can be cut and
restored at runtime, which is how the single-point-of-failure and DDoS
experiments disturb the system.

:class:`Network` is the simulator backend of the
:class:`~repro.network.base.Transport` contract (``scheduler``,
``attach``, ``send``), next to
:class:`~repro.network.aio.AsyncioTransport`; the rest of its surface
(links, failure switches, overlays) is what fault injection drives.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..telemetry.registry import SECONDS_BUCKETS, coerce_registry
from ..telemetry.tracer import NULL_TRACER
from .simulator import EventScheduler
from .transport import LOCAL_LINK, LatencyModel, LinkOverlay, Message

DUPLICATE_SPREAD_SECONDS = 0.05
"""Extra uniform delay a duplicated copy picks up over the original."""

__all__ = ["NetworkNode", "Network"]


class NetworkNode:
    """Base class for anything attachable to a :class:`Network`.

    Subclasses implement :meth:`handle_message`; the network injects
    itself via :meth:`bind` so nodes can reply.

    ``service_time_s`` models the node's request-processing capacity:
    when positive, each delivered message occupies the node for that
    many seconds and later arrivals queue behind it (a single-server
    FIFO).  This is what makes flooding attacks *mean* something — a
    DDoSed gateway's queue grows and honest requests see its backlog.
    Zero (the default) keeps the node infinitely fast.
    """

    def __init__(self, address: str, *, service_time_s: float = 0.0):
        if not address:
            raise ValueError("node address must be non-empty")
        if service_time_s < 0:
            raise ValueError("service_time_s must be non-negative")
        self.address = address
        self.service_time_s = service_time_s
        # Fault injection: the node's local clock reads this many
        # seconds ahead of (or behind) the shared simulation clock.
        self.clock_offset = 0.0
        self.network: Optional["Network"] = None
        self.received_count = 0
        self.queue_depth_peak = 0
        self._busy_until = 0.0
        self._queued = 0

    def bind(self, network: "Network") -> None:
        self.network = network

    def _now(self) -> float:
        """This node's local clock: the shared scheduler clock plus
        ``clock_offset`` (0.0 while the node is unbound)."""
        if self.network is None:
            return 0.0
        return self.network.scheduler.clock.now() + self.clock_offset

    def send(self, recipient: str, kind: str, body, *, size_bytes: int = 0) -> bool:
        """Send a message through the bound network."""
        if self.network is None:
            raise RuntimeError(f"node {self.address} is not attached to a network")
        return self.network.send(self.address, recipient, kind, body,
                                 size_bytes=size_bytes)

    def handle_message(self, message: Message) -> None:
        """Process a delivered message (subclasses override)."""
        raise NotImplementedError

    def deliver_run(self, run: List[Message]):
        """Deliver a *run*: the messages one ``read()`` of a stream
        transport carried for this node, in arrival order (the contract
        is in :mod:`repro.network.base`).  The outcome must not depend
        on how the stream was cut into runs.  The default delivers them
        one by one and returns None: the whole run is taken."""
        for message in run:
            self._deliver(message)

    def finish_runs(self) -> None:
        """Deliver every run an earlier :meth:`deliver_run` left
        pending.  The default delivers each run at once, so none is."""

    def run_room(self):
        """None while the node takes another run at once; else an
        awaitable a stream transport's reader waits on before it reads.
        The default never holds a reader back."""
        return None

    def _deliver(self, message: Message) -> None:
        self.received_count += 1
        self.handle_message(message)

    def processing_delay(self, now: float) -> float:
        """Queue this arrival behind the node's backlog; returns how
        long after *now* the node actually processes it."""
        if self.service_time_s <= 0.0:
            return 0.0
        start = max(now, self._busy_until)
        self._busy_until = start + self.service_time_s
        self._queued += 1
        backlog = int(round((self._busy_until - now) / self.service_time_s))
        self.queue_depth_peak = max(self.queue_depth_peak, backlog)
        return self._busy_until - now

    @property
    def backlog_seconds(self) -> float:
        """How far the node's queue currently extends past the clock
        (meaningful only when ``service_time_s`` is positive)."""
        if self.network is None:
            return 0.0
        return max(0.0, self._busy_until - self.network.scheduler.clock.now())


class Network:
    """Address-routed message fabric with per-link latency models.

    Args:
        scheduler: the event scheduler driving time.
        default_link: latency model for node pairs without an explicit
            link configured.
        rng: randomness for latency jitter and loss (seed it!).
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` for the
            ``repro_network_*`` metrics (sent/delivered/dropped message
            counts by kind, delivery latency distribution).
        tracer: a :class:`~repro.telemetry.tracer.Tracer` for causal-context
            propagation — the sender's ambient context is stamped onto
            each :class:`Message` as envelope metadata and restored
            around the delivery callback.  Defaults to the null tracer
            (no capture, no restore).
    """

    def __init__(self, scheduler: EventScheduler, *,
                 default_link: LatencyModel = LOCAL_LINK,
                 rng: Optional[random.Random] = None,
                 telemetry=None, tracer=None):
        self.scheduler = scheduler
        self.default_link = default_link
        self._rng = rng if rng is not None else random.Random()
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], LatencyModel] = {}
        self._down: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        # Fault-injection overlays: token -> (a, b, overlay); "*" is a
        # wildcard endpoint and matching is symmetric.
        self._overlays: Dict[int, Tuple[str, str, LinkOverlay]] = {}
        self._overlay_sequence = 0
        # Scheduled-but-undelivered messages, by scheduler event id, so
        # partitions and crashes can purge what is already in flight.
        self._in_flight: Dict[int, Message] = {}
        # Per-transport message-id allocator: ids are deterministic
        # (1, 2, 3, …) within one Network, and independent across
        # Networks sharing a process.
        self._message_sequence = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_purged = 0
        self.messages_duplicated = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = coerce_registry(telemetry)
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
        self._m_purged = self.telemetry.counter(
            "repro_fault_messages_purged_total",
            "In-flight messages purged by a partition cut or crash")
        self._m_duplicated = self.telemetry.counter(
            "repro_fault_messages_duplicated_total",
            "Messages delivered twice by a duplication overlay")

    # -- topology --------------------------------------------------------

    def attach(self, node: NetworkNode) -> None:
        """Register *node* under its address (must be unique)."""
        if node.address in self._nodes:
            raise ValueError(f"address {node.address!r} already attached")
        self._nodes[node.address] = node
        node.bind(self)

    def node(self, address: str) -> NetworkNode:
        return self._nodes[address]

    def set_link(self, a: str, b: str, model: LatencyModel) -> None:
        """Configure the latency model between *a* and *b* (symmetric)."""
        self._links[(a, b)] = model
        self._links[(b, a)] = model

    def link_for(self, sender: str, recipient: str) -> LatencyModel:
        return self._links.get((sender, recipient), self.default_link)

    # -- failures --------------------------------------------------------

    def take_down(self, address: str) -> None:
        """Crash a node: all traffic to/from it is dropped.

        Messages already in flight *towards* the crashed node are
        purged immediately (a dead radio receives nothing); packets it
        transmitted before dying keep propagating — that is what closes
        the crash-time replication window.
        """
        if address not in self._nodes:
            raise KeyError(address)
        self._down.add(address)
        self._purge_in_flight(lambda msg: msg.recipient == address)

    def bring_up(self, address: str) -> None:
        """Restore a crashed node."""
        self._down.discard(address)

    def is_down(self, address: str) -> bool:
        return address in self._down

    def cut_link(self, a: str, b: str) -> None:
        """Partition: silently drop traffic between *a* and *b*.

        Also purges messages scheduled before the cut but not yet
        delivered — a severed cable loses what was on the wire.
        """
        self._cut_links.add((a, b))
        self._cut_links.add((b, a))
        self._purge_in_flight(
            lambda msg: {msg.sender, msg.recipient} == {a, b}
        )

    def heal_link(self, a: str, b: str) -> None:
        self._cut_links.discard((a, b))
        self._cut_links.discard((b, a))

    def restore_all(self) -> None:
        """Clear every failure switch: bring crashed nodes up, heal
        cuts, lift overlays, zero clock offsets.  The chaos runner
        calls this before its convergence phase so unhealed faults in a
        plan cannot make reconciliation structurally impossible."""
        self._down.clear()
        self._cut_links.clear()
        self._overlays.clear()
        for node in self._nodes.values():
            node.clock_offset = 0.0

    def _purge_in_flight(self, predicate: Callable[[Message], bool]) -> int:
        """Drop scheduled deliveries matching *predicate*; returns how
        many were purged (each counts as a drop)."""
        doomed = [event_id for event_id, msg in self._in_flight.items()
                  if predicate(msg)]
        for event_id in doomed:
            message = self._in_flight.pop(event_id)
            self.scheduler.cancel(event_id)
            self.messages_purged += 1
            self._m_purged.inc(kind=message.kind)
            self._count_drop(message.kind)
        return len(doomed)

    # -- disturbances (fault injection) ----------------------------------

    def add_overlay(self, a: str, b: str, overlay: LinkOverlay) -> int:
        """Stack *overlay* on traffic between *a* and *b* (symmetric;
        ``"*"`` matches any endpoint).  Returns a token for
        :meth:`remove_overlay`."""
        token = self._overlay_sequence
        self._overlay_sequence += 1
        self._overlays[token] = (a, b, overlay)
        return token

    def remove_overlay(self, token: int) -> None:
        """Lift a disturbance previously added with :meth:`add_overlay`."""
        self._overlays.pop(token, None)

    def _matching_overlays(self, sender: str, recipient: str) -> List[LinkOverlay]:
        matched = []
        for a, b, overlay in self._overlays.values():
            if ((a in ("*", sender) and b in ("*", recipient))
                    or (a in ("*", recipient) and b in ("*", sender))):
                matched.append(overlay)
        return matched

    # -- transmission ----------------------------------------------------

    def send(self, sender: str, recipient: str, kind: str, body, *,
             size_bytes: int = 0) -> bool:
        """Route one message; returns False if it was dropped.

        Drops happen when either endpoint is down, the link is cut, the
        recipient is unknown, or the latency model loses the packet.
        """
        self.messages_sent += 1
        self._m_sent.inc(kind=kind)
        if recipient not in self._nodes:
            self._count_drop(kind)
            return False
        if sender in self._down or recipient in self._down:
            self._count_drop(kind)
            return False
        if (sender, recipient) in self._cut_links:
            self._count_drop(kind)
            return False
        delay = self.link_for(sender, recipient).sample_delay(self._rng, size_bytes)
        if delay is None:
            self._count_drop(kind)
            return False
        duplicate = False
        for overlay in self._matching_overlays(sender, recipient):
            if (overlay.extra_loss > 0.0
                    and self._rng.random() < overlay.extra_loss):
                self._count_drop(kind)
                return False
            delay += overlay.extra_latency
            if overlay.extra_jitter > 0.0:
                delay += self._rng.uniform(0.0, overlay.extra_jitter)
            if (overlay.duplicate_probability > 0.0
                    and self._rng.random() < overlay.duplicate_probability):
                duplicate = True
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
        self._schedule_delivery(message, delay)
        if duplicate:
            self.messages_duplicated += 1
            self._m_duplicated.inc(kind=kind)
            self._schedule_delivery(
                message,
                delay + self._rng.uniform(0.0, DUPLICATE_SPREAD_SECONDS),
            )
        return True

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        node = self._nodes[message.recipient]
        # Arrival time = propagation; processing waits for the node's
        # service queue on top of that.
        arrival = self.scheduler.clock.now() + delay
        delay += node.processing_delay(arrival)
        holder: Dict[str, int] = {}

        def deliver() -> None:
            self._in_flight.pop(holder["event_id"], None)
            self._deliver(message)

        event_id = self.scheduler.schedule(delay, deliver)
        holder["event_id"] = event_id
        self._in_flight[event_id] = message

    def _count_drop(self, kind: str) -> None:
        self.messages_dropped += 1
        self._m_dropped.inc(kind=kind)

    def _deliver(self, message: Message) -> None:
        # Re-check the RECIPIENT's liveness at delivery time: a node
        # that crashed while the message was in flight never sees it.
        # The sender's state is irrelevant here — a packet already
        # transmitted keeps propagating even if its sender died, which
        # is what closes the crash-time replication window.
        if message.recipient in self._down:
            self._count_drop(message.kind)
            return
        node = self._nodes.get(message.recipient)
        if node is None:  # pragma: no cover - detach is not supported
            self._count_drop(message.kind)
            return
        self.messages_delivered += 1
        self._m_delivered.inc(kind=message.kind)
        self._m_latency.observe(
            self.scheduler.clock.now() - message.sent_at)
        if message.trace is not None:
            # Restore the sender's causal context around the handler so
            # spans opened (and messages re-sent) inside it chain onto
            # the originating trace.
            with self.tracer.activate(message.trace):
                node._deliver(message)
            return
        node._deliver(message)
