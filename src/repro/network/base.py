"""The transport contract every network backend satisfies.

Nodes are written against a deliberately small surface: they are
attached to a transport, reply through :meth:`Transport.send`, and read
time / defer work through ``transport.scheduler`` (an object exposing
``clock.now()`` and ``schedule(delay, callback) -> event_id``).
Whatever *drives* a deployment lets simulated time pass through the
same object: ``scheduler.run_for(seconds)`` drains the event heap up to
the deadline on the simulator and runs the event loop for the
wall-clock equivalent on TCP, so driver code is written once.  Flooding
is the node's job (one ``send`` per gossip peer), not the transport's.
Everything else on :class:`~repro.network.network.Network` — link
models, fault switches, overlays — is simulator-specific and not part
of the contract.

Two backends implement it:

* :class:`~repro.network.network.Network` (the discrete-event
  simulator) — bit-deterministic: the same seed yields the same event
  schedule, byte for byte.
* :class:`~repro.network.aio.AsyncioTransport` — real length-prefixed
  frames over localhost/LAN TCP, driven by the asyncio event loop —
  convergence-deterministic: scheduling varies run to run, but the
  replicated state (tangle/ledger/ACL/credit hashes) must not (the
  property the fleet differential harness in
  :mod:`repro.harness.fleet` asserts).

The node side of the contract: one ``deliver_run`` per read; the
outcome must not depend on the cut.  A *stream* backend, where one
``read()`` may complete many frames, hands the node what each read
carried for it, in order, as one call ``node.deliver_run(run)``; a
control-plane frame (a registered handler's kind) splits the read into
runs around it.  ``NetworkNode.deliver_run`` delivers the run one
message at a time through ``node._deliver(message)`` (which counts it
and calls ``handle_message``); a full node overrides both with one pass
that decodes each transaction once — a submit's, a gossip's, each one a
``sync_response`` or ``parent_response`` lists — drops a peer's
transaction it already holds and batch-verifies the rest.

``deliver_run`` may return before the run is delivered: a full node
with verify workers under a running loop hands the run's signature
batch off and delivers the run when its verdicts arrive, in read order
across all its runs and one run per loop callback, so it ingests one
run while the workers check the next.  ``deliver_run`` never blocks the
loop on a verdict.  Backpressure lives in the reader: ``node.run_room()``
is None while the node takes another run, else an awaitable resolved
at that reader's turn (oldest waiter first), which a stream backend
awaits before each read — never after it: a decoded read is handed
over at once.  When the node takes a run in turns (a response longer
than ``SHARD_CAP`` transactions), ``deliver_run`` returns an awaitable,
resolved once all of it is taken, that the backend awaits before it
reads that connection again.  ``node.finish_runs()`` delivers
everything pending, waiting for its verdicts: the backend calls it
before a control-plane frame's handler, after a traced frame (so that
frame is delivered under its own context) and when it closes.

Replies keep per-peer FIFO order.  The asyncio backend queues every
frame in its peer's outbox and writes it out as one ``write()`` every
16 frames and at the end of the sending callback, with no task hop,
while no writer task holds the peer; a writer task takes the outbox
while the peer (re)connects or its socket is backed up.  A chunk whose
write fails is sent whole again on the next connection, ahead of the
frames behind it.

How a byte stream is cut into reads is kernel timing, so a
run must leave the node — replies, floods, counters and replicated
state — exactly where delivering its messages one by one would.
``Network`` delivers one message per scheduled event through
``node._deliver``, so simulator schedules stay byte-deterministic, and
the sim≡wire≡process differentials check that runs change no state.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["Transport", "SchedulerLike"]


class SchedulerLike(Protocol):
    """What ``transport.scheduler`` offers: ``clock`` / ``schedule`` to
    nodes, ``run_for`` to whatever drives them (never called from
    inside a node handler)."""

    clock: object  # exposes now() -> float

    def schedule(self, delay: float, callback) -> int: ...

    def run_for(self, seconds: float) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Minimal routing surface nodes program against.

    ``attach`` binds a node (the transport injects itself so the node
    can reply); ``send`` routes one message and returns False when the
    transport already knows it cannot be delivered.
    """

    scheduler: SchedulerLike

    def attach(self, node) -> None: ...

    def send(self, sender: str, recipient: str, kind: str, body, *,
             size_bytes: int = 0) -> bool: ...
