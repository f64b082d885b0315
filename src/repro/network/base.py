"""The transport contract every network backend satisfies.

Nodes are written against a deliberately small surface: they are
attached to a transport, reply through :meth:`Transport.send`, and read
time / defer work through ``transport.scheduler`` (an object exposing
``clock.now()``, ``schedule(delay, callback) -> event_id`` and
``cancel(event_id)``).  Whatever *drives* a deployment lets simulated
time pass through the same object: ``scheduler.run_for(seconds)``
drains the event heap up to the deadline on the simulator and runs the
event loop for the wall-clock equivalent on TCP, so driver code is
written once.  Everything else on
:class:`~repro.network.network.Network` — link models, fault switches,
overlays — is simulator-specific and not part of the contract.

Two backends implement it:

* :class:`~repro.network.network.SimTransport` (the discrete-event
  simulator, historically named ``Network``) — bit-deterministic:
  the same seed yields the same event schedule, byte for byte.
* :class:`~repro.network.aio.AsyncioTransport` — real length-prefixed
  frames over localhost/LAN TCP, driven by the asyncio event loop —
  convergence-deterministic: scheduling varies run to run, but the
  replicated state (tangle/ledger/ACL/credit hashes) must not (the
  property the fleet differential harness in
  :mod:`repro.harness.fleet` asserts).

The node side of the contract is two calls.  Every message reaches its
recipient through ``node._deliver(message)`` (which counts it and calls
``handle_message``) — on both backends, one message at a time.  A
*stream* backend, where one ``read()`` may complete many frames, also
calls ``node.prepare_run(messages)`` once per read that completed two
or more frames, with exactly the messages it is about to deliver to
that node, in order, and before it delivers the first.  The hook is an
opportunity to share work across what arrived together (a full node
batch-verifies the run's signatures); it replies to nothing, admits
nothing, and must leave the node in a state from which delivering the
messages one by one produces exactly what it would have produced
without the call — how a byte stream is cut into reads is kernel
timing, and nothing replicated may depend on it.  ``SimTransport``
delivers one message per scheduled event, so it has no runs and never
calls the hook: simulator schedules stay byte-deterministic, and the
sim≡wire≡process differentials are the proof that the hook changes no
state.
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

from .transport import Message

__all__ = ["Transport", "SchedulerLike"]


class SchedulerLike(Protocol):
    """What ``transport.scheduler`` offers: ``clock`` / ``schedule`` /
    ``cancel`` to nodes, ``run_for`` to whatever drives them (never
    called from inside a node handler)."""

    clock: object  # exposes now() -> float

    def schedule(self, delay: float, callback) -> int: ...

    def cancel(self, event_id: int) -> None: ...

    def run_for(self, seconds: float) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Minimal routing surface nodes program against.

    ``attach`` binds a node (the transport injects itself so the node
    can reply); ``send`` routes one message and returns False when the
    transport already knows it cannot be delivered; ``broadcast`` fans
    out to every other known address.  ``addresses`` lists the
    addresses this transport can currently route to, local node
    included.
    """

    scheduler: SchedulerLike

    def attach(self, node) -> None: ...

    @property
    def addresses(self) -> List[str]: ...

    def send(self, sender: str, recipient: str, kind: str, body, *,
             size_bytes: int = 0) -> bool: ...

    def broadcast(self, sender: str, kind: str, body, *,
                  recipients=None, size_bytes: int = 0) -> int: ...

    def add_tap(self, tap) -> None: ...


def is_transport(obj) -> bool:
    """Structural check used by tests and assembly code."""
    return isinstance(obj, Transport) and callable(getattr(obj, "send", None))
