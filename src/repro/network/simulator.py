"""Discrete-event simulation core.

All multi-node experiments run on this scheduler: events are
(time, sequence, callback, trace-context) entries on a heap, executed
in timestamp order against a shared
:class:`~repro.devices.clock.SimulatedClock`.  Determinism is
guaranteed by the monotonically increasing sequence number that breaks
timestamp ties in insertion order; the trace-context slot (populated
only when a ``trace_binder`` is installed) never participates in
ordering.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..devices.clock import SimulatedClock

__all__ = ["EventScheduler"]


class EventScheduler:
    """A deterministic future-event list.

    >>> scheduler = EventScheduler()
    >>> fired = []
    >>> _ = scheduler.schedule(1.0, lambda: fired.append("a"))
    >>> _ = scheduler.schedule(0.5, lambda: fired.append("b"))
    >>> scheduler.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, clock: Optional[SimulatedClock] = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self._queue: List[Tuple[float, int, Callable[[], None], object]] = []
        self._sequence = 0
        # Optional causal-trace hook (a Tracer): when set, the ambient
        # trace context is captured at schedule time and restored around
        # the callback, so causality survives deferred execution.  The
        # heap still orders on (timestamp, event_id) alone — the context
        # slot never participates in comparisons and never changes
        # execution order.
        self.trace_binder = None
        self._cancelled: set = set()
        # Ids currently sitting in the queue (not fired, not cancelled).
        # Guarding cancel() with it keeps `_cancelled` from accumulating
        # ids that already fired — those would otherwise leak forever —
        # and makes the live pending count O(1).
        self._alive: set = set()
        self.events_executed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule *callback* to run *delay* seconds from now.

        Returns an event id usable with :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now() + delay, callback)

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> int:
        """Schedule *callback* at an absolute *timestamp*."""
        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past ({timestamp} < {self.clock.now()})"
            )
        event_id = self._sequence
        self._sequence += 1
        binder = self.trace_binder
        context = binder.capture() if binder is not None else None
        heapq.heappush(self._queue, (timestamp, event_id, callback, context))
        self._alive.add(event_id)
        return event_id

    def cancel(self, event_id: int) -> None:
        """Mark a scheduled event as cancelled (lazy heap removal).

        Cancelling an id that already fired (or was already cancelled)
        is a no-op — in particular it does not grow the tombstone set.
        """
        if event_id in self._alive:
            self._alive.discard(event_id)
            self._cancelled.add(event_id)

    def __len__(self) -> int:
        """Live pending events: scheduled, not fired, not cancelled."""
        return len(self._alive)

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones not
        yet lazily removed from the heap); ``len(scheduler)`` gives the
        live count."""
        return len(self._queue)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or None when idle."""
        while self._queue and self._queue[0][1] in self._cancelled:
            _, event_id, _, _ = heapq.heappop(self._queue)
            self._cancelled.discard(event_id)
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        next_time = self.peek_time()
        if next_time is None:
            return False
        timestamp, event_id, callback, context = heapq.heappop(self._queue)
        self._alive.discard(event_id)
        self.clock.advance_to(timestamp)
        self.events_executed += 1
        binder = self.trace_binder
        if binder is None:
            callback()
        else:
            # Restore the schedule-time context (None clears any stale
            # ambient context): every callback runs under exactly the
            # causal context it was scheduled from.
            with binder.activate(context):
                callback()
        return True

    def run(self, *, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or *max_events* fire); returns the
        number of events executed by this call."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    def run_until(self, deadline: float) -> int:
        """Run events with timestamps <= *deadline*, then advance the
        clock to exactly *deadline*; returns events executed."""
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
            executed += 1
        if self.clock.now() < deadline:
            self.clock.advance_to(deadline)
        return executed

    def run_for(self, seconds: float) -> None:
        """Let *seconds* pass: ``run_until(now + seconds)``."""
        self.run_until(self.clock.now() + seconds)
