"""Span tracing on the simulation clock.

A :class:`Tracer` produces *nested spans*: named intervals with
structured attributes whose start/end timestamps are read from the
shared :class:`~repro.devices.clock.SimulatedClock`, so a span's
duration is simulated seconds — "how long did key distribution take in
the experiment", not "how long did Python take to run it".

Two span families coexist:

* **Lexical spans** (``with tracer.span(...)``) nest under the
  innermost open span — the right shape for *driver* phases wrapped
  around ``run_for`` / ``run_until`` calls.
* **Explicit-parent spans** (:meth:`start_root_span` /
  :meth:`start_child_span`) carry a :class:`TraceContext` and parent
  onto whatever span the caller names, independent of the lexical
  stack.  They express *causal* structure across scheduler callbacks:
  a transaction's submit on one node and its ingest on another belong
  to the same trace even though no with-block spans both.

The *current* context (:attr:`Tracer.current`) is an ambient
trace-context slot.  :meth:`activate` swaps it for the duration of a
with-block; the network simulator captures it when a message is sent
(or an event scheduled) and restores it around the delivery callback,
which is how causality crosses asynchrony without touching wire
encodings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


@dataclass(frozen=True)
class TraceContext:
    """Reference to a span inside a trace — what travels out-of-band.

    ``trace_id`` is a caller-chosen deterministic string (the lifecycle
    tracker uses ``tx:<device>:<counter>``), ``span_id`` the tracer-local
    id of the span new children should parent onto.
    """

    trace_id: str
    span_id: int


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    attributes: Dict[str, object] = field(default_factory=dict)
    end: Optional[float] = None
    trace_id: str = ""

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value


class Tracer:
    """Produces nested and explicit-parent spans against a clock.

    Args:
        clock: a callable returning seconds or an object with ``now()``
            — pass the scheduler's :class:`SimulatedClock`.
    """

    enabled = True

    def __init__(self, clock: object = None):
        if clock is None:
            self._time_fn: Callable[[], float] = lambda: 0.0
        elif callable(clock):
            self._time_fn = clock
        else:
            self._time_fn = clock.now
        self._next_id = 1
        self._stack: List[Span] = []
        self._current: Optional[TraceContext] = None
        self.spans: List[Span] = []  # finished spans, in end order

    # -- manual API (for event-callback lifetimes) -------------------------

    def start_span(self, name: str, **attributes: object) -> Span:
        """Open a lexical span; it nests under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            start=self._time_fn(),
            attributes=dict(attributes),
            trace_id=parent.trace_id if parent else "",
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close *span*.

        Lexical spans unwind the stack (any deeper spans left open are
        closed innermost first — a scheduler callback that raised must
        not wedge the stack); explicit-parent spans, which are never on
        the stack, close individually.  Ending a finished span raises
        and leaves every open span as it was.
        """
        if span.end is not None:
            raise ValueError(f"span {span.name!r} is already finished")
        if all(open_span is not span for open_span in self._stack):
            span.end = self._time_fn()
            self.spans.append(span)
            return span
        while True:
            top = self._stack.pop()
            top.end = self._time_fn()
            self.spans.append(top)
            if top is span:
                return span

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """``with tracer.span("phase", key=value) as s:`` — the normal API."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    # -- explicit-parent API (causal, non-lexical) -------------------------

    def start_root_span(self, name: str, trace_id: str,
                        **attributes: object) -> Span:
        """Open a trace root, independent of the lexical stack.

        The caller supplies the (deterministic) trace id; the span id is
        tracer-local.  Close with :meth:`end_span`.
        """
        span = Span(
            span_id=self._next_id,
            parent_id=None,
            name=name,
            start=self._time_fn(),
            attributes=dict(attributes),
            trace_id=trace_id,
        )
        self._next_id += 1
        return span

    def start_child_span(self, name: str, parent: TraceContext,
                         **attributes: object) -> Span:
        """Open a span parented on *parent*, ignoring the lexical stack."""
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id,
            name=name,
            start=self._time_fn(),
            attributes=dict(attributes),
            trace_id=parent.trace_id,
        )
        self._next_id += 1
        return span

    def context_of(self, span: Span) -> TraceContext:
        """The :class:`TraceContext` new children of *span* should carry."""
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    # -- ambient context ---------------------------------------------------

    @property
    def current(self) -> Optional[TraceContext]:
        """The context activated around the currently running callback."""
        return self._current

    def capture(self) -> Optional[TraceContext]:
        """Snapshot the ambient context (for deferred callbacks)."""
        return self._current

    @contextmanager
    def activate(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Make *context* ambient for the with-block (``None`` clears it)."""
        previous = self._current
        self._current = context
        try:
            yield
        finally:
            self._current = previous

    # -- introspection ----------------------------------------------------

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def finished(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by name."""
        if name is None:
            return list(self.spans)
        return [s for s in self.spans if s.name == name]


class _NullContext:
    """Reusable no-op context manager (shared, stateless)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Disabled tracing: spans cost one no-op context manager."""

    enabled = False
    spans: List[Span] = []
    current: Optional[TraceContext] = None

    _SPAN = Span(span_id=0, parent_id=None, name="null", start=0.0, end=0.0)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        yield self._SPAN

    def start_span(self, name: str, **attributes: object) -> Span:
        return self._SPAN

    def start_root_span(self, name: str, trace_id: str,
                        **attributes: object) -> Span:
        return self._SPAN

    def start_child_span(self, name: str, parent: TraceContext,
                         **attributes: object) -> Span:
        return self._SPAN

    def end_span(self, span: Span) -> Span:
        return span

    def context_of(self, span: Span) -> Optional[TraceContext]:
        return None

    def capture(self) -> Optional[TraceContext]:
        return None

    def activate(self, context: Optional[TraceContext]) -> _NullContext:
        return _NULL_CONTEXT

    def finished(self, name: Optional[str] = None) -> List[Span]:
        return []


NULL_TRACER = NullTracer()
