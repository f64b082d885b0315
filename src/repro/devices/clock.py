"""Clock abstractions separating simulated from wall-clock time.

All timing-sensitive components (credit model, PoW accounting, network
simulator) read time through a :class:`Clock` so that experiments run in
*simulated seconds*: a PoW solve that "takes" 245 s on the modelled
Raspberry Pi advances the simulation clock without burning real CPU.
On TCP the same interface reads scaled wall time
(:class:`~repro.network.aio.AsyncClock`).
"""

from __future__ import annotations

__all__ = ["Clock", "SimulatedClock"]


class Clock:
    """Minimal clock interface: read the current time in seconds."""

    def now(self) -> float:
        raise NotImplementedError


class SimulatedClock(Clock):
    """A manually advanced clock for deterministic experiments.

    >>> clock = SimulatedClock()
    >>> clock.advance(2.5)
    >>> clock.now()
    2.5
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time ({seconds})")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Jump forward to an absolute *timestamp* (monotonicity enforced)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards ({timestamp} < {self._now})"
            )
        self._now = timestamp
