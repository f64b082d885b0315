"""Bounded exponential backoff with jitter — the retry clock every
recovery path shares.

A :class:`BackoffPolicy` is a pure description: attempt *n* (1-based)
waits ``base_delay * multiplier**(n-1)`` seconds, capped at
``max_delay``, plus a multiplicative jitter drawn from the caller's
seeded RNG.  Determinism matters more than entropy here — the fault
harness replays whole campaigns bit-for-bit, so the policy never owns
randomness; it is handed a ``random.Random`` and consumes exactly one
draw per jittered delay.

Invariants (property-tested in ``tests/faults/test_backoff.py``):

* the nominal delay is monotone non-decreasing in the attempt number
  and never exceeds ``max_delay``;
* a jittered delay lies in ``[nominal, nominal * (1 + jitter)]``;
* a schedule has exactly ``max_attempts`` entries — retries stop;
* the same seed reproduces the exact schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["BackoffPolicy", "DEFAULT_BACKOFF"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry timing: bounded exponential backoff with jitter.

    Attributes:
        base_delay: delay before the second attempt (seconds).
        multiplier: growth factor per attempt (>= 1).
        max_delay: hard cap on the nominal delay.
        jitter: multiplicative jitter fraction; the drawn delay is
            ``nominal * (1 + u * jitter)`` with ``u ~ U[0, 1)``.
            Jitter only ever *extends* a delay, so the nominal schedule
            is a lower bound and retry storms decorrelate.
        max_attempts: total attempts (first try included) before the
            caller must give up.
    """

    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.25
    max_attempts: int = 5

    def __post_init__(self):
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def nominal_delay(self, attempt: int) -> float:
        """The un-jittered delay after *attempt* (1-based) failed."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        return min(self.base_delay * self.multiplier ** (attempt - 1),
                   self.max_delay)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """One jittered delay; consumes exactly one RNG draw when the
        policy has jitter, zero otherwise."""
        nominal = self.nominal_delay(attempt)
        if self.jitter == 0.0:
            return nominal
        return nominal * (1.0 + rng.random() * self.jitter)

    def exhausted(self, attempt: int) -> bool:
        """Whether *attempt* (1-based) was the last allowed one."""
        return attempt >= self.max_attempts


DEFAULT_BACKOFF = BackoffPolicy()
"""The deployment-wide default retry clock."""
