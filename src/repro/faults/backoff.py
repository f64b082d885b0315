"""Bounded exponential backoff with jitter — the retry clock every
recovery path shares — and :class:`RetryLoop`, a full node's one loop.

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
from functools import partial
from typing import Callable, Dict, Hashable

from ..telemetry.registry import SECONDS_BUCKETS

__all__ = ["BackoffPolicy", "DEFAULT_BACKOFF", "RetryLoop"]


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


@dataclass
class _Attempts:
    """One key's place in a :class:`RetryLoop`."""

    context: object
    stage: str
    retried: bool
    attempt: int = 1


class RetryLoop:
    """Per key (a parent hash, a device): ``send(key, context, attempt)``
    for attempts 1 … ``max_attempts``, each followed (*ask_first*) or
    preceded by a wait of ``node.retry_policy.delay(attempt, node.rng)``,
    then ``gave_up(key, context)``; a timer whose key was stopped or
    restarted since does nothing.  Sends after a wait (retries) and
    giving up count under the key's *stage*; stopping a key after a
    retry counts a recovery under *protocol*, across the key's stages.
    """

    def __init__(self, node, protocol: str, *, ask_first: bool,
                 send: Callable, gave_up: Callable):
        self.node = node
        self.protocol = protocol
        self.ask_first = ask_first
        self.send = send
        self.gave_up = gave_up
        self.pending: Dict[Hashable, _Attempts] = {}
        self._m_attempts = node.telemetry.counter(
            "repro_retry_attempts_total",
            "Recovery retransmissions sent, by protocol")
        self._m_exhausted = node.telemetry.counter(
            "repro_retry_exhausted_total",
            "Recovery loops that gave up after max_attempts, by protocol")
        self._m_recoveries = node.telemetry.counter(
            "repro_retry_recoveries_total",
            "Recovery loops that succeeded after at least one retry, "
            "by protocol")
        self._m_backoff = node.telemetry.histogram(
            "repro_retry_backoff_seconds",
            "Jittered backoff delays armed by recovery loops",
            buckets=SECONDS_BUCKETS)

    def start(self, key: Hashable, context: object, stage: str) -> None:
        """Recover *key* from attempt 1 (a restart keeps *retried*)."""
        retried = key in self.pending and self.pending[key].retried
        state = self.pending[key] = _Attempts(context, stage, retried)
        if self.ask_first:
            self.send(key, context, 1)
        self._wait(key, state)

    def stop(self, key: Hashable) -> bool:
        """*key* recovered; returns whether that followed a retry."""
        state = self.pending.pop(key, None)
        if state is None or not state.retried:
            return False
        self._m_recoveries.inc(protocol=self.protocol)
        return True

    def _wait(self, key: Hashable, state: _Attempts) -> None:
        delay = self.node.retry_policy.delay(state.attempt, self.node.rng)
        self._m_backoff.observe(delay)
        self.node.network.scheduler.schedule(
            delay, partial(self._expire, key, state))

    def _expire(self, key: Hashable, state: _Attempts) -> None:
        """Attempt ``state.attempt`` is over: give up, or open the next."""
        if self.pending.get(key) is not state:
            return  # stopped or restarted meanwhile
        if not self.ask_first and not self._retry(key, state):
            return
        if self.node.retry_policy.exhausted(state.attempt):
            del self.pending[key]
            self._m_exhausted.inc(protocol=state.stage)
            self.gave_up(key, state.context)
            return
        state.attempt += 1
        if not self.ask_first or self._retry(key, state):
            self._wait(key, state)

    def _retry(self, key: Hashable, state: _Attempts) -> bool:
        """A send after a wait; False if it found *key* recovered."""
        self.send(key, state.context, state.attempt)
        if self.pending.get(key) is not state:
            return False
        state.retried = True
        self._m_attempts.inc(protocol=state.stage)
        return True
