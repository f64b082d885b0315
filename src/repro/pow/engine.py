"""PoW execution engine: real grinding plus device-profile accounting.

The engine is where hash attempts become *time*.  It solves the
hashcash puzzle (really, below a configurable difficulty threshold;
sampled from the geometric attempt distribution above it), charges the
cost to the node's :class:`~repro.devices.profiles.DeviceProfile`, and
advances the shared :class:`~repro.devices.clock.SimulatedClock`.

This is the substitution point for the paper's Raspberry Pi testbed:
every figure that reports "running time of PoW" reads the simulated
seconds produced here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..devices.clock import Clock, SimulatedClock
from ..devices.profiles import DeviceProfile
from ..telemetry.registry import DIFFICULTY_BUCKETS, SECONDS_BUCKETS, coerce_registry
from . import hashcash
from .hashcash import ProofOfWork

__all__ = ["PowResult", "PowEngine", "DEFAULT_REAL_DIFFICULTY_LIMIT"]

DEFAULT_REAL_DIFFICULTY_LIMIT = 20
"""Above this difficulty the engine samples attempt counts instead of
grinding (2^20 ≈ 1M double-SHA256 calls ≈ a second of real CPU)."""


@dataclass(frozen=True)
class PowResult:
    """Outcome of one PoW execution.

    Attributes:
        proof: the :class:`~repro.pow.hashcash.ProofOfWork` found.
        elapsed_seconds: simulated time charged to the device.
        started_at: clock reading when the solve began.
        finished_at: clock reading when the solve completed.
    """

    proof: ProofOfWork
    elapsed_seconds: float
    started_at: float
    finished_at: float


class PowEngine:
    """Solves PoW puzzles on behalf of one device.

    Args:
        profile: hardware model the cost is charged to.
        clock: clock to advance; when it is a
            :class:`~repro.devices.clock.SimulatedClock` the engine
            advances it by the simulated solve time.
        rng: randomness source for nonce starting points and attempt
            sampling (seed it for reproducible experiments).
        real_difficulty_limit: difficulties at or below this are ground
            for real; above it, attempts are sampled.
        advance_clock: when True (single-node experiments) a solve
            advances the simulated clock directly.  Multi-node
            simulations set False and instead schedule a completion
            event ``elapsed_seconds`` in the future, so concurrent
            nodes' compute overlaps correctly.
        telemetry: a :class:`~repro.telemetry.MetricsRegistry` for the
            ``repro_pow_*`` metrics (attempts, solves, solve-time and
            difficulty distributions, labelled by hardware profile).
    """

    def __init__(self, profile: DeviceProfile, clock: Clock = None, *,
                 rng: random.Random = None,
                 real_difficulty_limit: int = DEFAULT_REAL_DIFFICULTY_LIMIT,
                 advance_clock: bool = True,
                 telemetry=None):
        self.profile = profile
        self.clock = clock if clock is not None else SimulatedClock()
        self._rng = rng if rng is not None else random.Random()
        self.advance_clock = advance_clock
        if real_difficulty_limit < 0:
            raise ValueError("real_difficulty_limit must be non-negative")
        self.real_difficulty_limit = real_difficulty_limit
        self.total_attempts = 0
        self.total_seconds = 0.0
        self.solve_count = 0
        self.telemetry = coerce_registry(telemetry)
        self._profile_label = getattr(profile, "name", "unknown")
        self._m_solves = self.telemetry.counter(
            "repro_pow_solves_total", "PoW puzzles solved")
        self._m_attempts = self.telemetry.counter(
            "repro_pow_attempts_total", "Hash attempts spent on PoW")
        self._m_seconds = self.telemetry.histogram(
            "repro_pow_solve_seconds",
            "Simulated seconds per PoW solve, by hardware profile",
            buckets=SECONDS_BUCKETS)
        self._m_difficulty = self.telemetry.histogram(
            "repro_pow_difficulty",
            "Difficulty of solved puzzles (credit-assigned)",
            buckets=DIFFICULTY_BUCKETS)

    def solve(self, challenge: bytes, difficulty: int) -> PowResult:
        """Solve *challenge* at *difficulty* and charge the cost.

        Returns a :class:`PowResult`; the engine's lifetime counters
        (:attr:`total_attempts`, :attr:`total_seconds`) accumulate, which
        is what the energy/cost analyses read.
        """
        started_at = self.clock.now()
        if difficulty <= self.real_difficulty_limit:
            proof = hashcash.solve(challenge, difficulty,
                                   start_nonce=self._rng.randrange(2 ** 62))
        else:
            attempts = hashcash.sample_attempts(difficulty, self._rng)
            proof = ProofOfWork(nonce=0, attempts=attempts,
                                difficulty=difficulty, simulated=True)
        elapsed = self.profile.pow_seconds(proof.attempts)
        if self.advance_clock and isinstance(self.clock, SimulatedClock):
            self.clock.advance(elapsed)
        self.total_attempts += proof.attempts
        self.total_seconds += elapsed
        self.solve_count += 1
        self._m_solves.inc(profile=self._profile_label)
        self._m_attempts.inc(proof.attempts, profile=self._profile_label)
        self._m_seconds.observe(elapsed, profile=self._profile_label)
        self._m_difficulty.observe(difficulty, profile=self._profile_label)
        return PowResult(
            proof=proof,
            elapsed_seconds=elapsed,
            started_at=started_at,
            finished_at=started_at + elapsed,
        )

    @property
    def mean_seconds_per_solve(self) -> float:
        """Average simulated solve time so far (0.0 before any solve)."""
        if self.solve_count == 0:
            return 0.0
        return self.total_seconds / self.solve_count
