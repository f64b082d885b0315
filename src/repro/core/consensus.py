"""Credit-based PoW consensus — the paper's central mechanism.

The paper defines ``Cr ∝ 1/D``: the lower a node's credit, the longer
its PoW.  This module supplies:

* difficulty policies mapping a credit value to a PoW difficulty —
  :class:`InverseDifficultyPolicy` (the literal ``Cr ∝ 1/D`` law) and
  the :class:`FixedDifficultyPolicy` baseline that *is* the original PoW;
* :class:`CreditBasedConsensus`, which wires a
  :class:`~repro.core.credit.CreditRegistry` to a policy, observes
  tangle attaches (detecting lazy tips), ingests double-spend reports,
  and — as a tangle validator — rejects transactions whose declared
  difficulty undercuts what the issuer's credit requires.

Evaluation defaults follow Section VI-A: initial difficulty 11 on a
range of [1, 24].
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

from ..pow import hashcash
from ..tangle.errors import InvalidPowError
from ..tangle.tangle import AttachResult, Tangle
from ..tangle.transaction import Transaction
from ..tangle.validation import DEFAULT_MAX_PARENT_AGE, detect_lazy_approval
from ..telemetry.registry import DIFFICULTY_BUCKETS
from .credit import CreditParameters, CreditRegistry, MaliciousBehaviour

__all__ = [
    "DEFAULT_INITIAL_DIFFICULTY",
    "DEFAULT_MIN_DIFFICULTY",
    "DEFAULT_MAX_DIFFICULTY",
    "DifficultyPolicy",
    "FixedDifficultyPolicy",
    "InverseDifficultyPolicy",
    "CreditBasedConsensus",
]

DEFAULT_INITIAL_DIFFICULTY = 11
"""Paper: "We set 11 as the initial difficulty of PoW"."""

DEFAULT_MIN_DIFFICULTY = 1
"""Paper: "The minimum difficulty of PoW is 1"."""

DEFAULT_MAX_DIFFICULTY = 24
"""Cap on punished difficulty; 2^24 attempts ≈ 90 minutes on the
modelled Raspberry Pi — effectively a ban, without unbounded integers."""


class DifficultyPolicy:
    """Maps a credit value to the PoW difficulty a node must meet."""

    def difficulty_for(self, credit: float) -> int:
        raise NotImplementedError


class FixedDifficultyPolicy(DifficultyPolicy):
    """The original PoW: everyone digs at the same difficulty."""

    def __init__(self, difficulty: int = DEFAULT_INITIAL_DIFFICULTY):
        if difficulty < hashcash.MIN_DIFFICULTY:
            raise ValueError("difficulty below minimum")
        self.difficulty = difficulty

    def difficulty_for(self, credit: float) -> int:
        return self.difficulty


class InverseDifficultyPolicy(DifficultyPolicy):
    """The paper's ``Cr ∝ 1/D`` law, with a calibrated negative branch.

    With a scale constant ``c`` (the credit that halves the difficulty):

    * ``Cr >= 0``:  ``D = D0 · c / (c + Cr)`` — the literal inverse law;
      difficulty decays toward ``min_difficulty`` as credit accumulates.
    * ``Cr < 0``, ``negative_mode="log-time"`` (default):
      ``D = D0 + punish_bits · log2(1 + |Cr| / c)``.  PoW *time* is
      exponential in D, so interpreting the penalty as a multiplier on
      expected solve time (one doubling per ``1/punish_bits`` of
      log-credit) reproduces the paper's own dynamics: Fig. 8 shows a
      punished node recovering after ~37 s, which corresponds to a
      difficulty of roughly D0+6, not the effectively-infinite value the
      literal hyperbola would assign.  The default ``punish_bits = 1.2``
      is calibrated so a fresh double-spend (Cr ≈ −30 under the paper's
      parameters) yields D0+6 ≈ a ~40 s punished solve on the Raspberry
      Pi profile — the paper's observed 37 s gap.
    * ``Cr < 0``, ``negative_mode="inverse"`` (ablation):
      ``D = D0 · (c + |Cr|) / c`` — the mirrored hyperbola, which
      saturates at ``max_difficulty`` after the mildest punishment.

    The ablation bench (Ext-3) contrasts both modes.  Every result is
    rounded and clamped to ``[min_difficulty, max_difficulty]``.
    """

    def __init__(self, *, credit_scale: float = 1.0,
                 negative_mode: str = "log-time",
                 punish_bits: float = 1.2,
                 initial_difficulty: int = DEFAULT_INITIAL_DIFFICULTY,
                 min_difficulty: int = DEFAULT_MIN_DIFFICULTY,
                 max_difficulty: int = DEFAULT_MAX_DIFFICULTY):
        if not (hashcash.MIN_DIFFICULTY <= min_difficulty
                <= initial_difficulty <= max_difficulty <= hashcash.MAX_DIFFICULTY):
            raise ValueError(
                "require MIN <= min_difficulty <= initial <= max <= MAX"
            )
        if credit_scale <= 0:
            raise ValueError("credit_scale must be positive")
        if negative_mode not in ("log-time", "inverse"):
            raise ValueError(f"unknown negative_mode {negative_mode!r}")
        if punish_bits <= 0:
            raise ValueError("punish_bits must be positive")
        self.initial_difficulty = initial_difficulty
        self.min_difficulty = min_difficulty
        self.max_difficulty = max_difficulty
        self.credit_scale = credit_scale
        self.negative_mode = negative_mode
        self.punish_bits = punish_bits

    def _clamp(self, difficulty: float) -> int:
        return int(round(
            min(self.max_difficulty, max(self.min_difficulty, difficulty))
        ))

    def difficulty_for(self, credit: float) -> int:
        c = self.credit_scale
        if credit >= 0:
            return self._clamp(self.initial_difficulty * c / (c + credit))
        if self.negative_mode == "inverse":
            return self._clamp(self.initial_difficulty * (c - credit) / c)
        return self._clamp(
            self.initial_difficulty
            + self.punish_bits * math.log2(1.0 - credit / c)
        )


class CreditBasedConsensus:
    """The credit-based PoW mechanism, end to end.

    Wires together behaviour tracking, credit evaluation and difficulty
    assignment; exposes the pieces each role needs:

    * light nodes ask :meth:`required_difficulty` before grinding;
    * full nodes install :meth:`validator` on their tangle and feed
      every successful attach to :meth:`observe_attach` (which performs
      lazy-tips detection) and every ledger conflict to
      :meth:`report_double_spend`.

    Args:
        registry: the behaviour/credit store (one per full node replica).
        policy: credit→difficulty map; defaults to the paper's inverse law.
        max_parent_age: lazy-tips age threshold (defaults to ΔT).
        difficulty_tolerance: validators accept a declared difficulty
            this many bits below the locally computed requirement, since
            issuer and validator evaluate credit at slightly different
            times (network latency).
    """

    def __init__(self, registry: Optional[CreditRegistry] = None, *,
                 policy: Optional[DifficultyPolicy] = None,
                 max_parent_age: float = DEFAULT_MAX_PARENT_AGE,
                 difficulty_tolerance: int = 1):
        self.registry = registry if registry is not None else CreditRegistry()
        self.policy = policy if policy is not None else InverseDifficultyPolicy()
        if max_parent_age <= 0:
            raise ValueError("max_parent_age must be positive")
        if difficulty_tolerance < 0:
            raise ValueError("difficulty_tolerance must be non-negative")
        self.max_parent_age = max_parent_age
        self.difficulty_tolerance = difficulty_tolerance
        self.lazy_detections = 0
        self.double_spend_reports = 0
        telemetry = self.registry.telemetry
        self._m_difficulty = telemetry.histogram(
            "repro_credit_required_difficulty",
            "Credit-assigned PoW difficulty handed to issuers",
            buckets=DIFFICULTY_BUCKETS)
        self._m_tier = telemetry.counter(
            "repro_credit_difficulty_tier_total",
            "Difficulty assignments by credit tier "
            "(rewarded/neutral/punished vs the initial difficulty)")
        self._baseline_difficulty = getattr(
            self.policy, "initial_difficulty",
            getattr(self.policy, "difficulty", None))

    @classmethod
    def from_params(cls, params: CreditParameters, *,
                    initial_difficulty: int = DEFAULT_INITIAL_DIFFICULTY,
                    telemetry=None) -> "CreditBasedConsensus":
        """The deployment wiring in one call: a fresh registry over
        *params*, the paper's inverse law anchored at
        *initial_difficulty*, and ΔT as the lazy-tips age threshold.

        ``BIoTSystem.build``, ``repro node`` and the differential
        harnesses all construct their consensus here, so replicas that
        must be hash-comparable cannot drift apart in how they are
        configured.
        """
        return cls(
            CreditRegistry(params, telemetry=telemetry),
            policy=InverseDifficultyPolicy(
                initial_difficulty=initial_difficulty),
            max_parent_age=params.delta_t,
        )

    # -- wiring ----------------------------------------------------------

    def bind_tangle(self, tangle: Tangle) -> None:
        """Point this consensus' credit registry at *tangle*'s weights.

        The registry resolves transaction weights through
        :meth:`~repro.tangle.tangle.Tangle.capped_weight` at the
        registry's ``max_transaction_weight`` — exactly the clamped
        ``w_k`` Eqn. 3 uses, read without flushing the tangle — so an
        evaluation costs O(the issuer's unsaturated records × cap)
        whatever the tangle's size, and observes the same weights a
        flush followed by a from-scratch rescan would.  Binding
        re-resolves every cached weight: saturation is a fact about
        one tangle object, so re-bind after replacing the tangle.
        """
        self.registry.set_weight_provider(partial(
            tangle.capped_weight,
            limit=self.registry.params.max_transaction_weight))

    # -- difficulty ------------------------------------------------------

    def required_difficulty(self, node_id: bytes, now: float) -> int:
        """The PoW difficulty *node_id* must meet right now."""
        difficulty = self.policy.difficulty_for(
            self.registry.credit(node_id, now))
        self._m_difficulty.observe(difficulty)
        baseline = self._baseline_difficulty
        if baseline is not None:
            if difficulty < baseline:
                tier = "rewarded"
            elif difficulty > baseline:
                tier = "punished"
            else:
                tier = "neutral"
            self._m_tier.inc(tier=tier)
        return difficulty

    # -- observation -----------------------------------------------------

    def observe_attach(self, result: AttachResult) -> bool:
        """Ingest a successful attach; returns True when it was lazy.

        Valid transactions raise CrP; a lazy approval is recorded as
        malicious behaviour (αl).  A lazy transaction still *attaches* —
        the tangle cannot refuse structurally valid approvals — but its
        issuer pays for it on every subsequent PoW.
        """
        tx = result.transaction
        node_id = tx.issuer.node_id
        lazy = detect_lazy_approval(result, max_parent_age=self.max_parent_age)
        # Record against the *ledger* timestamp, not the local arrival
        # time: every replica must derive the same credit for the same
        # history, or they would disagree on required difficulties and
        # reject each other's gossip.
        if lazy:
            self.lazy_detections += 1
            self.registry.record_malicious(
                node_id, MaliciousBehaviour.LAZY_TIPS, tx.timestamp
            )
        else:
            self.registry.record_transaction(
                node_id, tx.tx_hash, tx.timestamp
            )
        return lazy

    def report_double_spend(self, node_id: bytes, timestamp: float) -> None:
        """Ingest a ledger conflict attributed to *node_id* (αd)."""
        self.double_spend_reports += 1
        self.registry.record_malicious(
            node_id, MaliciousBehaviour.DOUBLE_SPENDING, timestamp
        )

    # -- enforcement -----------------------------------------------------

    def validator(self, tangle: Tangle, tx: Transaction) -> None:
        """Tangle validator: the declared difficulty must cover the
        issuer's credit-assigned requirement (within tolerance)."""
        now = tx.timestamp
        required = self.required_difficulty(tx.issuer.node_id, now)
        if tx.difficulty + self.difficulty_tolerance < required:
            raise InvalidPowError(
                f"{tx.short_hash}: declared difficulty {tx.difficulty} "
                f"below credit-required {required} for issuer "
                f"{tx.issuer.short_id}"
            )
