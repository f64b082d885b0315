"""Tip-selection strategies.

Before submitting, a node gets "two random tips to validate" (paper
workflow step 4).  How those tips are chosen determines both throughput
and attack resistance:

* :class:`UniformRandomTipSelector` — the paper's baseline: pick two
  unapproved transactions uniformly at random.
* :class:`WeightedRandomWalkSelector` — the tangle's MCMC walk (Popov's
  α-walk): start deep in the DAG and walk toward tips, biased by
  cumulative weight.  Its bias against low-weight side branches is the
  structural defence that makes lazy tips ineffective even before the
  credit mechanism punishes them.

The *lazy tips* misbehaviour — always approving one fixed, old pair
(threat model, Section III) — is not a selector here: the attacker,
:class:`~repro.attacks.lazy_tips.LazyLightNode`, discards the gateway's
suggested tips itself.
"""

from __future__ import annotations

import math
import random
from typing import Tuple

from .tangle import Tangle

__all__ = [
    "TipSelector",
    "UniformRandomTipSelector",
    "WeightedRandomWalkSelector",
]


class TipSelector:
    """Strategy interface: choose the two transactions to approve."""

    def select(self, tangle: Tangle, rng: random.Random) -> Tuple[bytes, bytes]:
        """Return a (branch, trunk) pair of transaction hashes."""
        raise NotImplementedError


class UniformRandomTipSelector(TipSelector):
    """Pick two tips uniformly at random (with replacement when only one
    tip exists, e.g. right after genesis)."""

    def select(self, tangle: Tangle, rng: random.Random) -> Tuple[bytes, bytes]:
        tips = tangle.tip_sequence()  # cached sorted tuple: no re-sort
        if not tips:
            raise ValueError("tangle has no tips")
        if len(tips) == 1:
            return tips[0], tips[0]
        branch, trunk = rng.sample(tips, 2)
        return branch, trunk


class WeightedRandomWalkSelector(TipSelector):
    """Markov-chain random walk biased by cumulative weight.

    From a starting transaction the walk repeatedly moves to one of the
    current vertex's approvers, chosen with probability proportional to
    ``exp(alpha * weight(child))``, until it reaches a tip.  ``alpha=0``
    degenerates to an unweighted walk; larger values concentrate
    approvals on the heavy "main tangle" and starve parasitic branches.

    Args:
        alpha: weight-bias exponent (IOTA uses values around 0.001–0.1
            at mainnet weight scales; at our simulation scale 0.01–0.5
            is reasonable).
        start_depth: how many height levels below the newest transaction
            to start the walk (walks start at genesis when the tangle is
            shallower).  This is the milestone/checkpoint bound that
            keeps walk length O(start_depth) instead of O(ledger):
            production tangles anchor walks at a recent milestone for
            exactly this reason, and anything attached *below* the
            entry height can no longer capture approvals — the
            structural parasite defence.
    """

    def __init__(self, alpha: float = 0.05, start_depth: int = 20):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if start_depth < 1:
            raise ValueError("start_depth must be >= 1")
        self.alpha = alpha
        self.start_depth = start_depth

    def select(self, tangle: Tangle, rng: random.Random) -> Tuple[bytes, bytes]:
        start = self._walk_entry_point(tangle)
        branch = self._walk(tangle, start, rng)
        trunk = self._walk(tangle, start, rng)
        return branch, trunk

    def _walk_entry_point(self, tangle: Tangle) -> bytes:
        """Milestone-style entry: start ``start_depth`` height levels
        below the newest transaction instead of at genesis.

        The entry is the *heaviest* transaction at the target height
        (ties broken by hash), read from the tangle's maintained height
        index — the same transaction every replica picks for the same
        ledger state, so bounding the walk costs no determinism.
        Dead-end candidates (retired snapshot boundaries) are skipped;
        a tangle shallower than ``start_depth`` still walks from
        genesis, preserving the exact historical behaviour at small
        scales.
        """
        target_height = tangle.max_height - self.start_depth
        if target_height <= 0:
            return tangle.genesis.tx_hash
        candidates = [
            h for h in tangle.transactions_at_height(target_height)
            if tangle.is_tip(h) or tangle.approvers(h)
        ]
        if not candidates:  # pragma: no cover - only all-retired levels
            return tangle.genesis.tx_hash
        return max(candidates, key=lambda h: (tangle.weight(h), h))

    def _walk(self, tangle: Tangle, start: bytes, rng: random.Random) -> bytes:
        current = start
        steps = 0
        while not tangle.is_tip(current):
            children = sorted(tangle.approvers(current))
            if not children:
                # Retired snapshot boundary: legal (if stale) to approve.
                break
            steps += 1
            if len(children) == 1:
                current = children[0]
                continue
            weights = [tangle.weight(child) for child in children]
            top = max(weights)
            # Subtract the max before exponentiating for numeric safety.
            scores = [math.exp(self.alpha * (w - top)) for w in weights]
            current = rng.choices(children, weights=scores, k=1)[0]
        tangle.observe_walk(steps)
        return current
