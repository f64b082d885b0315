"""The parasite "broom" attack on tip selection.

Exactly the escalation the paper's threat model warns about: "a
malicious entity can artificially inflate the number of tips by issuing
many transactions that verify a fixed pair of transactions.  This would
make it possible for future transactions to select these tips with very
high probability, abandoning the tips belonging to honest nodes."

The attacker mints a burst of transactions that all approve one fixed,
old anchor pair — a *broom*: one handle, many bristle tips.  Released at
once, the bristles swamp the tip pool; a selector that samples tips
uniformly hands the attacker nearly all subsequent approvals.
Weight-biased (MCMC) selection defeats the broom structurally: the walk
descends by cumulative weight, and each bristle carries only the weight
the attacker personally gave it.

:func:`simulate_parasite_release` runs the whole scenario on a bare
tangle and reports how the approval flow splits after the release —
the quantitative backing for Ext-4's qualitative story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Set

from ..crypto.keys import KeyPair
from ..tangle.tangle import Tangle
from ..tangle.tip_selection import TipSelector, UniformRandomTipSelector
from ..tangle.transaction import Transaction

__all__ = ["ParasiteOutcome", "simulate_parasite_release"]


@dataclass(frozen=True)
class ParasiteOutcome:
    """What the attacker achieved.

    Attributes:
        parasite_size: transactions in the released parasite chain.
        honest_after_release: honest transactions issued post-release.
        approvals_captured: honest approval edges landing on parasite
            transactions after the release.
        approvals_total: all honest approval edges after the release.
        parasite_tip_weight: cumulative weight of the parasite's final
            transaction at the end (how much honest work it attracted).
    """

    parasite_size: int
    honest_after_release: int
    approvals_captured: int
    approvals_total: int
    parasite_tip_weight: int

    @property
    def capture_ratio(self) -> float:
        """Fraction of post-release honest approvals the parasite won."""
        if self.approvals_total == 0:
            return 0.0
        return self.approvals_captured / self.approvals_total


HONEST_BEFORE = 60
"""Honest transactions that grow the main tangle before the release."""


def simulate_parasite_release(*, selector: Optional[TipSelector] = None,
                              parasite_size: int = 40,
                              honest_after: int = 60,
                              seed: int = 0) -> ParasiteOutcome:
    """Run the three-phase parasite scenario on one tangle.

    Phase 1: :data:`HONEST_BEFORE` honest transactions grow the main
    tangle.
    Phase 2: the attacker grows a private chain of *parasite_size*
    transactions anchored at the genesis-era tangle, then releases it
    in one burst (every parasite transaction attaches back-to-back).
    Phase 3: *honest_after* honest transactions arrive, selecting tips
    with *selector* (uniform random by default); we measure where their
    approvals go.
    """
    honest = KeyPair.generate(seed=f"parasite-honest-{seed}".encode())
    attacker = KeyPair.generate(seed=f"parasite-attacker-{seed}".encode())
    selector = selector if selector is not None else UniformRandomTipSelector()
    rng = random.Random(seed)

    genesis = Transaction.create_genesis(honest)
    tangle = Tangle(genesis)
    clock = 0.0

    def attach_honest(index: int) -> Transaction:
        nonlocal clock
        clock += 1.0
        branch, trunk = selector.select(tangle, rng)
        tx = Transaction.create(
            honest, kind="data", payload=f"honest-{index}".encode(),
            timestamp=clock, branch=branch, trunk=trunk, difficulty=1,
        )
        tangle.attach(tx, arrival_time=clock)
        return tx

    # Phase 1 — the main tangle grows.
    for i in range(HONEST_BEFORE):
        attach_honest(i)

    # Phase 2 — the broom: every parasite transaction approves the same
    # fixed anchor pair (the genesis, the oldest possible point), so the
    # release dumps `parasite_size` fresh tips into the pool at once.
    parasite_hashes: Set[bytes] = set()
    anchor = genesis.tx_hash
    last_parasite = anchor
    for i in range(parasite_size):
        clock += 0.001  # burst: effectively simultaneous arrivals
        tx = Transaction.create(
            attacker, kind="data", payload=f"parasite-{i}".encode(),
            timestamp=clock, branch=anchor, trunk=anchor,
            difficulty=1,
        )
        tangle.attach(tx, arrival_time=clock)
        parasite_hashes.add(tx.tx_hash)
        last_parasite = tx.tx_hash
    parasite_tip = last_parasite

    # Phase 3 — honest traffic resumes; where do approvals land?
    captured = 0
    total = 0
    for i in range(honest_after):
        tx = attach_honest(HONEST_BEFORE + i)
        for chosen in (tx.branch, tx.trunk):
            total += 1
            if chosen in parasite_hashes:
                captured += 1

    return ParasiteOutcome(
        parasite_size=parasite_size,
        honest_after_release=honest_after,
        approvals_captured=captured,
        approvals_total=total,
        parasite_tip_weight=tangle.weight(parasite_tip),
    )
