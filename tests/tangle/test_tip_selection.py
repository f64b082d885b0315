"""Tests for repro.tangle.tip_selection."""

import random

import pytest

from repro.crypto.keys import KeyPair
from repro.tangle.tangle import Tangle
from repro.tangle.tip_selection import (
    UniformRandomTipSelector,
    WeightedRandomWalkSelector,
)
from repro.tangle.transaction import Transaction

KEYS = KeyPair.generate(seed=b"tips-tests")


def child_of(tangle, a, b, *, payload, timestamp=1.0):
    tx = Transaction.create(
        KEYS, kind="data", payload=payload, timestamp=timestamp,
        branch=a, trunk=b, difficulty=1,
    )
    tangle.attach(tx, arrival_time=timestamp)
    return tx


@pytest.fixture()
def tangle():
    return Tangle(Transaction.create_genesis(KEYS))


class TestUniformRandom:
    def test_single_tip_duplicated(self, tangle, rng):
        branch, trunk = UniformRandomTipSelector().select(tangle, rng)
        assert branch == trunk == tangle.genesis.tx_hash

    def test_two_tips_both_selected(self, tangle, rng):
        g = tangle.genesis.tx_hash
        a = child_of(tangle, g, g, payload=b"a")
        b = child_of(tangle, a.tx_hash, a.tx_hash, payload=b"b", timestamp=2.0)
        c = child_of(tangle, a.tx_hash, a.tx_hash, payload=b"c", timestamp=2.0)
        branch, trunk = UniformRandomTipSelector().select(tangle, rng)
        assert {branch, trunk} == {b.tx_hash, c.tx_hash}

    def test_selects_only_tips(self, tangle, rng):
        g = tangle.genesis.tx_hash
        previous = child_of(tangle, g, g, payload=b"first")
        for i in range(10):
            previous = child_of(
                tangle, previous.tx_hash, previous.tx_hash,
                payload=f"tx-{i}".encode(), timestamp=float(i + 2),
            )
        selector = UniformRandomTipSelector()
        for _ in range(20):
            branch, trunk = selector.select(tangle, rng)
            assert tangle.is_tip(branch)
            assert tangle.is_tip(trunk)

    def test_deterministic_with_seed(self, tangle):
        g = tangle.genesis.tx_hash
        a = child_of(tangle, g, g, payload=b"a")
        child_of(tangle, g, a.tx_hash, payload=b"b", timestamp=2.0)
        child_of(tangle, g, a.tx_hash, payload=b"c", timestamp=2.0)
        pick1 = UniformRandomTipSelector().select(tangle, random.Random(5))
        pick2 = UniformRandomTipSelector().select(tangle, random.Random(5))
        assert pick1 == pick2


class TestWeightedRandomWalk:
    def test_terminates_on_tips(self, tangle, rng):
        g = tangle.genesis.tx_hash
        previous = child_of(tangle, g, g, payload=b"a")
        for i in range(15):
            previous = child_of(
                tangle, previous.tx_hash, previous.tx_hash,
                payload=f"w-{i}".encode(), timestamp=float(i + 2),
            )
        selector = WeightedRandomWalkSelector(alpha=0.1)
        branch, trunk = selector.select(tangle, rng)
        assert tangle.is_tip(branch)
        assert tangle.is_tip(trunk)

    def test_alpha_biases_toward_heavy_branch(self, tangle):
        # Build a heavy main branch and a one-transaction parasite.
        g = tangle.genesis.tx_hash
        heavy = child_of(tangle, g, g, payload=b"heavy-root")
        tip = heavy
        for i in range(20):
            tip = child_of(
                tangle, tip.tx_hash, tip.tx_hash,
                payload=f"heavy-{i}".encode(), timestamp=float(i + 2),
            )
        parasite = child_of(tangle, g, g, payload=b"parasite", timestamp=30.0)
        selector = WeightedRandomWalkSelector(alpha=2.0)
        rng = random.Random(0)
        picks = [selector.select(tangle, rng)[0] for _ in range(60)]
        heavy_hits = sum(1 for p in picks if p == tip.tx_hash)
        parasite_hits = sum(1 for p in picks if p == parasite.tx_hash)
        assert heavy_hits > parasite_hits
        assert heavy_hits >= 50  # strong bias at alpha=2

    def test_alpha_zero_still_valid(self, tangle, rng):
        g = tangle.genesis.tx_hash
        child_of(tangle, g, g, payload=b"a")
        selector = WeightedRandomWalkSelector(alpha=0.0)
        branch, trunk = selector.select(tangle, rng)
        assert tangle.is_tip(branch) and tangle.is_tip(trunk)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightedRandomWalkSelector(alpha=-0.1)
        with pytest.raises(ValueError):
            WeightedRandomWalkSelector(start_depth=0)
