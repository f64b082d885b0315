"""Differential tests: optimized tangle vs the naive reference.

The optimized :class:`Tangle` layers several scale mechanisms over the
plain DAG definitions — batched lazy weight propagation, tip-pool and
height indexes, a cached depth map.  None of them may ever change an
answer.  These tests replay identical random growth schedules (seeded,
varied fan-in and tip pressure — see :mod:`tests.tangle.schedules`)
into every engine configuration and the from-scratch reference, and
assert ``weight()`` / ``capped_weight()`` / ``height()`` / ``tips()`` /
``depth_from_tips()`` agree at interleaved probes and at the end.
"""

import random

import pytest

from repro.tangle.tangle import Tangle

from .reference import ReferenceTangle
from .schedules import random_growth_schedule, unsigned_tx

SEEDS = range(8)


def engine_variants(genesis):
    """Every weight-engine configuration behind the same Tangle API."""
    return {
        "eager(interval=1)": Tangle(genesis, weight_flush_interval=1),
        "batched(interval=7)": Tangle(genesis, weight_flush_interval=7),
        "batched(default)": Tangle(genesis),
        "exact-on-demand": Tangle(genesis, track_cumulative_weight=False),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schedules_weight_height_tips_agree(seed):
    genesis, schedule = random_growth_schedule(seed)
    reference = ReferenceTangle(genesis)
    variants = engine_variants(genesis)
    probe_rng = random.Random(seed ^ 0xDEADBEEF)
    hashes = [genesis.tx_hash]

    for tx in schedule:
        reference.attach(tx)
        for tangle in variants.values():
            tangle.attach(tx, arrival_time=tx.timestamp)
        hashes.append(tx.tx_hash)
        # Interleaved reads: exercise flush-on-read mid-epoch, not just
        # the clean end-of-schedule state.
        if probe_rng.random() < 0.2:
            probe = probe_rng.choice(hashes)
            expected = reference.weight(probe)
            for name, tangle in variants.items():
                assert tangle.weight(probe) == expected, (name, seed)

    expected_tips = reference.tips()
    for name, tangle in variants.items():
        assert tangle.tips() == expected_tips, (name, seed)
        assert list(tangle.tip_sequence()) == expected_tips, (name, seed)
        for h in hashes:
            assert tangle.weight(h) == reference.weight(h), (name, seed)
            assert tangle.height(h) == reference.height(h), (name, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_capped_weight_is_exact_and_never_flushes(seed):
    """``capped_weight(h, limit) == min(weight(h), limit)`` at every
    interleaved probe, in every engine state — clean, mid-epoch, partly
    flushed — and the read itself leaves the pending batch alone."""
    genesis, schedule = random_growth_schedule(seed)
    reference = ReferenceTangle(genesis)
    variants = engine_variants(genesis)
    probe_rng = random.Random(seed ^ 0xC0FFEE)
    hashes = [genesis.tx_hash]

    for tx in schedule:
        reference.attach(tx)
        for tangle in variants.values():
            tangle.attach(tx, arrival_time=tx.timestamp)
        hashes.append(tx.tx_hash)
        if probe_rng.random() < 0.3:
            probe = probe_rng.choice(hashes[-12:])
            limit = probe_rng.choice([1, 2, 3, 5, 5.0, 2.5, 1000])
            expected = min(reference.weight(probe), limit)
            for name, tangle in variants.items():
                pending = tangle.pending_weight_count
                assert tangle.capped_weight(probe, limit) == expected, \
                    (name, seed, limit)
                assert tangle.pending_weight_count == pending, (name, seed)
        if probe_rng.random() < 0.05:
            # A flush-exact read elsewhere (tip selection): stored
            # weights now run ahead of the next pending batch.
            for tangle in variants.values():
                tangle.weight(probe_rng.choice(hashes))

    for name, tangle in variants.items():
        for h in hashes:
            assert tangle.capped_weight(h, 5.0) == \
                min(reference.weight(h), 5.0), (name, seed)
        with pytest.raises(KeyError):
            tangle.capped_weight(b"\x00" * 32, 5.0)


def test_capped_weight_walk_is_bounded_by_the_limit():
    """A wide fan must not overrun the bound: the count stops at
    *limit* vertices however many approvers one transaction has."""
    genesis, _ = random_growth_schedule(0, length=1)
    tangle = Tangle(genesis, weight_flush_interval=10_000)
    for index in range(200):
        tangle.attach(unsigned_tx(20_000 + index, genesis.tx_hash,
                                  genesis.tx_hash, float(index + 1)),
                      arrival_time=float(index + 1))

    class CountingSet(set):
        """The fan, counting how many approvers a walk looked at."""
        yielded = 0

        def __iter__(self):
            for item in set.__iter__(self):
                CountingSet.yielded += 1
                yield item

    fan = tangle._approvers[genesis.tx_hash] = \
        CountingSet(tangle._approvers[genesis.tx_hash])
    assert len(fan) == 200
    assert tangle.capped_weight(genesis.tx_hash, 5.0) == 5.0
    assert CountingSet.yielded == 4  # itself + four approvers = the cap
    assert tangle.pending_weight_count == 200
    # Once a flush has stored a weight at or above the limit the read
    # is a dictionary lookup: no walk at all.
    tangle.flush_weights()
    assert tangle.capped_weight(genesis.tx_hash, 5.0) == 5.0
    assert CountingSet.yielded == 4


@pytest.mark.parametrize("seed", (0, 3, 5))
def test_depth_from_tips_agrees(seed):
    genesis, schedule = random_growth_schedule(seed, length=60)
    reference = ReferenceTangle(genesis)
    tangle = Tangle(genesis)
    for tx in schedule:
        reference.attach(tx)
        tangle.attach(tx, arrival_time=tx.timestamp)
    for h in [genesis.tx_hash] + [tx.tx_hash for tx in schedule]:
        assert tangle.depth_from_tips(h) == reference.depth_from_tips(h), seed


def test_flush_interval_boundary_is_exact():
    """Weights read exactly at, just before and just after an epoch
    boundary must all be exact."""
    genesis, schedule = random_growth_schedule(11, length=40)
    reference = ReferenceTangle(genesis)
    tangle = Tangle(genesis, weight_flush_interval=8)
    for i, tx in enumerate(schedule):
        reference.attach(tx)
        tangle.attach(tx, arrival_time=tx.timestamp)
        assert tangle.pending_weight_count < 8
        if i % 8 in (6, 7, 0):
            assert tangle.weight(genesis.tx_hash) == reference.weight(genesis.tx_hash)
            assert tangle.pending_weight_count == 0


def test_explicit_flush_matches_incremental():
    """flush_weights() itself returns the flushed count and leaves the
    same state a sequence of eager updates would."""
    genesis, schedule = random_growth_schedule(13, length=30)
    lazy = Tangle(genesis, weight_flush_interval=10_000)
    eager = Tangle(genesis, weight_flush_interval=1)
    for tx in schedule:
        lazy.attach(tx, arrival_time=tx.timestamp)
        eager.attach(tx, arrival_time=tx.timestamp)
    assert lazy.pending_weight_count == len(schedule)
    assert lazy.flush_weights() == len(schedule)
    assert lazy.flush_weights() == 0
    for tx in schedule:
        assert lazy.weight(tx.tx_hash) == eager.weight(tx.tx_hash)


def test_deep_chain_diamonds_count_once():
    """A ladder of diamonds is the worst case for double counting: every
    batched mask traverses both sides of every diamond."""
    genesis, _ = random_growth_schedule(0, length=1)
    tangle = Tangle(genesis, weight_flush_interval=64)
    reference = ReferenceTangle(genesis)
    level = [genesis.tx_hash, genesis.tx_hash]
    clock, index = 0.0, 10_000
    for _ in range(20):
        new_level = []
        for _ in range(2):
            clock += 1.0
            index += 1
            tx = unsigned_tx(index, level[0], level[1], clock)
            tangle.attach(tx, arrival_time=clock)
            reference.attach(tx)
            new_level.append(tx.tx_hash)
        level = new_level
    assert tangle.weight(genesis.tx_hash) == reference.weight(genesis.tx_hash) == 41
