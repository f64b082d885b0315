"""Differential tests: incremental credit vs the naive Eqn. 3/4 oracle.

The optimized :class:`~repro.core.credit.CreditRegistry` keeps rolling
window aggregates and record-time weight caches; the
:class:`tests.core.credit_reference.ReferenceCreditRegistry` recomputes
everything from scratch.  These tests drive both through identical
schedules — records, malice, evaluations at monotone and non-monotone
``now``, ``forget_before`` pruning, weight-provider growth (pulled by
the optimized registry, never pushed into it), export/import
round-trips, and real bound tangles whose reference is fed from an
eager twin so the oracle's reads never flush the tangle under test —
and require *exact* float equality.

Exactness holds because every weight in play is a multiple of 0.25
clamped to ``max_transaction_weight`` (the system's weights are small
capped integers), so all partial sums are exact in binary floating
point, and both implementations sum window records in the same
canonical (timestamp, insertion sequence) order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.consensus import CreditBasedConsensus
from repro.core.credit import CreditParameters, CreditRegistry, MaliciousBehaviour
from repro.tangle.snapshot import take_snapshot
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction

from ..tangle.schedules import KEYS, unsigned_tx
from .credit_reference import ReferenceCreditRegistry

BEHAVIOURS = [
    MaliciousBehaviour.LAZY_TIPS,
    MaliciousBehaviour.DOUBLE_SPENDING,
    MaliciousBehaviour.BAD_DATA,
]


class GrowingWeights:
    """A dict-backed weight provider whose values grow over time —
    a stand-in for the tangle's cumulative weights."""

    def __init__(self):
        self.weights = {}

    def provider(self, tx_hash: bytes) -> float:
        return self.weights[tx_hash]  # KeyError for unknown: intended

    def set(self, tx_hash: bytes, weight: float) -> None:
        self.weights[tx_hash] = weight


def assert_equal_evaluations(optimized, reference, node_ids, now):
    for node_id in node_ids:
        assert optimized.positive_credit(node_id, now) == \
            reference.positive_credit(node_id, now), (node_id.hex(), now)
        assert optimized.negative_credit(node_id, now) == \
            reference.negative_credit(node_id, now), (node_id.hex(), now)
        assert optimized.credit(node_id, now) == \
            reference.credit(node_id, now), (node_id.hex(), now)


class TestSeededScheduleDifferential:
    """Long seeded random schedules over every registry operation."""

    def _run_schedule(self, seed: int, steps: int = 400) -> None:
        rng = random.Random(seed)
        weights = GrowingWeights()
        params = CreditParameters()
        optimized = CreditRegistry(params, weight_provider=weights.provider)
        reference = ReferenceCreditRegistry(
            params, weight_provider=weights.provider)

        node_ids = [bytes([i]) * 32 for i in range(4)]
        hashes = []
        clock = 0.0

        for _ in range(steps):
            op = rng.random()
            if op < 0.45:
                # Record a transaction; 20% of timestamps are in the past
                # (out-of-order arrival), and hashes are sometimes reused
                # (the same transaction recorded again / by another node).
                node_id = rng.choice(node_ids)
                clock += rng.choice([0.0, 0.25, 0.5, 1.0, 3.0])
                if hashes and rng.random() < 0.15:
                    tx_hash = rng.choice(hashes)
                else:
                    tx_hash = rng.randrange(2 ** 128).to_bytes(32, "big")
                    hashes.append(tx_hash)
                    weights.set(tx_hash, rng.randrange(1, 5))
                timestamp = clock
                if rng.random() < 0.2:
                    timestamp = max(0.0, clock - rng.choice([0.25, 1.0, 7.5, 40.0]))
                optimized.record_transaction(node_id, tx_hash, timestamp)
                reference.record_transaction(node_id, tx_hash, timestamp)
            elif op < 0.55:
                node_id = rng.choice(node_ids)
                behaviour = rng.choice(BEHAVIOURS)
                optimized.record_malicious(node_id, behaviour, clock)
                reference.record_malicious(node_id, behaviour, clock)
            elif op < 0.72 and hashes:
                # Cumulative weight growth: the provider's values grow
                # and nothing is pushed — the optimized registry must
                # pull what can still change, the reference reads the
                # provider fresh every evaluation.
                for tx_hash in rng.sample(hashes, min(len(hashes), 3)):
                    weights.set(tx_hash, weights.weights[tx_hash]
                                + rng.choice([0.25, 1, 2]))
            elif op < 0.82:
                # forget_before, sometimes mid-window.
                node_id = rng.choice(node_ids)
                cutoff = clock - rng.choice([0.0, 5.0, 15.0, 30.0, 60.0])
                dropped_fast = optimized.forget_before(node_id, cutoff)
                dropped_ref = reference.forget_before(node_id, cutoff)
                assert dropped_fast == dropped_ref
            else:
                # Evaluate: mostly at the monotone frontier, sometimes in
                # the past (the consensus validator evaluates at
                # tx.timestamp), sometimes far ahead of every record — so
                # later in-order appends land *behind* the window start
                # (the eager-admission regression).
                now = clock
                roll = rng.random()
                if roll < 0.3:
                    now = max(0.0, clock - rng.choice([0.25, 2.0, 10.0, 29.75,
                                                       30.0, 45.0]))
                elif roll < 0.45:
                    now = clock + rng.choice([31.0, 75.0, 300.0])
                assert_equal_evaluations(optimized, reference, node_ids, now)

        assert_equal_evaluations(optimized, reference, node_ids, clock)
        assert_equal_evaluations(optimized, reference, node_ids, clock + 30.0)
        assert_equal_evaluations(optimized, reference, node_ids, 0.0)

    def test_schedule_seed_0(self):
        self._run_schedule(0)

    def test_schedule_seed_1(self):
        self._run_schedule(1)

    def test_schedule_seed_2(self):
        self._run_schedule(2)

    def test_export_import_matches_reference(self):
        """A round-tripped optimized registry still matches the oracle
        for every post-cutoff evaluation."""
        rng = random.Random(99)
        weights = GrowingWeights()
        params = CreditParameters()
        optimized = CreditRegistry(params, weight_provider=weights.provider)
        reference = ReferenceCreditRegistry(
            params, weight_provider=weights.provider)
        node_ids = [bytes([i]) * 32 for i in range(3)]
        clock = 0.0
        for _ in range(200):
            clock += rng.choice([0.25, 0.5, 2.0])
            node_id = rng.choice(node_ids)
            tx_hash = rng.randrange(2 ** 128).to_bytes(32, "big")
            weights.set(tx_hash, rng.randrange(1, 5))
            optimized.record_transaction(node_id, tx_hash, clock)
            reference.record_transaction(node_id, tx_hash, clock)
            if rng.random() < 0.1:
                optimized.record_malicious(
                    node_id, MaliciousBehaviour.LAZY_TIPS, clock)
                reference.record_malicious(
                    node_id, MaliciousBehaviour.LAZY_TIPS, clock)

        state = optimized.export_state(now=clock)
        restored = CreditRegistry(params, weight_provider=weights.provider)
        restored.import_state(state)
        # Post-import evaluations inside the surviving window match the
        # oracle exactly (pre-cutoff records were legitimately pruned).
        assert_equal_evaluations(restored, reference, node_ids, clock)
        assert_equal_evaluations(restored, reference, node_ids, clock + 7.5)
        # And the round trip preserves the optimized registry's own view.
        for node_id in node_ids:
            assert restored.credit(node_id, clock) == \
                optimized.credit(node_id, clock)
            assert restored.malicious_count(node_id) == \
                optimized.malicious_count(node_id)


class TestStaleInOrderAppendDifferential:
    """Regression: an in-order append older than the window start used
    to leave ``w_hi`` short of the record list end, so the next
    in-window append double-counted itself and evicted the wrong
    record on the following evaluation."""

    def test_stale_append_then_in_window_append(self):
        weights = GrowingWeights()
        params = CreditParameters(delta_t=30.0)
        optimized = CreditRegistry(params, weight_provider=weights.provider)
        reference = ReferenceCreditRegistry(
            params, weight_provider=weights.provider)
        node = b"\x01" * 32
        h_old, h_stale, h_live = (bytes([i + 10]) * 32 for i in range(3))
        for tx_hash, weight in ((h_old, 1), (h_stale, 1), (h_live, 3)):
            weights.set(tx_hash, weight)
        for registry in (optimized, reference):
            registry.record_transaction(node, h_old, 0.0)
        # Advance the window frontier far past every record...
        assert_equal_evaluations(optimized, reference, [node], 300.0)
        for registry in (optimized, reference):
            # ...then append in-order but behind the window start, and
            # follow with a genuinely in-window append.
            registry.record_transaction(node, h_stale, 1.0)
            registry.record_transaction(node, h_live, 299.0)
        assert_equal_evaluations(optimized, reference, [node], 300.0)
        assert optimized.positive_credit(node, 300.0) == 3.0 / 30.0


def assert_equal_without_flushing(tangle, optimized, reference, node_ids,
                                  now):
    """The tangle-backed form: the oracle reads an eager twin, so any
    flush of *tangle* here would be the optimized registry's doing."""
    pending = tangle.pending_weight_count
    assert_equal_evaluations(optimized, reference, node_ids, now)
    assert tangle.pending_weight_count == pending


class TestTangleBackedDifferential:
    """The real wiring: a tangle with batched lazy weight flushes is
    read by the optimized registry through ``bind_tangle``; the oracle
    reads an eager twin (``weight_flush_interval=1``) attached with the
    same transactions, so its reads never flush the tangle under
    test."""

    def test_matches_oracle_under_batched_flushes(self):
        rng = random.Random(7)
        genesis = Transaction.create_genesis(KEYS)
        tangle = Tangle(genesis, weight_flush_interval=5)
        twin = Tangle(genesis, weight_flush_interval=1)
        params = CreditParameters()
        optimized = CreditRegistry(params)
        CreditBasedConsensus(optimized).bind_tangle(tangle)
        reference = ReferenceCreditRegistry(
            params, weight_provider=twin.weight)

        node_ids = [bytes([i + 1]) * 32 for i in range(3)]
        hashes = [genesis.tx_hash]
        clock = 0.0

        def attach(index, branch, trunk, node_id):
            tx = unsigned_tx(index, branch, trunk, clock)
            tangle.attach(tx, arrival_time=clock)
            twin.attach(tx, arrival_time=clock)
            hashes.append(tx.tx_hash)
            optimized.record_transaction(node_id, tx.tx_hash, clock)
            reference.record_transaction(node_id, tx.tx_hash, clock)

        for i in range(80):
            clock += rng.choice([0.25, 0.5, 1.0])
            attach(i, rng.choice(hashes[-8:]), rng.choice(hashes[-8:]),
                   rng.choice(node_ids))
            if rng.random() < 0.3:
                now = clock if rng.random() < 0.7 else max(0.0, clock - 10.0)
                assert_equal_without_flushing(
                    tangle, optimized, reference, node_ids, now)

        assert_equal_without_flushing(
            tangle, optimized, reference, node_ids, clock)
        # Attach a burst shorter than the flush interval remainder
        # without evaluating, then evaluate: the answer must be exact
        # *and* the pending batch must still be pending afterwards.
        tangle.flush_weights()
        for i in range(4):
            attach(1000 + i, hashes[-1], hashes[-2], node_ids[0])
        assert tangle.pending_weight_count == 4
        assert_equal_evaluations(optimized, reference, node_ids, clock)
        assert tangle.pending_weight_count == 4


class TestInterleavedTangleSchedule:
    """ROADMAP item 1's schedule: attach, record, evaluate, prune and a
    snapshot round trip interleaved over a real bound tangle, `==`
    against the twin-fed oracle after every step, at the eager, a small
    and the default flush interval."""

    LONER = 3  # index of the issuer whose transactions nobody approves

    @pytest.mark.parametrize("interval", (1, 5, 256))
    @pytest.mark.parametrize("seed", (7, 19, 23))
    def test_every_step_matches_oracle(self, seed, interval):
        rng = random.Random(seed)
        genesis = Transaction.create_genesis(KEYS)
        tangle = Tangle(genesis, weight_flush_interval=interval)
        twin = Tangle(genesis, weight_flush_interval=1)
        params = CreditParameters()
        optimized = CreditRegistry(params)
        CreditBasedConsensus(optimized).bind_tangle(tangle)
        reference = ReferenceCreditRegistry(
            params, weight_provider=twin.weight)

        node_ids = [bytes([i + 1]) * 32 for i in range(4)]
        approvable = [genesis.tx_hash]  # never holds a LONER transaction
        state = {"clock": 0.0, "index": 0}

        def attach(branch, trunk):
            state["clock"] += rng.choice([0.0, 0.25, 0.5, 1.0])
            state["index"] += 1
            clock = state["clock"]
            tx = unsigned_tx(state["index"], branch, trunk, clock)
            tangle.attach(tx, arrival_time=clock)
            twin.attach(tx, arrival_time=clock)
            issuer = rng.randrange(len(node_ids))
            owners = [issuer]
            if rng.random() < 0.1:  # the same hash recorded for two nodes
                owners.append((issuer + 1) % len(node_ids))
            for owner in owners:
                optimized.record_transaction(
                    node_ids[owner], tx.tx_hash, clock)
                reference.record_transaction(
                    node_ids[owner], tx.tx_hash, clock)
            if self.LONER not in owners:
                approvable.append(tx.tx_hash)
            return tx.tx_hash

        def recent():
            return rng.choice(approvable[-8:])

        def grow():
            shape = rng.random()
            if shape < 0.5:
                attach(recent(), recent())
            elif shape < 0.6:  # both parents equal
                anchor = recent()
                attach(anchor, anchor)
            elif shape < 0.75:  # diamond: two siblings, then their join
                anchor = recent()
                left, right = attach(anchor, recent()), attach(anchor, anchor)
                attach(left, right)
            elif shape < 0.9:  # deep chain
                tail = recent()
                for _ in range(rng.randint(3, 9)):
                    tail = attach(tail, tail)
            else:  # wide fan onto one anchor
                anchor = recent()
                for _ in range(rng.randint(6, 12)):
                    attach(anchor, anchor)

        def evaluate():
            clock = state["clock"]
            roll = rng.random()
            if roll < 0.55:
                now = clock
            elif roll < 0.8:
                now = max(0.0, clock - rng.choice([0.25, 2.0, 10.0, 29.75,
                                                   30.0, 45.0]))
            else:
                now = clock + rng.choice([31.0, 75.0, 300.0])
            # A subset: the other nodes' records go stale across several
            # attaches (and may saturate unobserved) before their turn.
            subset = rng.sample(node_ids, rng.randint(1, len(node_ids)))
            assert_equal_without_flushing(
                tangle, optimized, reference, subset, now)

        steps = 160
        for step in range(steps):
            op = rng.random()
            if op < 0.6:
                grow()
            elif op < 0.68:
                node_id = rng.choice(node_ids)
                cutoff = state["clock"] - rng.choice([5.0, 15.0, 30.0, 60.0])
                assert optimized.forget_before(node_id, cutoff) == \
                    reference.forget_before(node_id, cutoff)
            elif op < 0.73:
                # What tip selection does on a live node: a flush-exact
                # read, leaving stored weights partly ahead of the rest.
                tangle.weight(rng.choice(approvable))
            if step == steps // 2:
                # Snapshot round trip: prune, restore a fresh tangle,
                # re-bind a fresh registry and import the credit state.
                clock = state["clock"]
                credit_state = optimized.export_state(now=clock)
                snapshot = take_snapshot(tangle, now=clock,
                                         keep_recent_seconds=15.0)
                assert snapshot.pruned_count > 0
                tangle = snapshot.restore(weight_flush_interval=interval)
                optimized = CreditRegistry(params)
                CreditBasedConsensus(optimized).bind_tangle(tangle)
                optimized.import_state(credit_state)
                # The export legitimately dropped what left the window.
                for node_id in node_ids:
                    reference.forget_before(node_id, clock - params.delta_t)
                approvable[:] = [h for h in approvable if h in tangle]
            evaluate()

        for now in (state["clock"], state["clock"] + 30.0, 0.0):
            assert_equal_without_flushing(
                tangle, optimized, reference, node_ids, now)
        # The export (what the credit hash covers) carries the same
        # capped weights, again without flushing.
        pending = tangle.pending_weight_count
        exported = optimized.export_state(now=state["clock"])["nodes"]
        assert tangle.pending_weight_count == pending
        assert exported.keys() == {node_id.hex() for node_id in node_ids}
        for entry in exported.values():
            for _, tx_hex, weight in entry["transactions"]:
                assert weight == min(twin.weight(bytes.fromhex(tx_hex)),
                                     params.max_transaction_weight)


# -- hypothesis property: random record/evaluate/forget schedules --------

operation = st.one_of(
    st.tuples(st.just("record"),
              st.integers(min_value=0, max_value=2),      # node
              st.integers(min_value=0, max_value=15),     # hash id
              st.integers(min_value=0, max_value=240)),   # ts quarters
    st.tuples(st.just("malice"),
              st.integers(min_value=0, max_value=2),
              st.sampled_from(BEHAVIOURS),
              st.integers(min_value=0, max_value=240)),
    st.tuples(st.just("grow"),
              st.integers(min_value=0, max_value=15),     # hash id
              st.integers(min_value=1, max_value=8),      # delta quarters
              st.just(0)),
    st.tuples(st.just("forget"),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=240),    # cutoff quarters
              st.just(0)),
    st.tuples(st.just("evaluate"),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=260),    # now quarters
              st.just(0)),
)


class TestPropertySchedules:
    @given(ops=st.lists(operation, min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_any_schedule_matches_oracle_exactly(self, ops):
        """Bit-exact equality over arbitrary interleavings of record
        (including out-of-order timestamps), malice, weight growth,
        forget_before and evaluation (including non-monotone now).

        All timestamps and weights live on a 0.25 grid, so float sums
        are exact and `==` is the right assertion.
        """
        weights = GrowingWeights()
        params = CreditParameters()
        optimized = CreditRegistry(params, weight_provider=weights.provider)
        reference = ReferenceCreditRegistry(
            params, weight_provider=weights.provider)
        node_ids = [bytes([i + 1]) * 32 for i in range(3)]

        def tx_hash_for(hash_id: int) -> bytes:
            tx_hash = bytes([hash_id + 1]) * 32
            if tx_hash not in weights.weights:
                weights.set(tx_hash, 1.0 + 0.25 * (hash_id % 6))
            return tx_hash

        for op in ops:
            kind = op[0]
            if kind == "record":
                _, node, hash_id, quarters = op
                tx_hash = tx_hash_for(hash_id)
                timestamp = quarters * 0.25
                optimized.record_transaction(
                    node_ids[node], tx_hash, timestamp)
                reference.record_transaction(
                    node_ids[node], tx_hash, timestamp)
            elif kind == "malice":
                _, node, behaviour, quarters = op
                optimized.record_malicious(
                    node_ids[node], behaviour, quarters * 0.25)
                reference.record_malicious(
                    node_ids[node], behaviour, quarters * 0.25)
            elif kind == "grow":
                _, hash_id, delta, _ = op
                tx_hash = tx_hash_for(hash_id)
                weights.set(tx_hash,
                            weights.weights[tx_hash] + delta * 0.25)
            elif kind == "forget":
                _, node, quarters, _ = op
                assert optimized.forget_before(
                    node_ids[node], quarters * 0.25) == \
                    reference.forget_before(node_ids[node], quarters * 0.25)
            else:
                _, node, quarters, _ = op
                now = quarters * 0.25
                assert optimized.positive_credit(node_ids[node], now) == \
                    reference.positive_credit(node_ids[node], now)
                assert optimized.credit(node_ids[node], now) == \
                    reference.credit(node_ids[node], now)

        for node_id in node_ids:
            for now in (0.0, 15.0, 30.0, 60.25, 65.0):
                assert optimized.credit(node_id, now) == \
                    reference.credit(node_id, now)
