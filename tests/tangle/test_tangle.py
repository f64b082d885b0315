"""Tests for repro.tangle.tangle (the DAG store)."""

import pytest

from repro.crypto.keys import KeyPair
from repro.tangle.errors import (
    DuplicateTransactionError,
    UnknownParentError,
    ValidationError,
)
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction

KEYS = KeyPair.generate(seed=b"tangle-tests")


def make_genesis():
    return Transaction.create_genesis(KEYS)


def child_of(parent_a, parent_b, *, payload=b"x", timestamp=1.0):
    return Transaction.create(
        KEYS, kind="data", payload=payload, timestamp=timestamp,
        branch=parent_a.tx_hash, trunk=parent_b.tx_hash, difficulty=1,
    )


@pytest.fixture()
def tangle():
    return Tangle(make_genesis())


class TestConstruction:
    def test_requires_genesis(self, tangle):
        non_genesis = child_of(tangle.genesis, tangle.genesis)
        with pytest.raises(ValueError):
            Tangle(non_genesis)

    def test_initial_state(self, tangle):
        assert len(tangle) == 1
        assert tangle.tip_count == 1
        assert tangle.tips() == [tangle.genesis.tx_hash]
        assert tangle.genesis.tx_hash in tangle


class TestAttach:
    def test_attach_updates_tips(self, tangle):
        tx = child_of(tangle.genesis, tangle.genesis)
        result = tangle.attach(tx, arrival_time=1.0)
        assert tangle.tips() == [tx.tx_hash]
        assert result.transaction is tx
        assert result.arrival_time == 1.0

    def test_attach_result_parent_flags(self, tangle):
        first = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(first, arrival_time=1.0)
        second = child_of(first, first, timestamp=2.0)
        result = tangle.attach(second, arrival_time=2.0)
        assert result.parents_were_tips == (True, True)
        third = child_of(first, first, payload=b"y", timestamp=3.0)
        result = tangle.attach(third, arrival_time=3.0)
        assert result.parents_were_tips == (False, False)
        assert result.parent_ages == (2.0, 2.0)

    def test_duplicate_rejected(self, tangle):
        tx = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(tx)
        with pytest.raises(DuplicateTransactionError):
            tangle.attach(tx)

    def test_unknown_parent_rejected(self, tangle):
        orphan_parent = child_of(tangle.genesis, tangle.genesis)
        grandchild = child_of(orphan_parent, orphan_parent)
        with pytest.raises(UnknownParentError):
            tangle.attach(grandchild)

    def test_second_genesis_rejected(self, tangle):
        with pytest.raises(ValidationError):
            tangle.attach(Transaction.create_genesis(KEYS, payload=b"again"))

    def test_failed_attach_leaves_tangle_unchanged(self, tangle):
        orphan_parent = child_of(tangle.genesis, tangle.genesis)
        grandchild = child_of(orphan_parent, orphan_parent)
        with pytest.raises(UnknownParentError):
            tangle.attach(grandchild)
        assert len(tangle) == 1
        assert grandchild.tx_hash not in tangle

    def test_custom_validator_runs(self, tangle):
        def reject_everything(t, tx):
            raise ValidationError("nope")
        tangle.add_validator(reject_everything)
        with pytest.raises(ValidationError):
            tangle.attach(child_of(tangle.genesis, tangle.genesis))

    def test_arrival_time_defaults_to_timestamp(self, tangle):
        tx = child_of(tangle.genesis, tangle.genesis, timestamp=4.5)
        result = tangle.attach(tx)
        assert result.arrival_time == 4.5
        assert tangle.arrival_time(tx.tx_hash) == 4.5


class TestWeights:
    def test_cumulative_weight_grows(self, tangle):
        genesis_hash = tangle.genesis.tx_hash
        assert tangle.weight(genesis_hash) == 1
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        assert tangle.weight(genesis_hash) == 2
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        assert tangle.weight(genesis_hash) == 3
        assert tangle.weight(a.tx_hash) == 2
        assert tangle.weight(b.tx_hash) == 1

    def test_diamond_counts_once(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis, payload=b"a")
        tangle.attach(a)
        b = child_of(a, a, payload=b"b", timestamp=2.0)
        c = child_of(a, a, payload=b"c", timestamp=2.0)
        tangle.attach(b)
        tangle.attach(c)
        d = child_of(b, c, payload=b"d", timestamp=3.0)
        tangle.attach(d)
        # d approves b and c, both approve a: a's weight counts d once.
        assert tangle.weight(a.tx_hash) == 4

    def test_untracked_mode_computes_on_demand(self):
        genesis = make_genesis()
        tangle = Tangle(genesis, track_cumulative_weight=False)
        a = child_of(genesis, genesis)
        tangle.attach(a)
        assert tangle.weight(genesis.tx_hash) == 2
        assert tangle.weight(a.tx_hash) == 1

    def test_confirmation_threshold(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        assert tangle.is_confirmed(tangle.genesis.tx_hash, threshold=2)
        assert not tangle.is_confirmed(a.tx_hash, threshold=2)


class TestTopology:
    def test_heights(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, tangle.genesis, timestamp=2.0)
        tangle.attach(b)
        assert tangle.height(tangle.genesis.tx_hash) == 0
        assert tangle.height(a.tx_hash) == 1
        assert tangle.height(b.tx_hash) == 2

    def test_parents_and_approvers(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        assert tangle.parents(a.tx_hash) == (tangle.genesis.tx_hash,
                                             tangle.genesis.tx_hash)
        assert tangle.parents(tangle.genesis.tx_hash) == ()
        assert tangle.approvers(tangle.genesis.tx_hash) == {a.tx_hash}

    def test_ancestors(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        assert tangle.ancestors(b.tx_hash) == {a.tx_hash,
                                               tangle.genesis.tx_hash}
        assert tangle.ancestors(tangle.genesis.tx_hash) == set()

    def test_depth_from_tips(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        assert tangle.depth_from_tips(b.tx_hash) == 0
        assert tangle.depth_from_tips(a.tx_hash) == 1
        assert tangle.depth_from_tips(tangle.genesis.tx_hash) == 2

    def test_iteration_in_arrival_order(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a, arrival_time=1.0)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b, arrival_time=2.0)
        order = [tx.tx_hash for tx in tangle]
        assert order == [tangle.genesis.tx_hash, a.tx_hash, b.tx_hash]

    def test_get_unknown_raises(self, tangle):
        with pytest.raises(KeyError):
            tangle.get(b"\x00" * 32)


class TestDepthFromTipsAfterRetire:
    """Regression: a fully-buried transaction (all its unapproved
    descendants retired via ``retire_tip``, the pruned-approver case)
    used to raise ``UnknownParentError`` from ``depth_from_tips``.  It
    now reports the distance to the nearest retired burial boundary —
    a lower bound on its true depth."""

    def test_fully_buried_reports_boundary_distance(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        tangle.retire_tip(b.tx_hash)
        assert tangle.tips() == []
        assert tangle.depth_from_tips(b.tx_hash) == 0
        assert tangle.depth_from_tips(a.tx_hash) == 1
        assert tangle.depth_from_tips(tangle.genesis.tx_hash) == 2

    def test_live_tip_wins_over_retired_boundary(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        retired = child_of(a, a, payload=b"r", timestamp=2.0)
        tangle.attach(retired)
        live = child_of(a, a, payload=b"l", timestamp=2.0)
        tangle.attach(live)
        tangle.retire_tip(retired.tx_hash)
        # a reaches the live tip at distance 1: exact semantics, not
        # the (equal) retired-boundary distance by accident — genesis
        # is further from the boundary than from the live tip.
        assert tangle.depth_from_tips(a.tx_hash) == 1
        assert tangle.depth_from_tips(tangle.genesis.tx_hash) == 2
        assert tangle.depth_from_tips(live.tx_hash) == 0

    def test_retired_tip_revives_on_new_approver(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        tangle.retire_tip(a.tx_hash)
        assert a.tx_hash in tangle.retired_tips()
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        assert a.tx_hash not in tangle.retired_tips()
        assert tangle.depth_from_tips(a.tx_hash) == 1  # via live tip b

    def test_unknown_hash_still_raises(self, tangle):
        with pytest.raises(KeyError):
            tangle.depth_from_tips(b"\x07" * 32)


class TestScaleIndexes:
    """The tip-pool / height indexes behind tips(), the bounded walk
    and the lazy weight engine."""

    def test_tip_sequence_is_cached_and_sorted(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        c = child_of(a, a, payload=b"c", timestamp=2.0)
        tangle.attach(c)
        first = tangle.tip_sequence()
        assert first is tangle.tip_sequence()  # cache hit, no re-sort
        assert list(first) == sorted([b.tx_hash, c.tx_hash])
        d = child_of(b, c, timestamp=3.0)
        tangle.attach(d)
        assert tangle.tip_sequence() == (d.tx_hash,)  # invalidated

    def test_height_index(self, tangle):
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, tangle.genesis, timestamp=2.0)
        tangle.attach(b)
        assert tangle.max_height == 2
        assert tangle.transactions_at_height(0) == (tangle.genesis.tx_hash,)
        assert tangle.transactions_at_height(1) == (a.tx_hash,)
        assert tangle.transactions_at_height(2) == (b.tx_hash,)
        assert tangle.transactions_at_height(3) == ()

    def test_lazy_weights_flush_on_read(self):
        tangle = Tangle(make_genesis(), weight_flush_interval=100)
        a = child_of(tangle.genesis, tangle.genesis)
        tangle.attach(a)
        b = child_of(a, a, timestamp=2.0)
        tangle.attach(b)
        assert tangle.pending_weight_count == 2
        assert tangle.weight(tangle.genesis.tx_hash) == 3  # exact read
        assert tangle.pending_weight_count == 0

    def test_flush_interval_validation(self):
        with pytest.raises(ValueError):
            Tangle(make_genesis(), weight_flush_interval=0)
