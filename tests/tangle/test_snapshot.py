"""Tests for repro.tangle.snapshot (local snapshots / pruning)."""

import pytest

from repro.crypto.keys import KeyPair
from repro.storage.checkpoint import EpochSnapshot
from repro.storage.errors import StorageCorruptionError
from repro.tangle.snapshot import take_snapshot
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction
from repro.tangle.validation import crypto_validator, timestamp_validator

from ..storage.harness import reseal, ship

KEYS = KeyPair.generate(seed=b"snapshot-tests")


def grow_chain_tangle(length=20, spacing=5.0):
    """A linear tangle: tx_i approves tx_{i-1}, arrivals spaced apart."""
    genesis = Transaction.create_genesis(KEYS)
    tangle = Tangle(genesis)
    previous = genesis
    for i in range(length):
        t = (i + 1) * spacing
        tx = Transaction.create(
            KEYS, kind="data", payload=f"tx-{i}".encode(), timestamp=t,
            branch=previous.tx_hash, trunk=previous.tx_hash, difficulty=1,
        )
        tangle.attach(tx, arrival_time=t)
        previous = tx
    return tangle, previous


class TestTakeSnapshot:
    def test_prunes_old_buried_history(self):
        tangle, _ = grow_chain_tangle(length=20, spacing=5.0)
        snapshot = take_snapshot(tangle, now=100.0,
                                 keep_recent_seconds=30.0,
                                 min_weight_to_prune=5)
        assert snapshot.pruned_count > 0
        assert snapshot.retained_count < 20
        assert snapshot.pruned_count + snapshot.retained_count == 20

    def test_tips_always_retained(self):
        tangle, tip = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0,
                                 keep_recent_seconds=0.0)
        retained_hashes = {tx.tx_hash for tx, _ in snapshot.retained}
        assert tip.tx_hash in retained_hashes

    def test_recent_transactions_retained(self):
        tangle, _ = grow_chain_tangle(length=20, spacing=5.0)
        snapshot = take_snapshot(tangle, now=100.0,
                                 keep_recent_seconds=30.0)
        for tx, arrival in snapshot.retained:
            # Everything younger than the window must be present.
            assert arrival >= 0
        retained_arrivals = {arrival for _, arrival in snapshot.retained}
        assert any(arrival > 70.0 for arrival in retained_arrivals)

    def test_entry_points_cover_cut_surface(self):
        tangle, _ = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0,
                                 keep_recent_seconds=0.0,
                                 min_weight_to_prune=2)
        retained_hashes = {tx.tx_hash for tx, _ in snapshot.retained}
        retained_hashes.add(snapshot.genesis.tx_hash)
        entry_hashes = {h for h, _ in snapshot.entry_points}
        for tx, _ in snapshot.retained:
            for parent in (tx.branch, tx.trunk):
                assert parent in retained_hashes or parent in entry_hashes

    def test_parameter_validation(self):
        tangle, _ = grow_chain_tangle(length=3)
        with pytest.raises(ValueError):
            take_snapshot(tangle, now=10.0, keep_recent_seconds=-1.0)
        with pytest.raises(ValueError):
            take_snapshot(tangle, now=10.0, min_weight_to_prune=0)

    def test_nothing_pruned_when_window_covers_all(self):
        tangle, _ = grow_chain_tangle(length=10, spacing=1.0)
        snapshot = take_snapshot(tangle, now=10.0,
                                 keep_recent_seconds=100.0)
        assert snapshot.pruned_count == 0
        assert snapshot.retained_count == 10


class TestRestore:
    def test_restored_tangle_matches_retained_region(self):
        tangle, tip = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0,
                                 keep_recent_seconds=0.0,
                                 min_weight_to_prune=3)
        restored = tangle_restored = snapshot.restore()
        assert len(restored) == snapshot.retained_count + 1  # + genesis
        assert restored.tips() == tangle.tips()
        assert restored.is_entry_point(
            next(iter({h for h, _ in snapshot.entry_points})))

    def test_restored_tangle_keeps_growing(self):
        tangle, tip = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0,
                                 keep_recent_seconds=0.0,
                                 min_weight_to_prune=3)
        restored = snapshot.restore(validators=[crypto_validator(),
                                                timestamp_validator()])
        new_tx = Transaction.create(
            KEYS, kind="data", payload=b"after-restore", timestamp=101.0,
            branch=tip.tx_hash, trunk=tip.tx_hash, difficulty=1,
        )
        restored.attach(new_tx, arrival_time=101.0)
        assert new_tx.tx_hash in restored

    def test_new_transaction_may_reference_entry_point(self):
        tangle, _ = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0,
                                 keep_recent_seconds=0.0,
                                 min_weight_to_prune=3)
        restored = snapshot.restore()
        entry_hash = next(iter({h for h, _ in snapshot.entry_points}))
        lazy_like = Transaction.create(
            KEYS, kind="data", payload=b"refs-pruned", timestamp=102.0,
            branch=entry_hash, trunk=entry_hash, difficulty=1,
        )
        result = restored.attach(lazy_like, arrival_time=102.0)
        # Parent age is computed from the entry point's *recorded*
        # timestamp, exactly as if the transaction were still held.
        entry_timestamp = dict(snapshot.entry_points)[entry_hash]
        assert result.parent_ages[0] == pytest.approx(
            102.0 - entry_timestamp)

    def test_repeated_snapshots_chain(self):
        tangle, tip = grow_chain_tangle()
        first = take_snapshot(tangle, now=1000.0, keep_recent_seconds=0.0,
                              min_weight_to_prune=3)
        restored = first.restore()
        # Grow a bit, snapshot again: old entry points survive when
        # still referenced.
        previous = tip
        for i in range(5):
            t = 101.0 + i
            tx = Transaction.create(
                KEYS, kind="data", payload=f"second-{i}".encode(),
                timestamp=t, branch=previous.tx_hash, trunk=previous.tx_hash,
                difficulty=1,
            )
            restored.attach(tx, arrival_time=t)
            previous = tx
        second = take_snapshot(restored, now=2000.0,
                               keep_recent_seconds=0.0,
                               min_weight_to_prune=3)
        again = second.restore()
        assert again.tips() == restored.tips()

    def test_weight_consistency_after_restore(self):
        tangle, tip = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0, keep_recent_seconds=0.0,
                                 min_weight_to_prune=3)
        restored = snapshot.restore()
        assert restored.weight(tip.tx_hash) == tangle.weight(tip.tx_hash)


class TestSerialisation:
    """A cut is stored and shipped inside an ``EpochSnapshot``."""

    def test_json_roundtrip(self):
        tangle, _ = grow_chain_tangle()
        snapshot = take_snapshot(tangle, now=1000.0, keep_recent_seconds=0.0,
                                 min_weight_to_prune=3)
        restored = EpochSnapshot.from_data(ship(snapshot)).tangle
        assert restored == snapshot
        # The roundtripped snapshot restores identically.
        assert restored.restore().tips() == snapshot.restore().tips()

    def test_from_json_rejects_garbage(self):
        tangle, _ = grow_chain_tangle(length=3)
        data = ship(take_snapshot(tangle, now=1000.0))
        for garbage in ('{"nope": 1}', "not json"):
            data["state"]["tangle"] = garbage
            with pytest.raises(StorageCorruptionError):
                EpochSnapshot.from_data(reseal(data))
