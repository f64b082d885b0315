"""Structural invariants of the optimized tangle.

Three families:

* **tip-pool**: the tip set is exactly the no-approver set, however
  the DAG grew;
* **weights**: observed cumulative weights are monotone non-decreasing
  over time (batched flushing may defer propagation but must never let
  a read go backwards);
* **atomicity**: a failed ``attach`` — every validator-raise path and
  both unknown-parent paths — leaves the tangle byte-for-byte
  unmodified.
"""

import pytest

from repro.crypto.keys import KeyPair
from repro.tangle.errors import (
    DuplicateTransactionError,
    InvalidSignatureError,
    TimestampError,
    UnknownParentError,
    ValidationError,
)
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction
from repro.tangle.validation import crypto_validator, timestamp_validator

from .schedules import random_growth_schedule

KEYS = KeyPair.generate(seed=b"invariant-tests")


def state_fingerprint(tangle: Tangle) -> bytes:
    """A byte-exact digest of every observable and internal structure.

    Pending weight contributions are flushed first: flushing is a
    semantic no-op (reads always flush), and normalising makes two
    states comparable regardless of where their epochs ended.
    """
    tangle.flush_weights()
    parts = [
        repr(sorted(tangle._transactions)),
        repr(sorted((h, tuple(sorted(s))) for h, s in tangle._approvers.items())),
        repr(sorted(tangle._tips)),
        repr(sorted(tangle._arrival_time.items())),
        repr(sorted(tangle._height.items())),
        repr(sorted(tangle._cumulative_weight.items())),
        repr(tangle._order),
        repr(sorted(tangle._entry_points.items())),
        repr(sorted(tangle._by_height.items())),
        repr(tangle._max_height),
    ]
    return b"\n".join(p.encode() for p in parts)


class TestTipPoolInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_tips_are_exactly_the_unapproved(self, seed):
        genesis, schedule = random_growth_schedule(seed)
        tangle = Tangle(genesis)
        for tx in schedule:
            tangle.attach(tx, arrival_time=tx.timestamp)
            unapproved = sorted(
                h for h in tangle._transactions
                if not tangle.approvers(h)
            )
            assert tangle.tips() == unapproved


class TestWeightMonotonicity:
    @pytest.mark.parametrize("interval", (1, 5, 64))
    def test_weights_never_decrease(self, interval):
        genesis, schedule = random_growth_schedule(7, length=80)
        tangle = Tangle(genesis, weight_flush_interval=interval)
        last_seen = {}
        for i, tx in enumerate(schedule):
            tangle.attach(tx, arrival_time=tx.timestamp)
            if i % 9 == 0:  # probe at varied epoch offsets
                for h, previous in last_seen.items():
                    now = tangle.weight(h)
                    assert now >= previous, h
                    last_seen[h] = now
                last_seen[tx.tx_hash] = tangle.weight(tx.tx_hash)


class TestAttachAtomicity:
    """Every failure path must leave the tangle byte-for-byte intact."""

    @pytest.fixture()
    def tangle(self):
        genesis = Transaction.create_genesis(KEYS)
        tangle = Tangle(genesis, validators=[
            crypto_validator(),
            timestamp_validator(),
        ], weight_flush_interval=4)
        previous = genesis
        for i in range(6):
            tx = Transaction.create(
                KEYS, kind="data", payload=f"base-{i}".encode(),
                timestamp=float(i + 1), branch=previous.tx_hash,
                trunk=genesis.tx_hash, difficulty=1,
            )
            tangle.attach(tx, arrival_time=tx.timestamp)
            previous = tx
        self.head = previous
        return tangle

    def _assert_rejected_without_trace(self, tangle, tx, error, *,
                                       expect_absent=True):
        before = state_fingerprint(tangle)
        size = len(tangle)
        with pytest.raises(error):
            tangle.attach(tx, arrival_time=99.0)
        assert state_fingerprint(tangle) == before
        assert len(tangle) == size
        if expect_absent:
            assert tx.tx_hash not in tangle

    def test_duplicate_rejected_unmodified(self, tangle):
        self._assert_rejected_without_trace(
            tangle, self.head, DuplicateTransactionError,
            expect_absent=False)  # it is attached — exactly once

    def test_second_genesis_rejected_unmodified(self, tangle):
        second = Transaction.create_genesis(KEYS, payload=b"again")
        self._assert_rejected_without_trace(tangle, second, ValidationError)

    def test_unknown_branch_rejected_unmodified(self, tangle):
        orphan = Transaction.create(
            KEYS, kind="data", payload=b"orphan", timestamp=7.0,
            branch=b"\x13" * 32, trunk=self.head.tx_hash, difficulty=1,
        )
        self._assert_rejected_without_trace(tangle, orphan, UnknownParentError)

    def test_unknown_trunk_rejected_unmodified(self, tangle):
        orphan = Transaction.create(
            KEYS, kind="data", payload=b"orphan2", timestamp=7.0,
            branch=self.head.tx_hash, trunk=b"\x14" * 32, difficulty=1,
        )
        self._assert_rejected_without_trace(tangle, orphan, UnknownParentError)

    def test_bad_signature_rejected_unmodified(self, tangle):
        import dataclasses
        honest = Transaction.create(
            KEYS, kind="data", payload=b"forged", timestamp=7.0,
            branch=self.head.tx_hash, trunk=self.head.tx_hash, difficulty=1,
        )
        forged = dataclasses.replace(honest, signature=b"\x00" * 64)
        self._assert_rejected_without_trace(
            tangle, forged, InvalidSignatureError)

    def test_backdated_timestamp_rejected_unmodified(self, tangle):
        backdated = Transaction.create(
            KEYS, kind="data", payload=b"backdated", timestamp=0.5,
            branch=self.head.tx_hash, trunk=self.head.tx_hash, difficulty=1,
        )
        self._assert_rejected_without_trace(tangle, backdated, TimestampError)

    def test_custom_validator_raise_unmodified(self, tangle):
        def reject_everything(t, tx):
            raise ValidationError("nope")
        tangle.add_validator(reject_everything)
        fresh = Transaction.create(
            KEYS, kind="data", payload=b"doomed", timestamp=7.0,
            branch=self.head.tx_hash, trunk=self.head.tx_hash, difficulty=1,
        )
        self._assert_rejected_without_trace(tangle, fresh, ValidationError)
