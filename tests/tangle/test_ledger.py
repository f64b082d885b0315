"""Tests for repro.tangle.ledger (transfers and double spending)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.keys import KeyPair
from repro.tangle.errors import MalformedPayloadError
from repro.tangle.ledger import TokenLedger, TransferPayload
from repro.tangle.transaction import Transaction, TransactionKind

ALICE = KeyPair.generate(seed=b"ledger-alice")
BOB = KeyPair.generate(seed=b"ledger-bob")


def transfer_tx(sender_keys, recipient_id, amount, sequence, *,
                timestamp=1.0, parents=None):
    payload = TransferPayload(
        sender=sender_keys.node_id,
        recipient=recipient_id,
        amount=amount,
        sequence=sequence,
    )
    branch = trunk = parents if parents is not None else b"\x01" * 32
    return Transaction.create(
        sender_keys, kind=TransactionKind.TRANSFER,
        payload=payload.to_bytes(), timestamp=timestamp,
        branch=branch, trunk=trunk, difficulty=1,
    )


class TestTransferPayload:
    def test_roundtrip(self):
        payload = TransferPayload(ALICE.node_id, BOB.node_id, 7, 3)
        assert TransferPayload.from_bytes(payload.to_bytes()) == payload

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            TransferPayload(b"short", BOB.node_id, 1, 0)

    def test_rejects_non_positive_amount(self):
        with pytest.raises(ValueError):
            TransferPayload(ALICE.node_id, BOB.node_id, 0, 0)
        with pytest.raises(ValueError):
            TransferPayload(ALICE.node_id, BOB.node_id, -5, 0)

    def test_rejects_negative_sequence(self):
        with pytest.raises(ValueError):
            TransferPayload(ALICE.node_id, BOB.node_id, 1, -1)

    def test_rejects_garbage_bytes(self):
        with pytest.raises(MalformedPayloadError):
            TransferPayload.from_bytes(b"not json at all")

    @given(st.integers(min_value=1, max_value=10 ** 9),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_property_roundtrip(self, amount, sequence):
        payload = TransferPayload(ALICE.node_id, BOB.node_id, amount, sequence)
        assert TransferPayload.from_bytes(payload.to_bytes()) == payload


class TestBalances:
    def test_initial_balances(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        assert ledger.balance(ALICE.node_id) == 100
        assert ledger.balance(BOB.node_id) == 0
        assert ledger.total_supply == 100

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger({ALICE.node_id: -1})

    def test_apply_moves_tokens(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        tx = transfer_tx(ALICE, BOB.node_id, 30, 0)
        assert ledger.apply_or_conflict(tx) == "applied"
        assert ledger.balance(ALICE.node_id) == 70
        assert ledger.balance(BOB.node_id) == 30
        assert ledger.total_supply == 100

    def test_sequences_advance(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        assert ledger.next_sequence(ALICE.node_id) == 0
        ledger.apply_or_conflict(transfer_tx(ALICE, BOB.node_id, 10, 0))
        assert ledger.next_sequence(ALICE.node_id) == 1

    def test_credit_mints(self):
        ledger = TokenLedger()
        ledger.credit(ALICE.node_id, 50)
        assert ledger.balance(ALICE.node_id) == 50
        with pytest.raises(ValueError):
            ledger.credit(ALICE.node_id, 0)

    def test_received_tokens_are_spendable(self):
        ledger = TokenLedger({ALICE.node_id: 10})
        ledger.apply_or_conflict(transfer_tx(ALICE, BOB.node_id, 10, 0))
        assert ledger.apply_or_conflict(
            transfer_tx(BOB, ALICE.node_id, 4, 0)) == "applied"
        assert ledger.balance(ALICE.node_id) == 4
        assert ledger.balance(BOB.node_id) == 6


class TestDoubleSpend:
    def test_same_sequence_different_content_recorded(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        first = transfer_tx(ALICE, BOB.node_id, 10, 0)
        second = transfer_tx(ALICE, ALICE.node_id, 10, 0, timestamp=2.0)
        ledger.apply_or_conflict(first)
        assert ledger.apply_or_conflict(second, now=5.0).startswith(
            "conflict-")
        assert len(ledger.conflicts) == 1
        record = ledger.conflicts[0]
        assert record.sender == ALICE.node_id
        assert record.sequence == 0
        assert {record.accepted_tx, record.rejected_tx} == {
            first.tx_hash, second.tx_hash}
        assert record.detected_at == 5.0

    def test_same_transaction_reapplied_is_not_a_conflict(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        tx = transfer_tx(ALICE, BOB.node_id, 10, 0)
        ledger.apply_or_conflict(tx)
        assert ledger.apply_or_conflict(tx) == "duplicate"
        assert not ledger.conflicts

    def test_spent_tx_lookup(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        tx = transfer_tx(ALICE, BOB.node_id, 10, 0)
        ledger.apply_or_conflict(tx)
        assert ledger.spent_tx(ALICE.node_id, 0) == tx.tx_hash
        assert ledger.spent_tx(ALICE.node_id, 1) is None

    def test_issuer_must_match_sender(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        payload = TransferPayload(ALICE.node_id, BOB.node_id, 10, 0)
        forged = Transaction.create(
            BOB, kind=TransactionKind.TRANSFER, payload=payload.to_bytes(),
            timestamp=1.0, branch=b"\x01" * 32, trunk=b"\x01" * 32,
            difficulty=1,
        )
        with pytest.raises(MalformedPayloadError):
            ledger.apply_or_conflict(forged)
        assert ledger.spent_tx(ALICE.node_id, 0) is None
        assert ledger.balance(ALICE.node_id) == 100

    def test_decode_rejects_non_transfer(self):
        tx = Transaction.create(
            ALICE, kind=TransactionKind.DATA, payload=b"data",
            timestamp=1.0, branch=b"\x01" * 32, trunk=b"\x01" * 32,
            difficulty=1,
        )
        with pytest.raises(MalformedPayloadError):
            TokenLedger.decode(tx)


class TestApplyOrConflict:
    """Asynchronous-consensus arbitration: lowest hash wins, replicas
    converge on the same balances regardless of arrival order."""

    def _conflict_pair(self):
        a = transfer_tx(ALICE, BOB.node_id, 10, 0)
        b = transfer_tx(ALICE, ALICE.node_id, 10, 0, timestamp=2.0)
        return sorted([a, b], key=lambda tx: tx.tx_hash)  # (winner, loser)

    def test_applied_then_duplicate(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        tx = transfer_tx(ALICE, BOB.node_id, 10, 0)
        assert ledger.apply_or_conflict(tx) == "applied"
        assert ledger.apply_or_conflict(tx) == "duplicate"
        assert ledger.balance(BOB.node_id) == 10

    def test_loser_then_winner_replaces(self):
        winner, loser = self._conflict_pair()
        ledger = TokenLedger({ALICE.node_id: 100})
        assert ledger.apply_or_conflict(loser) == "applied"
        assert ledger.apply_or_conflict(winner) == "conflict-replaced"
        assert ledger.spent_tx(ALICE.node_id, 0) == winner.tx_hash
        assert len(ledger.conflicts) == 1

    def test_winner_then_loser_rejected(self):
        winner, loser = self._conflict_pair()
        ledger = TokenLedger({ALICE.node_id: 100})
        assert ledger.apply_or_conflict(winner) == "applied"
        assert ledger.apply_or_conflict(loser) == "conflict-rejected"
        assert ledger.spent_tx(ALICE.node_id, 0) == winner.tx_hash

    def test_order_independence_of_final_state(self):
        winner, loser = self._conflict_pair()
        forward = TokenLedger({ALICE.node_id: 100})
        forward.apply_or_conflict(winner)
        forward.apply_or_conflict(loser)
        backward = TokenLedger({ALICE.node_id: 100})
        backward.apply_or_conflict(loser)
        backward.apply_or_conflict(winner)
        for account in (ALICE.node_id, BOB.node_id):
            assert forward.balance(account) == backward.balance(account)
        assert (forward.spent_tx(ALICE.node_id, 0)
                == backward.spent_tx(ALICE.node_id, 0))

    def test_conflict_record_names_deterministic_winner(self):
        winner, loser = self._conflict_pair()
        ledger = TokenLedger({ALICE.node_id: 100})
        ledger.apply_or_conflict(loser)
        ledger.apply_or_conflict(winner)
        record = ledger.conflicts[0]
        assert record.accepted_tx == winner.tx_hash
        assert record.rejected_tx == loser.tx_hash

    def test_insufficient_is_void_not_applied(self):
        ledger = TokenLedger({ALICE.node_id: 5})
        tx = transfer_tx(ALICE, BOB.node_id, 10, 0)
        assert ledger.apply_or_conflict(tx) == "insufficient"
        assert ledger.balance(ALICE.node_id) == 5
        assert ledger.spent_tx(ALICE.node_id, 0) is None
        assert ledger.balance(BOB.node_id) == 0
        assert ledger.next_sequence(ALICE.node_id) == 0
