"""Tests for repro.tangle.wallet."""

import pytest

from repro.crypto.keys import KeyPair
from repro.tangle.ledger import TokenLedger
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction
from repro.tangle.wallet import InsufficientWalletFundsError, Wallet

ALICE = KeyPair.generate(seed=b"wallet-alice")
BOB = KeyPair.generate(seed=b"wallet-bob")
PARENT = b"\x01" * 32


def build(wallet, amount, *, timestamp=1.0):
    return wallet.build_transfer(
        BOB.node_id, amount, timestamp=timestamp,
        branch=PARENT, trunk=PARENT, difficulty=1,
    )


class TestBuildTransfer:
    def test_builds_valid_transaction(self):
        wallet = Wallet(ALICE, initial_balance=100)
        tx = build(wallet, 30)
        assert tx.verify_pow() and tx.verify_signature()
        ledger = TokenLedger({ALICE.node_id: 100})
        payload = TokenLedger.decode(tx)
        assert payload.amount == 30
        assert payload.sequence == 0
        assert ledger.apply_or_conflict(tx) == "applied"

    def test_sequences_increment(self):
        wallet = Wallet(ALICE, initial_balance=100)
        first = build(wallet, 10)
        second = build(wallet, 10, timestamp=2.0)
        ledger = TokenLedger({ALICE.node_id: 100})
        assert ledger.apply_or_conflict(first) == "applied"
        assert ledger.apply_or_conflict(second) == "applied"
        assert ledger.next_sequence(ALICE.node_id) == 2
        assert wallet.next_sequence == 2

    def test_funds_reserved_locally(self):
        wallet = Wallet(ALICE, initial_balance=50)
        build(wallet, 30)
        assert wallet.available_balance == 20
        with pytest.raises(InsufficientWalletFundsError):
            build(wallet, 21)
        # The failed attempt must not burn a sequence or funds.
        assert wallet.next_sequence == 1
        assert wallet.available_balance == 20

    def test_zero_amount_rejected(self):
        wallet = Wallet(ALICE, initial_balance=10)
        with pytest.raises(ValueError):
            build(wallet, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Wallet(ALICE, initial_balance=-1)
        with pytest.raises(ValueError):
            Wallet(ALICE, initial_sequence=-1)


class TestDepositsAndReconcile:
    def test_reconcile_adopts_ledger_balance(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        wallet = Wallet(ALICE, initial_balance=100)
        tx = build(wallet, 40)
        ledger.apply_or_conflict(tx)
        # Someone pays Alice out-of-band.
        ledger.credit(ALICE.node_id, 15)
        wallet.reconcile(ledger)
        assert wallet.available_balance == ledger.balance(ALICE.node_id) == 75

    def test_reconcile_never_rewinds_sequence(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        wallet = Wallet(ALICE, initial_balance=100)
        build(wallet, 10)  # built but never applied to the ledger
        assert wallet.next_sequence == 1
        wallet.reconcile(ledger)
        # Ledger has seen nothing, but the in-flight transfer's slot
        # must not be reused.
        assert wallet.next_sequence == 1

    def test_reconcile_fast_forwards_after_external_history(self):
        ledger = TokenLedger({ALICE.node_id: 100})
        primary = Wallet(ALICE, initial_balance=100)
        for i in range(3):
            ledger.apply_or_conflict(
                build(primary, 5, timestamp=float(i + 1)))
        # A fresh wallet instance (device rebooted) resyncs.
        rebooted = Wallet(ALICE)
        rebooted.reconcile(ledger)
        assert rebooted.next_sequence == 3
        assert rebooted.available_balance == 85


class TestEndToEndWithTangle:
    def test_wallet_transfers_attach_and_apply(self):
        genesis = Transaction.create_genesis(ALICE)
        ledger = TokenLedger({ALICE.node_id: 100})
        tangle = Tangle(genesis)
        wallet = Wallet(ALICE, initial_balance=100)
        parent = genesis.tx_hash
        for i in range(5):
            tx = wallet.build_transfer(
                BOB.node_id, 7, timestamp=float(i + 1),
                branch=parent, trunk=parent, difficulty=1,
            )
            tangle.attach(tx, arrival_time=float(i + 1))
            assert ledger.apply_or_conflict(tx) == "applied"
            parent = tx.tx_hash
        assert ledger.balance(BOB.node_id) == 35
        assert ledger.balance(ALICE.node_id) == 65
        assert wallet.available_balance == 65
