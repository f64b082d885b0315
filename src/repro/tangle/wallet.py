"""Wallets: account-side transfer construction.

The token ledger (:mod:`repro.tangle.ledger`) defines what a valid
transfer *is*; a :class:`Wallet` is the sender-side state machine that
produces them — tracking the next sequence number, locally reserving
funds across in-flight transfers, and signing the payloads — so
examples, tests and attack harnesses do not hand-roll sequence
bookkeeping (and get it subtly wrong).

A wallet is intentionally *optimistic*: it trusts its own view of the
balance until the ledger says otherwise.  :meth:`Wallet.reconcile`
resyncs against an authoritative ledger (e.g. after conflicts were
arbitrated away from this sender's favour).
"""

from __future__ import annotations

from typing import Optional

from ..crypto.keys import KeyPair
from .ledger import TokenLedger, TransferPayload
from .transaction import Transaction, TransactionKind

__all__ = ["Wallet", "InsufficientWalletFundsError"]


class InsufficientWalletFundsError(Exception):
    """The wallet's local balance cannot cover a requested transfer."""


class Wallet:
    """Sender-side transfer builder for one account.

    Args:
        keypair: the account's identity (signs every transfer).
        initial_balance: the account's balance as known at creation
            (e.g. from the genesis allocation).
        initial_sequence: the next unused sequence number.
    """

    def __init__(self, keypair: KeyPair, *, initial_balance: int = 0,
                 initial_sequence: int = 0):
        if initial_balance < 0:
            raise ValueError("initial_balance must be non-negative")
        if initial_sequence < 0:
            raise ValueError("initial_sequence must be non-negative")
        self.keypair = keypair
        self._balance = initial_balance
        self._next_sequence = initial_sequence

    @property
    def account_id(self) -> bytes:
        return self.keypair.node_id

    @property
    def available_balance(self) -> int:
        """Funds not yet committed to built transfers."""
        return self._balance

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    # -- building ----------------------------------------------------------

    def build_transfer(self, recipient: bytes, amount: int, *,
                       timestamp: float, branch: bytes, trunk: bytes,
                       difficulty: int,
                       nonce: Optional[int] = None) -> Transaction:
        """Create a signed, sealed transfer transaction.

        Consumes the next sequence number and locally reserves the
        funds; raises :class:`InsufficientWalletFundsError` without
        side effects when the balance cannot cover it.
        """
        if amount <= 0:
            raise ValueError("transfer amount must be positive")
        if amount > self._balance:
            raise InsufficientWalletFundsError(
                f"wallet holds {self._balance}, transfer wants {amount}"
            )
        payload = TransferPayload(
            sender=self.account_id,
            recipient=recipient,
            amount=amount,
            sequence=self._next_sequence,
        )
        tx = Transaction.create(
            self.keypair,
            kind=TransactionKind.TRANSFER,
            payload=payload.to_bytes(),
            timestamp=timestamp,
            branch=branch,
            trunk=trunk,
            difficulty=difficulty,
            nonce=nonce,
        )
        self._next_sequence += 1
        self._balance -= amount
        return tx

    # -- incoming / reconciliation -------------------------------------------

    def reconcile(self, ledger: TokenLedger) -> None:
        """Resync against an authoritative ledger view.

        Adopts the ledger's balance and fast-forwards the sequence
        counter past every slot the ledger has seen for this account —
        never backwards, so transfers built but not yet applied do not
        get their sequence reused.
        """
        self._balance = ledger.balance(self.account_id)
        ledger_next = ledger.next_sequence(self.account_id)
        self._next_sequence = max(self._next_sequence, ledger_next)
