"""Account ledger and double-spend semantics for transfer transactions.

The threat model (Section III) includes double-spending: "a malicious
node wants to spend the same token twice or more through submitting
multiple transactions before the previous one is verified".  To give
that attack concrete semantics, the tangle carries *transfer* payloads
over an account ledger:

* every account (a node id) holds an integer token balance;
* each transfer carries a per-sender *sequence number*;
* spending the same sequence slot twice with different content is a
  double spend — both transfers may attach, the lowest transaction hash
  takes the slot on every replica whatever the arrival order, and the
  conflict is recorded (the record is what the credit mechanism
  punishes).

Sequence numbers make conflict detection exact and deterministic in an
asynchronous DAG, where "the same token" has no UTXO identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .errors import MalformedPayloadError
from .transaction import Transaction, TransactionKind

__all__ = ["TransferPayload", "ConflictRecord", "TokenLedger"]


@dataclass(frozen=True)
class TransferPayload:
    """A token transfer: move *amount* from *sender* to *recipient*.

    ``sequence`` must increase by one per sender transfer; reusing a
    sequence with different content is the double-spend signature.
    """

    sender: bytes
    recipient: bytes
    amount: int
    sequence: int

    def __post_init__(self):
        if len(self.sender) != 32 or len(self.recipient) != 32:
            raise ValueError("sender/recipient must be 32-byte node ids")
        if self.amount <= 0:
            raise ValueError("transfer amount must be positive")
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "sender": self.sender.hex(),
                "recipient": self.recipient.hex(),
                "amount": self.amount,
                "sequence": self.sequence,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransferPayload":
        try:
            fields = json.loads(data.decode())
            return cls(
                sender=bytes.fromhex(fields["sender"]),
                recipient=bytes.fromhex(fields["recipient"]),
                amount=int(fields["amount"]),
                sequence=int(fields["sequence"]),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise MalformedPayloadError(f"bad transfer payload: {exc}") from exc


@dataclass(frozen=True)
class ConflictRecord:
    """One detected double spend."""

    sender: bytes
    sequence: int
    accepted_tx: bytes
    rejected_tx: bytes
    detected_at: float


class TokenLedger:
    """Balances plus per-sender spent-sequence tracking.

    The ledger never gates a :class:`~repro.tangle.tangle.Tangle`
    attach: the owning replica folds each attached transfer through
    :meth:`apply_or_conflict`, its one transfer policy.
    """

    def __init__(self, initial_balances: Optional[Dict[bytes, int]] = None):
        self._balances: Dict[bytes, int] = {}
        for account, amount in (initial_balances or {}).items():
            if amount < 0:
                raise ValueError("initial balances must be non-negative")
            self._balances[bytes(account)] = int(amount)
        # sender -> sequence -> accepted transaction hash
        self._spent: Dict[bytes, Dict[int, bytes]] = {}
        # sender -> cached next unused sequence (kept so the per-transfer
        # hot path stays O(1) instead of max() over all spent slots;
        # invalidated on reversal, rebuilt lazily)
        self._next_sequence: Dict[bytes, int] = {}
        # applied tx hash -> payload (kept so a losing conflict branch
        # can be reversed when the deterministic winner arrives)
        self._applied: Dict[bytes, TransferPayload] = {}
        self.conflicts: List[ConflictRecord] = []

    # -- queries ---------------------------------------------------------

    def balance(self, account: bytes) -> int:
        """Current balance of *account* (0 if never seen)."""
        return self._balances.get(account, 0)

    def next_sequence(self, account: bytes) -> int:
        """The next unused sequence number for *account* (O(1) amortised)."""
        cached = self._next_sequence.get(account)
        if cached is None:
            spent = self._spent.get(account)
            cached = max(spent) + 1 if spent else 0
            self._next_sequence[account] = cached
        return cached

    def spent_tx(self, sender: bytes, sequence: int) -> Optional[bytes]:
        """Hash of the transfer occupying (sender, sequence), if any."""
        return self._spent.get(sender, {}).get(sequence)

    @property
    def total_supply(self) -> int:
        return sum(self._balances.values())

    # -- application -----------------------------------------------------

    @staticmethod
    def decode(tx: Transaction) -> TransferPayload:
        """Decode a transfer transaction's payload (raises
        :class:`MalformedPayloadError` on anything else)."""
        if tx.kind != TransactionKind.TRANSFER:
            raise MalformedPayloadError(
                f"transaction {tx.short_hash} is not a transfer"
            )
        return TransferPayload.from_bytes(tx.payload)

    def _apply_effect(self, tx_hash: bytes, payload: TransferPayload) -> None:
        self._balances[payload.sender] = self.balance(payload.sender) - payload.amount
        self._balances[payload.recipient] = (
            self.balance(payload.recipient) + payload.amount
        )
        self._spent.setdefault(payload.sender, {})[payload.sequence] = tx_hash
        cached = self._next_sequence.get(payload.sender)
        if cached is not None and payload.sequence >= cached:
            self._next_sequence[payload.sender] = payload.sequence + 1
        self._applied[tx_hash] = payload

    def _reverse_effect(self, tx_hash: bytes) -> None:
        payload = self._applied.pop(tx_hash)
        self._balances[payload.sender] = self.balance(payload.sender) + payload.amount
        self._balances[payload.recipient] = (
            self.balance(payload.recipient) - payload.amount
        )
        del self._spent[payload.sender][payload.sequence]
        # The reversed slot may have been the highest: recompute lazily.
        self._next_sequence.pop(payload.sender, None)

    def apply_or_conflict(self, tx: Transaction, *, now: float = 0.0) -> str:
        """Asynchronous-consensus application: never refuses the DAG.

        Conflicting transfers are allowed to *exist* in the tangle (so
        replicas converge structurally — the paper: double spends are
        "detected and canceled by asynchronous consensus mechanism");
        only their ledger effect is arbitrated.  The arbiter is
        deterministic: among transactions competing for one
        (sender, sequence) slot, the **lowest transaction hash wins**,
        so every replica settles on the same balances regardless of
        arrival order.

        Returns one of:

        * ``"applied"`` — effect applied normally;
        * ``"duplicate"`` — this exact transaction was already applied;
        * ``"conflict-rejected"`` — a conflict; the incumbent keeps the
          slot (it has the lower hash);
        * ``"conflict-replaced"`` — a conflict; this transaction has the
          lower hash, the incumbent's effect was reversed;
        * ``"insufficient"`` — no conflict, but the sender cannot cover
          the amount; the transfer is void (no effect).

        A lower-hash challenger that the sender could not fund after
        reversing the incumbent is rejected (the incumbent stands):
        balances must never go negative.  In that corner the arbitration
        is funding-constrained rather than purely hash-ordered.

        Raises :class:`MalformedPayloadError` when the payload does not
        decode or its sender is not the issuer (you can only spend your
        own tokens).
        """
        payload = self.decode(tx)
        if payload.sender != tx.issuer.node_id:
            raise MalformedPayloadError(
                f"transfer sender {payload.sender.hex()[:8]} is not the "
                f"issuer {tx.issuer.short_id}"
            )
        existing = self.spent_tx(payload.sender, payload.sequence)
        if existing == tx.tx_hash:
            return "duplicate"
        if existing is None:
            if self.balance(payload.sender) < payload.amount:
                return "insufficient"
            self._apply_effect(tx.tx_hash, payload)
            return "applied"
        self.conflicts.append(
            ConflictRecord(
                sender=payload.sender,
                sequence=payload.sequence,
                accepted_tx=min(existing, tx.tx_hash),
                rejected_tx=max(existing, tx.tx_hash),
                detected_at=now,
            )
        )
        if tx.tx_hash < existing:
            incumbent_payload = self._applied[existing]
            self._reverse_effect(existing)
            if self.balance(payload.sender) < payload.amount:
                # Challenger unfundable: reinstate the incumbent.
                self._apply_effect(existing, incumbent_payload)
                return "conflict-rejected"
            self._apply_effect(tx.tx_hash, payload)
            return "conflict-replaced"
        return "conflict-rejected"

    def credit(self, account: bytes, amount: int) -> None:
        """Mint *amount* tokens to *account* (genesis allocation helper)."""
        if amount <= 0:
            raise ValueError("credit amount must be positive")
        self._balances[account] = self.balance(account) + amount

    # -- state transfer ----------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """Serialisable balances and spent-slot map, for node snapshots."""
        return {
            "balances": {
                account.hex(): amount
                for account, amount in sorted(self._balances.items())
            },
            "spent": {
                sender.hex(): {
                    str(sequence): tx_hash.hex()
                    for sequence, tx_hash in slots.items()
                }
                for sender, slots in self._spent.items()
            },
        }

    def rehydrate(self, transactions: Iterable[Transaction]) -> int:
        """Repopulate reversal payloads from retained transfers.

        :meth:`import_state` cannot carry the ``_applied`` payload map
        (the export format is balances + spent slots only), so a
        restored ledger would be unable to *reverse* a pre-restore
        incumbent when a lower-hash challenger arrives afterwards —
        conflict arbitration spanning the restore boundary would crash
        instead of replaying identically.  Snapshot adopters call this
        with the retained transactions; each transfer that still owns
        its (sender, sequence) slot gets its payload re-decoded.
        Returns how many payloads were rehydrated.
        """
        count = 0
        for tx in transactions:
            if tx.kind != TransactionKind.TRANSFER:
                continue
            payload = self.decode(tx)
            if self._spent.get(payload.sender, {}).get(payload.sequence) \
                    == tx.tx_hash:
                self._applied[tx.tx_hash] = payload
                count += 1
        return count

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`export_state` output (replaces current state).

        Conflict records are not carried: a restored node arbitrates
        only conflicts it sees from then on.  Reversal payloads are
        rebuilt separately via :meth:`rehydrate` from the retained
        tangle region.
        """
        try:
            balances = {
                bytes.fromhex(account): int(amount)
                for account, amount in state["balances"].items()
            }
            spent = {
                bytes.fromhex(sender): {
                    int(sequence): bytes.fromhex(tx_hash)
                    for sequence, tx_hash in slots.items()
                }
                for sender, slots in state["spent"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedPayloadError(f"bad ledger state: {exc}") from exc
        self._balances = balances
        self._spent = spent
        self._next_sequence = {}
        self._applied = {}
        self.conflicts = []
