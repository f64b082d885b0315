"""The node snapshot: one hash-linked freeze of full-node state.

A :class:`EpochSnapshot` freezes the four state machines a full node
owns — the tangle cut, token ledger, credit registry, ACL — and chains
itself to the previous snapshot through ``prev_hash``, exactly the way
:mod:`repro.nodes.replica` hashes replica state for convergence checks.
It is self-verifying (its hash is recomputed at load) and
chain-verifying (epoch *n+1* must name epoch *n*'s hash), so a store
can prune the log below a checkpoint without losing the ability to
detect tampering.

It is also the artifact a constrained gateway ships to a new peer: a
snapshot taken for bootstrap rather than for a store is epoch 0,
anchored at :data:`~repro.storage.store.GENESIS_PREV_HASH`, and its hash
travels with it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Tuple

from .errors import StorageCorruptionError
from .store import GENESIS_PREV_HASH, canonical_json

if TYPE_CHECKING:
    from ..tangle.snapshot import TangleSnapshot

__all__ = ["EpochSnapshot"]

_BODY_KEYS = ("epoch", "created_at", "prev_hash", "state")


def _digest(body: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


@dataclass(frozen=True)
class EpochSnapshot:
    """Everything a full node needs to stand in for an old one, as one
    link in the epoch hash chain.

    Attributes:
        created_at: ledger time of the snapshot — also the *credit
            horizon*: a restored node must not re-record behaviour for
            transactions at or before this time.
        tangle: the pruned DAG cut (retained region + entry points).
        acl_state: authorisation list as of the snapshot.
        ledger_state: balances and spent sequence slots.
        credit_state: behaviour histories (malicious history in full).
        epoch: position in the chain; 0 for a bootstrap snapshot.
        prev_hash: the previous epoch's :attr:`snapshot_hash`, or
            :data:`~repro.storage.store.GENESIS_PREV_HASH` for epoch 0 —
            the checkpoints form their own chain on top of the log's
            per-record chain, so pruning drops log records, never links.
    """

    created_at: float
    tangle: "TangleSnapshot"
    acl_state: Dict[str, object]
    ledger_state: Dict[str, object]
    credit_state: Dict[str, object]
    epoch: int = 0
    prev_hash: str = GENESIS_PREV_HASH

    # -- encoding ------------------------------------------------------------

    @cached_property
    def _tangle_json(self) -> str:
        cut = self.tangle
        return json.dumps({
            "genesis": cut.genesis.to_bytes().hex(),
            "retained": [[tx.to_bytes().hex(), arrival]
                         for tx, arrival in cut.retained],
            "entry_points": [[tx_hash.hex(), timestamp]
                             for tx_hash, timestamp in cut.entry_points],
            "retired_tips": [tx_hash.hex() for tx_hash in cut.retired_tips],
            "pruned_count": cut.pruned_count,
            "created_at": self.created_at,
        })

    def body(self) -> Dict[str, object]:
        """The hashed fields.  The tangle rides as its own JSON string
        and ``created_at`` is written in all three places the stored
        format has always carried it."""
        return {
            "epoch": self.epoch,
            "created_at": self.created_at,
            "prev_hash": self.prev_hash,
            "state": {
                "tangle": self._tangle_json,
                "acl_state": self.acl_state,
                "ledger_state": self.ledger_state,
                "credit_state": self.credit_state,
                "created_at": self.created_at,
            },
        }

    @cached_property
    def snapshot_hash(self) -> str:
        return _digest(self.body())

    def to_data(self) -> Dict[str, object]:
        data = self.body()
        data["hash"] = self.snapshot_hash
        return data

    # -- decoding ------------------------------------------------------------

    @staticmethod
    def verify_link(data: Dict[str, object], *,
                    context: str = "checkpoint") -> Tuple[int, str, str]:
        """Check a stored snapshot's self-hash and epoch-0 anchor without
        decoding its state; returns ``(epoch, prev_hash, hash)``.  The
        epoch-chain walk runs this on every checkpoint and decodes only
        the newest."""
        try:
            body = {key: data[key] for key in _BODY_KEYS}
            link = (int(data["epoch"]), str(data["prev_hash"]),
                    str(data["hash"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageCorruptionError(
                f"{context}: malformed epoch snapshot ({exc})") from exc
        epoch, prev_hash, stored_hash = link
        computed = _digest(body)
        if computed != stored_hash:
            raise StorageCorruptionError(
                f"{context}: epoch {epoch} snapshot failed verification — "
                f"stored hash {stored_hash[:12]}… != computed "
                f"{computed[:12]}… (corrupted snapshot)")
        if epoch == 0 and prev_hash != GENESIS_PREV_HASH:
            raise StorageCorruptionError(
                f"{context}: epoch 0 must anchor to "
                f"{GENESIS_PREV_HASH[:12]}…, found {prev_hash[:12]}…")
        return link

    @classmethod
    def from_data(cls, data: Dict[str, object], *,
                  context: str = "checkpoint") -> "EpochSnapshot":
        """Decode and verify a stored or shipped snapshot.  Every
        refusal — a bad hash, a broken anchor, malformed state, copies
        of ``created_at`` that disagree — is a
        :class:`~repro.storage.errors.StorageCorruptionError`."""
        # Imported lazily: a node only decodes a snapshot to restore.
        from ..tangle.snapshot import TangleSnapshot
        from ..tangle.transaction import Transaction

        def decode(encoded):
            return Transaction.from_bytes(bytes.fromhex(encoded))

        epoch, prev_hash, stored_hash = cls.verify_link(data,
                                                        context=context)
        try:
            state = data["state"]
            cut = json.loads(state["tangle"])
            snapshot = cls(
                epoch=epoch,
                prev_hash=prev_hash,
                created_at=float(data["created_at"]),
                tangle=TangleSnapshot(
                    genesis=decode(cut["genesis"]),
                    retained=tuple((decode(encoded), float(arrival))
                                   for encoded, arrival in cut["retained"]),
                    entry_points=tuple(
                        (bytes.fromhex(tx_hash), float(timestamp))
                        for tx_hash, timestamp in cut["entry_points"]),
                    retired_tips=tuple(bytes.fromhex(tx_hash)
                                       for tx_hash in cut["retired_tips"]),
                    pruned_count=int(cut["pruned_count"]),
                ),
                acl_state=dict(state["acl_state"]),
                ledger_state=dict(state["ledger_state"]),
                credit_state=dict(state["credit_state"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageCorruptionError(
                f"{context}: malformed epoch snapshot ({exc})") from exc
        # The hash covers the stored bytes; the decoded snapshot must
        # write them back exactly, so a non-canonical field or a copy of
        # ``created_at`` that disagrees with the others is refused.
        if snapshot.snapshot_hash != stored_hash:
            raise StorageCorruptionError(
                f"{context}: epoch {epoch} snapshot does not re-encode "
                f"to the bytes its hash covers (a field or a copy of "
                f"created_at disagrees)")
        return snapshot
