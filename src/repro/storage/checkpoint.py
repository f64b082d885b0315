"""Hash-chained epoch snapshots of full-node state.

A checkpoint freezes the four state machines a full node owns — tangle,
token ledger, credit registry, ACL — into one canonical-JSON body and
chains it to the previous checkpoint through ``prev_hash``, exactly the
way :mod:`repro.faults.report` hashes replica state for convergence
checks.  The resulting :class:`EpochSnapshot` is self-verifying (its
hash is recomputed at load) and chain-verifying (epoch *n+1* must name
epoch *n*'s hash), so a store can prune the log below a checkpoint
without losing the ability to detect tampering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import hashlib

from .errors import StorageCorruptionError
from .store import GENESIS_PREV_HASH, canonical_json

__all__ = ["EpochSnapshot"]


@dataclass(frozen=True)
class EpochSnapshot:
    """One checkpoint in the epoch hash chain.

    ``prev_hash`` is the previous epoch's :attr:`snapshot_hash` (or
    :data:`~repro.storage.store.GENESIS_PREV_HASH` for epoch 0), so the
    sequence of checkpoints forms its own chain on top of the log's
    per-record chain — pruning drops log records, never chain links.
    """

    epoch: int
    created_at: float
    prev_hash: str
    state: Dict[str, object]

    def body(self) -> Dict[str, object]:
        return {"epoch": self.epoch, "created_at": self.created_at,
                "prev_hash": self.prev_hash, "state": self.state}

    @property
    def snapshot_hash(self) -> str:
        return hashlib.sha256(
            canonical_json(self.body()).encode()).hexdigest()

    def to_data(self) -> Dict[str, object]:
        data = self.body()
        data["hash"] = self.snapshot_hash
        return data

    @classmethod
    def from_data(cls, data: Dict[str, object], *,
                  context: str = "checkpoint") -> "EpochSnapshot":
        try:
            snapshot = cls(
                epoch=int(data["epoch"]),
                created_at=float(data["created_at"]),
                prev_hash=str(data["prev_hash"]),
                state=dict(data["state"]),
            )
            stored_hash = str(data["hash"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageCorruptionError(
                f"{context}: malformed epoch snapshot ({exc})") from exc
        if snapshot.snapshot_hash != stored_hash:
            raise StorageCorruptionError(
                f"{context}: epoch {snapshot.epoch} snapshot failed "
                f"verification — stored hash {stored_hash[:12]}… != "
                f"computed {snapshot.snapshot_hash[:12]}… "
                f"(corrupted snapshot)")
        if snapshot.epoch == 0 and snapshot.prev_hash != GENESIS_PREV_HASH:
            raise StorageCorruptionError(
                f"{context}: epoch 0 must anchor to "
                f"{GENESIS_PREV_HASH[:12]}…, found "
                f"{snapshot.prev_hash[:12]}…")
        return snapshot

    def node_snapshot(self):
        """Rebuild the :class:`~repro.nodes.snapshot.NodeSnapshot` this
        checkpoint froze."""
        # Imported lazily: repro.nodes pulls in the full node stack.
        from ..nodes.snapshot import NodeSnapshot

        return NodeSnapshot.from_data(self.state)
