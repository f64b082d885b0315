"""Per-node persistence: journalling, checkpointing and restore.

:class:`NodePersistence` sits between a full node and its
:class:`~repro.storage.store.Store`.  The write path is a journal —
every attached transaction becomes a ``tx`` log record — punctuated by
``checkpoint`` records carrying hash-chained
:class:`~repro.storage.checkpoint.EpochSnapshot` state, after which the
journal below the checkpoint can be pruned.  The read path
(:meth:`NodePersistence.load`) verifies both chains and hands back a
:class:`RestorePoint`: the newest snapshot plus the journal tail to
replay on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..telemetry.registry import coerce_registry
from .checkpoint import EpochSnapshot
from .errors import StorageCorruptionError, StorageError
from .store import GENESIS_PREV_HASH, Store

__all__ = ["NodePersistence", "RestorePoint"]


@dataclass
class RestorePoint:
    """Everything needed to rebuild a node from its store.

    ``snapshot`` is ``None`` when the log holds no checkpoint yet — the
    node restores by replaying the full journal from genesis.  ``tail``
    is the journal suffix newer than the snapshot, oldest first.
    """

    genesis: object
    snapshot: Optional[object] = None
    epoch: Optional[EpochSnapshot] = None
    tail: List[Tuple[object, float]] = field(default_factory=list)


class NodePersistence:
    """Journal + checkpoint manager bound to one store."""

    def __init__(self, store: Store, *, telemetry=None):
        registry = coerce_registry(telemetry)
        self._m_checkpoints = registry.counter(
            "repro_storage_checkpoints_total",
            "Hash-chained epoch snapshots written to durable stores")
        self._m_replayed = registry.counter(
            "repro_storage_replayed_records_total",
            "Journal tail records replayed during restores")
        self._m_restores = registry.counter(
            "repro_storage_restores_total",
            "Node restore-from-store operations completed")
        self.store = store
        self._epoch = 0
        self._prev_snapshot_hash = GENESIS_PREV_HASH
        self._tx_records = 0
        self._scan_existing()

    def _scan_existing(self) -> None:
        """Pick up the epoch chain state from an already-populated store
        (reopening after a crash, or a second process attaching)."""
        anchored = False
        for record in self.store.records():
            if record.kind == "checkpoint":
                epoch = EpochSnapshot.from_data(
                    record.data, context=f"store record {record.seq}")
                if anchored or epoch.epoch == 0:
                    if (epoch.epoch != self._epoch
                            or epoch.prev_hash != self._prev_snapshot_hash):
                        raise StorageCorruptionError(
                            f"store record {record.seq}: epoch chain "
                            f"break — epoch {epoch.epoch} does not "
                            f"extend epoch {self._epoch - 1}")
                anchored = True
                self._epoch = epoch.epoch + 1
                self._prev_snapshot_hash = epoch.snapshot_hash
                self._tx_records = 0
            elif record.kind == "tx":
                self._tx_records += 1

    # -- queries -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The next epoch number a checkpoint would get."""
        return self._epoch

    @property
    def transactions_logged(self) -> int:
        """Journal records written since the last checkpoint."""
        return self._tx_records

    # -- write path --------------------------------------------------------

    def initialize(self, genesis) -> None:
        """Bind the store to *genesis* (first record of a fresh log).

        Reopening an existing store instead verifies the stored genesis
        matches; a pruned log legitimately starts at a checkpoint, which
        is self-verifying, so no genesis record is required there.
        """
        records = self.store.records()
        if not records:
            self.store.append("genesis", {"tx": genesis.to_bytes().hex()})
            return
        first = records[0]
        if first.kind == "genesis" and first.data.get("tx") != \
                genesis.to_bytes().hex():
            raise StorageError(
                "store belongs to a different deployment: stored genesis "
                "does not match this node's genesis")

    def record_transaction(self, tx, arrival_time: float) -> None:
        """Journal one attached transaction."""
        self.store.append(
            "tx", {"tx": tx.to_bytes().hex(), "arrival": float(arrival_time)})
        self._tx_records += 1

    def checkpoint(self, node, *, now: float,
                   keep_recent_seconds: Optional[float] = None,
                   min_weight_to_prune: int = 5,
                   prune_log: bool = True) -> EpochSnapshot:
        """Freeze *node*'s state into the next epoch snapshot.

        By default nothing is pruned from the tangle
        (``keep_recent_seconds=None`` keeps every transaction) so a
        restore is byte-identical to the live node; pass a finite
        horizon to also drop deeply confirmed cones below the
        checkpoint.  ``prune_log`` drops journal records below the new
        checkpoint record (the snapshot subsumes them).
        """
        horizon = (float("inf") if keep_recent_seconds is None
                   else keep_recent_seconds)
        snapshot = node.export_snapshot(
            now=now, keep_recent_seconds=horizon,
            min_weight_to_prune=min_weight_to_prune)
        epoch = EpochSnapshot(
            epoch=self._epoch,
            created_at=now,
            prev_hash=self._prev_snapshot_hash,
            state=snapshot.to_data(),
        )
        record = self.store.append("checkpoint", epoch.to_data())
        self._epoch = epoch.epoch + 1
        self._prev_snapshot_hash = epoch.snapshot_hash
        if prune_log:
            self.store.prune_before(record.seq)
            self._tx_records = 0
        self._m_checkpoints.inc()
        return epoch

    # -- read path ---------------------------------------------------------

    def load(self) -> RestorePoint:
        """Verify the store and extract the newest restore point."""
        # Imported lazily — the storage layer stays import-light so the
        # injector and config validation can use it without cycles.
        from ..tangle.transaction import Transaction

        genesis = None
        epoch_chain: Optional[EpochSnapshot] = None
        tail: List[Tuple[object, float]] = []
        for record in self.store.records():
            context = f"store record {record.seq}"
            if record.kind == "genesis":
                try:
                    genesis = Transaction.from_bytes(
                        bytes.fromhex(str(record.data["tx"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise StorageCorruptionError(
                        f"{context}: undecodable genesis ({exc})") from exc
            elif record.kind == "checkpoint":
                epoch = EpochSnapshot.from_data(record.data, context=context)
                if epoch_chain is not None:
                    if (epoch.epoch != epoch_chain.epoch + 1
                            or epoch.prev_hash != epoch_chain.snapshot_hash):
                        raise StorageCorruptionError(
                            f"{context}: epoch chain break — epoch "
                            f"{epoch.epoch} does not extend epoch "
                            f"{epoch_chain.epoch}")
                epoch_chain = epoch
                tail = []
            elif record.kind == "tx":
                try:
                    tx = Transaction.from_bytes(
                        bytes.fromhex(str(record.data["tx"])))
                    arrival = float(record.data["arrival"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise StorageCorruptionError(
                        f"{context}: undecodable journal entry "
                        f"({exc})") from exc
                tail.append((tx, arrival))
            else:
                raise StorageError(
                    f"{context}: unknown record kind {record.kind!r}")

        snapshot = None
        if epoch_chain is not None:
            snapshot = epoch_chain.node_snapshot()
            genesis = snapshot.tangle.genesis
        if genesis is None:
            raise StorageCorruptionError(
                "store holds neither a genesis record nor a checkpoint — "
                "nothing to restore from")
        self._m_restores.inc()
        self._m_replayed.inc(len(tail))
        return RestorePoint(genesis=genesis, snapshot=snapshot,
                            epoch=epoch_chain, tail=tail)
