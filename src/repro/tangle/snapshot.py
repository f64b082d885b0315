"""Local snapshots: bounding ledger storage on constrained full nodes.

The paper's own closing discussion names "storage limitations" as an
open problem ("some methods to store huge amounts of data" are future
work).  This module implements the standard tangle answer — *local
snapshots*: deeply confirmed history is dropped, its cut surface is
remembered as **entry points** (pruned transaction hashes that retained
transactions may still reference), and application state derived from
the pruned region (token balances, ACL entries, credit histories) is
carried forward separately by the components that own it.

The :class:`TangleSnapshot` cut is restartable; together with that
application state it forms a node's
:class:`~repro.storage.checkpoint.EpochSnapshot`, the one serialised
snapshot, which doubles as the bootstrap artifact for a brand-new
gateway: ship the snapshot, replay the retained region, sync the rest
via anti-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .tangle import Tangle, Validator
from .transaction import Transaction

__all__ = ["TangleSnapshot", "take_snapshot"]


@dataclass(frozen=True)
class TangleSnapshot:
    """A pruned, restorable view of a tangle.

    Attributes:
        genesis: the original genesis (always retained — it anchors the
            trust configuration).
        retained: the kept transactions with their arrival times, in
            arrival order (parents before children within the snapshot).
        entry_points: hashes of pruned transactions that retained
            transactions reference, mapped to the pruned transactions'
            timestamps (needed for deterministic parent-age computation).
        retired_tips: retained transactions (or the genesis) whose
            approvers were all pruned — they must not re-enter the tip
            pool after a restore.
        pruned_count: how many transactions the snapshot dropped.

    The cut is in-memory only: it is stored and shipped inside a
    :class:`~repro.storage.checkpoint.EpochSnapshot`, which carries the
    time it was taken.
    """

    genesis: Transaction
    retained: Tuple[Tuple[Transaction, float], ...]
    entry_points: Tuple[Tuple[bytes, float], ...]
    retired_tips: Tuple[bytes, ...]
    pruned_count: int

    @property
    def retained_count(self) -> int:
        return len(self.retained)

    # -- restore -----------------------------------------------------------

    def restore(self, *, validators: Optional[List[Validator]] = None,
                **options) -> Tangle:
        """Rebuild a working tangle from this snapshot.

        The restored tangle accepts references to the pruned region via
        its entry points and continues growing normally.  The retained
        region is replayed *without* validators — it was validated when
        it first attached, and stateful validators (timestamps, credit)
        would mis-judge a replay; the supplied validators only govern
        growth after the restore.  The replay itself rides the batched
        weight engine, so restoring an n-transaction snapshot does not
        pay an O(ancestors) walk per replayed transaction.

        *options* are :class:`~repro.tangle.tangle.Tangle`'s own keywords
        (weight tracking, flush interval, telemetry registry): a node's
        restored tangle reports to the registry of the one it replaces.
        """
        tangle = Tangle(self.genesis, entry_points=dict(self.entry_points),
                        **options)
        for tx, arrival_time in self.retained:
            tangle.attach(tx, arrival_time=arrival_time)
        for tx_hash in self.retired_tips:
            tangle.retire_tip(tx_hash)
        for validator in (validators or []):
            tangle.add_validator(validator)
        return tangle


def take_snapshot(tangle: Tangle, *, now: float,
                  keep_recent_seconds: float = 60.0,
                  min_weight_to_prune: int = 5) -> TangleSnapshot:
    """Prune deeply confirmed history from *tangle*.

    A transaction is pruned when it is **both** old (arrived more than
    *keep_recent_seconds* before *now*) **and** buried (cumulative
    weight at least *min_weight_to_prune* — the DAG's six-block-style
    burial guarantee).  Everything else is retained; tips are therefore
    always retained, so the tangle keeps growing seamlessly after a
    restore.

    Pruned transactions referenced by retained ones become entry points.
    The genesis is always retained.
    """
    if keep_recent_seconds < 0:
        raise ValueError("keep_recent_seconds must be non-negative")
    if min_weight_to_prune < 1:
        raise ValueError("min_weight_to_prune must be >= 1")

    cutoff = now - keep_recent_seconds
    retained: List[Tuple[Transaction, float]] = []
    retained_hashes = {tangle.genesis.tx_hash}
    pruned: Dict[bytes, float] = {}

    for tx in tangle:
        if tx.is_genesis:
            continue
        arrival = tangle.arrival_time(tx.tx_hash)
        buried = tangle.weight(tx.tx_hash) >= min_weight_to_prune
        old = arrival < cutoff
        if buried and old and not tangle.is_tip(tx.tx_hash):
            pruned[tx.tx_hash] = tx.timestamp
        else:
            retained.append((tx, arrival))
            retained_hashes.add(tx.tx_hash)

    # Entry points: pruned (or previously pruned) parents that retained
    # transactions still reference.
    entry_points: Dict[bytes, float] = {}
    previous_entry_points = tangle.entry_points()
    for tx, _ in retained:
        for parent in (tx.branch, tx.trunk):
            if parent in retained_hashes:
                continue
            if parent in pruned:
                entry_points[parent] = pruned[parent]
            elif parent in previous_entry_points:
                entry_points[parent] = previous_entry_points[parent]

    # Retained transactions whose approvers were all pruned must not
    # resurface as tips after the restore: their burial already happened.
    retired_tips = tuple(
        tx_hash for tx_hash in sorted(retained_hashes)
        if not tangle.is_tip(tx_hash)
        and not any(child in retained_hashes
                    for child in tangle.approvers(tx_hash))
    )

    return TangleSnapshot(
        genesis=tangle.genesis,
        retained=tuple(retained),
        entry_points=tuple(sorted(entry_points.items())),
        retired_tips=retired_tips,
        pruned_count=len(pruned),
    )
