"""Deliberately naive reference tangle for differential testing.

Every query recomputes its answer from scratch with the most obvious
algorithm available — no caches, no incremental state, no batching.
That makes this implementation trivially auditable (each method is a
direct transcription of the definition) and therefore a trustworthy
oracle for the optimized :class:`repro.tangle.tangle.Tangle`: the
differential tests grow both structures through identical schedules and
assert the answers never diverge.

Keep this file boring.  Its only job is to be obviously correct.
"""

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.tangle.transaction import Transaction


class ReferenceTangle:
    """O(n) / O(n²) from-scratch implementation of the tangle queries.

    Accepts the same :class:`Transaction` objects as the real tangle
    (structural inputs are assumed valid — the reference checks
    structure only, never crypto).
    """

    def __init__(self, genesis: Transaction,
                 entry_points: Optional[Dict[bytes, float]] = None):
        self.genesis = genesis
        self._entry_points = dict(entry_points or {})
        self._transactions: Dict[bytes, Transaction] = {genesis.tx_hash: genesis}
        self._order: List[bytes] = [genesis.tx_hash]

    # -- growth ----------------------------------------------------------

    def attach(self, tx: Transaction) -> None:
        if tx.tx_hash in self._transactions:
            raise ValueError("duplicate")
        for parent in (tx.branch, tx.trunk):
            if parent not in self._transactions and parent not in self._entry_points:
                raise ValueError("unknown parent")
        self._transactions[tx.tx_hash] = tx
        self._order.append(tx.tx_hash)

    # -- from-scratch queries --------------------------------------------

    def parents(self, tx_hash: bytes) -> Tuple[bytes, ...]:
        tx = self._transactions[tx_hash]
        if tx.is_genesis:
            return ()
        return (tx.branch, tx.trunk)

    def approvers(self, tx_hash: bytes) -> Set[bytes]:
        return {
            h for h, tx in self._transactions.items()
            if not tx.is_genesis and tx_hash in (tx.branch, tx.trunk)
        }

    def tips(self) -> List[bytes]:
        """Definition: transactions with no approvers."""
        return sorted(h for h in self._transactions if not self.approvers(h))

    def weight(self, tx_hash: bytes) -> int:
        """Definition: 1 + number of (in)direct approvers (full BFS)."""
        seen = {tx_hash}
        queue = deque([tx_hash])
        while queue:
            for child in self.approvers(queue.popleft()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return len(seen)

    def height(self, tx_hash: bytes) -> int:
        """Definition: longest path from genesis, recomputed bottom-up
        (entry points sit at height 0)."""
        heights: Dict[bytes, int] = {}
        for h in self._order:  # arrival order is topological
            parents = self.parents(h)
            if not parents:
                heights[h] = 0
            else:
                heights[h] = 1 + max(heights.get(p, 0) for p in set(parents))
        return heights[tx_hash]
