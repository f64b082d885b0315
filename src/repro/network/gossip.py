"""Flooding gossip with duplicate suppression and solidification.

Full nodes "keep the network secure and stable by broadcasting
transactions and keeping copies of the blockchain" (Section IV-A).  Two
mechanics make that work over a lossy asynchronous network:

* :class:`GossipRelay` — classic flood: relay each item to all peers
  the first time it attaches, never again (the owning node's tangle is
  the duplicate filter, so it bounds traffic).
* :class:`SolidificationBuffer` — out-of-order arrival handling: a
  transaction whose parents have not arrived yet is parked and retried
  when a parent attaches (IOTA calls this *solidification*).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Dict, Generic, Iterable, List, Set, Tuple, TypeVar

from ..telemetry.registry import coerce_registry

__all__ = ["GossipRelay", "SolidificationBuffer"]

ItemT = TypeVar("ItemT")


class GossipRelay:
    """Flooding over an explicit peer list.

    Args:
        peers: initial peer addresses.
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` for
            ``repro_network_gossip_relays_total``.
        node: label value identifying the owning node in the metrics.
    """

    def __init__(self, peers: Iterable[str] = (), *, telemetry=None,
                 node: str = ""):
        self.peers: List[str] = []
        self._peer_set: Set[str] = set()
        for peer in peers:
            self.add_peer(peer)
        self._seen: Set[bytes] = set()
        self.relays = 0
        self._node_label = node
        self._m_relays = coerce_registry(telemetry).counter(
            "repro_network_gossip_relays_total",
            "Gossip flood fan-outs initiated, by node")

    def add_peer(self, address: str) -> None:
        # Set-backed membership: a 200-node mesh re-registering peers
        # must not pay an O(peers) list scan per registration.
        if address not in self._peer_set:
            self._peer_set.add(address)
            self.peers.append(address)

    def has_peer(self, address: str) -> bool:
        """O(1) peer-membership test (``peers`` stays a list for
        deterministic round-robin indexing)."""
        return address in self._peer_set

    # A bare id set no node consults (a full node's duplicate check is
    # tangle membership); benchmarks/e2e's layer probe still calls it.
    def mark_seen(self, item_id: bytes) -> bool:
        """Record *item_id*; returns True when it is new."""
        if item_id in self._seen:
            return False
        self._seen.add(item_id)
        return True

    def has_seen(self, item_id: bytes) -> bool:
        return item_id in self._seen

    def relay_targets(self, item_id: bytes, *, exclude: str = None) -> List[str]:
        """Peers to forward a newly seen item to (exclude its source)."""
        self.relays += 1
        self._m_relays.inc(node=self._node_label)
        return [peer for peer in self.peers if peer != exclude]


class SolidificationBuffer(Generic[ItemT]):
    """Parks items whose dependencies are missing; releases them as
    dependencies arrive.

    Dependencies are 32-byte ids (parent transaction hashes).  The
    buffer is bounded; overflow evicts the oldest parked item, which
    models a constrained gateway shedding unsolidifiable junk.
    """

    def __init__(self, *, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # parked item id -> (item, missing dependency ids), insertion
        # ordered: the OrderedDict *is* the eviction queue, so eviction
        # (popitem) and release (del) are O(1) — the former list-based
        # order index paid O(n) per pop(0)/remove().
        self._parked: "OrderedDict[bytes, Tuple[ItemT, Set[bytes]]]" = \
            OrderedDict()
        # dependency id -> parked item ids waiting on it
        self._waiters: Dict[bytes, Set[bytes]] = defaultdict(set)
        self.evictions = 0
        # High-water mark of parked items — health-digest material: a
        # deep buffer means the node spent the run waiting on parents.
        self.depth_peak = 0

    def __len__(self) -> int:
        return len(self._parked)

    def __contains__(self, item_id: bytes) -> bool:
        return item_id in self._parked

    def park(self, item_id: bytes, item: ItemT, missing: Iterable[bytes]) -> None:
        """Hold *item* until every id in *missing* has been satisfied."""
        missing_set = set(missing)
        if not missing_set:
            raise ValueError("park requires at least one missing dependency")
        if item_id in self._parked:
            return
        if len(self._parked) >= self.capacity:
            self._evict_oldest()
        self._parked[item_id] = (item, missing_set)
        if len(self._parked) > self.depth_peak:
            self.depth_peak = len(self._parked)
        for dependency in missing_set:
            self._waiters[dependency].add(item_id)

    def missing_dependencies(self) -> List[bytes]:
        """Dependency ids still being waited on, sorted — what a
        recovery sweep should go and fetch from peers."""
        return sorted(
            dependency for dependency, waiters in self._waiters.items()
            if waiters
        )

    def waiter_count(self, dependency_id: bytes) -> int:
        """How many parked items are blocked on *dependency_id*."""
        return len(self._waiters.get(dependency_id, ()))

    def satisfy(self, dependency_id: bytes) -> List[Tuple[bytes, ItemT]]:
        """Mark *dependency_id* as available; returns items that became
        fully solid (and removes them from the buffer)."""
        released: List[Tuple[bytes, ItemT]] = []
        for waiting_id in sorted(self._waiters.pop(dependency_id, ())):
            entry = self._parked.get(waiting_id)
            if entry is None:
                continue
            item, missing = entry
            missing.discard(dependency_id)
            if not missing:
                del self._parked[waiting_id]
                released.append((waiting_id, item))
        return released

    def _evict_oldest(self) -> None:
        oldest_id, (_, missing) = self._parked.popitem(last=False)
        for dependency in missing:
            self._waiters[dependency].discard(oldest_id)
        self.evictions += 1
