"""The sync service of a full node: anti-entropy and parent recovery.

Gossip is fire-and-forget, so a gateway asks its peers for what it
missed, and answers their asks; its
:class:`~repro.nodes.lane.IngressLane` unpacks what comes back:

* ``sync_request`` → ``sync_response`` — anti-entropy: a (re)joining
  full node announces the transactions it knows; the peer returns what
  is missing, in arrival order, so gossip gaps (crashes, partitions)
  heal without replaying the whole history;
* ``parent_request`` → ``parent_response`` — a transaction parked for a
  missing parent asks a peer for that hash, with backoff; the peer
  returns it with its nearest ancestors, and a deeper gap asks again.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults.backoff import RetryLoop
from ..network.transport import Message
from ..tangle.transaction import Transaction

__all__ = ["PARENT_RESPONSE_BUDGET", "SyncService"]

PARENT_RESPONSE_BUDGET = 32
"""Max transactions in one parent response: the asked-for tx plus its
nearest ancestors (deeper gaps re-request recursively)."""


class SyncService:
    """Anti-entropy sync and the parent-fetch loop of one full node:
    *node* is the shell whose replica it reads and that it sends
    through, *lane* the ingress lane that folds what arrives."""

    def __init__(self, node, lane):
        self.node = node
        self.lane = lane
        self.stats = node.stats
        self.relay = node.relay
        # Keyed by missing parent, with its orphan's gossip source.
        self.fetches = RetryLoop(node, "parent_fetch", ask_first=False,
                                 send=self._request, gave_up=self._gave_up)

    # -- anti-entropy sync -------------------------------------------------

    def request_sync(self, peer: str) -> bool:
        """Ask *peer* for everything we are missing: gossip is
        fire-and-forget, so what was flooded while this gateway was down
        or partitioned is gone unless explicitly reconciled."""
        known = [tx.tx_hash for tx in self.node.replica.tangle]
        return self.node.send(peer, "sync_request", {"known": known},
                              size_bytes=32 * len(known))

    def handle_sync_request(self, message: Message) -> None:
        known = set(message.body.get("known", ()))
        # The tangle iterates in arrival order: parents first.
        missing = [tx.to_bytes() for tx in self.node.replica.tangle
                   if tx.tx_hash not in known and not tx.is_genesis]
        self.stats.sync_requests_served += 1
        self.stats.sync_transactions_sent += len(missing)
        self.node.send(message.sender, "sync_response",
                       {"transactions": missing},
                       size_bytes=sum(len(m) for m in missing))

    def handle_sync_response(self, message: Message,
                             tx: Optional[Transaction] = None) -> None:
        """One transaction a ``sync_response`` listed, counted if it
        attaches; a ``parent_response``'s go to ``handle_gossip``."""
        if self.lane.handle_gossip(message, tx):
            self.stats.sync_transactions_received += 1

    def resync_with_peers(self) -> int:
        """Anti-entropy sweep against every gossip peer (post-heal or
        post-restart recovery).  Returns the number of peers reached."""
        return sum(1 for peer in self.relay.peers if self.request_sync(peer))

    # -- targeted parent recovery ------------------------------------------

    def fetch_parents(self, missing, source: Optional[str]) -> None:
        """Re-request each missing parent until it attaches or attempts
        run out: a dropped gossip parent strands its subtree in the
        solidification buffer."""
        if self.node.network is None or not self.relay.peers:
            return
        for parent in missing:  # absent from the replica; branch may be trunk
            if parent not in self.fetches.pending:
                self.fetches.start(parent, source, "parent_fetch")

    def _request(self, parent: bytes, source: Optional[str],
                 attempt: int) -> None:
        if parent in self.node.replica.tangle:  # came in a snapshot, unsettled
            del self.fetches.pending[parent]
            return
        self.stats.parent_requests_sent += 1
        self.node.send(self._peer_for(source, attempt), "parent_request",
                       {"hashes": [parent]}, size_bytes=32)

    def _gave_up(self, parent: bytes, source: Optional[str]) -> None:
        self.stats.parent_fetch_exhausted += 1

    def _peer_for(self, source: Optional[str], attempt: int) -> str:
        """The peer to ask: the gossip source first, then round-robin
        over the peer list (never empty here: peers are only added) so
        a dead source does not starve recovery."""
        if source is not None and attempt == 1 and self.relay.has_peer(source):
            return source
        peers = self.relay.peers
        return peers[(attempt - 1) % len(peers)]

    def settle(self, tx_hash: bytes) -> None:
        """A transaction attached: stop any re-request loop for it."""
        if self.fetches.stop(tx_hash):
            self.stats.parent_fetch_recoveries += 1

    def handle_parent_request(self, message: Message) -> None:
        # Honest requesters ask for one hash (_request); the budget covers
        # the whole response so that repeating or piling up hashes buys
        # neither more bytes nor more ancestor walks.
        transactions: List[bytes] = []
        tangle = self.node.replica.tangle
        for tx_hash in dict.fromkeys(message.body.get("hashes", ())):
            room = PARENT_RESPONSE_BUDGET - len(transactions)
            if room <= 0:
                break
            if tx_hash in tangle:
                transactions.extend(
                    self._parent_response_chain(tx_hash, room))
        self.stats.parent_requests_served += 1
        self.node.send(message.sender, "parent_response",
                       {"transactions": transactions},
                       size_bytes=sum(len(t) for t in transactions))

    def _parent_response_chain(self, tx_hash: bytes, room: int) -> list:
        """The requested transaction plus its nearest non-genesis
        ancestors (parents-first order), *room* transactions at most: a
        breadth-first walk that stops at the level filling *room* and
        takes its latest arrivals, so a request costs at most *room*
        parent lookups however large the tangle.  A deeper gap parks
        again and re-requests recursively."""
        tangle = self.node.replica.tangle
        seen = {tx_hash, tangle.genesis.tx_hash}
        nearest: List[bytes] = []
        level = [tx_hash]
        while level and len(nearest) < room - 1:
            found = []
            for current in level:
                for parent in tangle.parents(current):
                    if parent not in seen and parent in tangle:
                        seen.add(parent)
                        found.append(parent)
            found.sort(key=tangle.arrival_time, reverse=True)
            nearest += found[:room - 1 - len(nearest)]
            level = found
        chain = sorted(nearest, key=tangle.arrival_time) + [tx_hash]
        return [tangle.get(h).to_bytes() for h in chain]
