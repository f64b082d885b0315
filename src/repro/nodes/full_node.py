"""Full nodes (gateways) — Section IV-A.2.

"Gateways play the role of full nodes, which are committed to
maintaining the tangle network ... they receive the requests from
various sensors, verify and broadcast the transactions in the tangle,
they only process transactions from legal sensors that are authorized
by the manager."

A :class:`FullNode` is the network shell around a
:class:`~repro.nodes.replica.Replica`: the handler table, gossip peers,
persistence, restore and snapshots.  It answers ``get_tips_request`` →
``get_tips_response`` itself (two tips to approve *and* the caller's
credit-assigned PoW difficulty, workflow step 4 of Fig. 6); the
transaction carriers go to its :class:`~repro.nodes.lane.IngressLane`
and the sync and parent-fetch kinds to its
:class:`~repro.nodes.sync.SyncService`, whose bound methods are the
handlers, so no frame pays a call into the shell first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.consensus import CreditBasedConsensus
from ..crypto.accel import get_backend
from ..devices.profiles import PC
from ..faults.backoff import DEFAULT_BACKOFF, BackoffPolicy
from ..network.gossip import GossipRelay, SolidificationBuffer
from ..network.network import NetworkNode
from ..network.transport import Message
from ..telemetry.lifecycle import coerce_lifecycle
from ..telemetry.registry import coerce_registry
from ..tangle.tip_selection import TipSelector, UniformRandomTipSelector
from ..tangle.transaction import Transaction, TransactionDecodeCache
from ..tangle.validation import VerificationCache
from .lane import IngressLane
from .replica import Replica
from .sync import SyncService

__all__ = ["FullNode", "FullNodeStats"]


@dataclass
class FullNodeStats:
    """Counters a gateway accumulates while serving the network."""

    tips_served: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0
    gossip_accepted: int = 0
    gossip_duplicates: int = 0
    gossip_parked: int = 0
    unauthorized_rejected: int = 0
    sync_requests_served: int = 0
    sync_transactions_sent: int = 0
    sync_transactions_received: int = 0
    parent_requests_sent: int = 0
    parent_requests_served: int = 0
    parent_fetch_recoveries: int = 0
    parent_fetch_exhausted: int = 0
    malformed_messages: int = 0
    rejection_reasons: Dict[str, int] = field(default_factory=dict)

    def count_rejection(self, error: Exception) -> None:
        reason = type(error).__name__
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1


class FullNode(NetworkNode):
    """A gateway: a :class:`~repro.nodes.replica.Replica` plus gossip,
    sync, parent recovery, journalling and the light-node RPC.

    Args:
        address: network address.
        genesis: the shared genesis transaction (carries the
            :class:`~repro.core.acl.GenesisConfig` trust anchor).
        consensus: the node's credit-based consensus instance (each
            replica tracks credit from its own observations).
        tip_selector: strategy used to answer ``get_tips_request``.
        rng: seeded randomness for tip selection.
        enforce_pow: verify nonces cryptographically; pure-simulation
            sweeps with sampled PoW disable this.
        retry_policy: the :class:`~repro.faults.backoff.BackoffPolicy`
            pacing parent re-requests (and, on the manager subclass,
            key-distribution retransmissions).  ``None`` uses
            :data:`~repro.faults.backoff.DEFAULT_BACKOFF`.
        verification_cache: optional shared
            :class:`~repro.tangle.validation.VerificationCache`, so each
            transaction is verified once per deployment, not per hop.
        decode_cache: optional shared :class:`~repro.tangle.transaction.
            TransactionDecodeCache` for gossip/sync/submit payload bytes.
        crypto_backend: accepted for callers that still name the
            Ed25519 lane; ``"accel"``, the only valid value, selects
            nothing (:mod:`repro.crypto.ed25519` checks every signature).
        telemetry: a shared :class:`~repro.telemetry.registry.
            MetricsRegistry`; ``None`` keeps the null registry.
        lifecycle: a shared :class:`~repro.telemetry.lifecycle.
            LifecycleTracker` recording per-node stages and hop spans of
            sampled transactions; ``None`` keeps the null tracker.
    """

    def __init__(self, address: str, genesis: Transaction, *,
                 consensus: Optional[CreditBasedConsensus] = None,
                 tip_selector: Optional[TipSelector] = None,
                 rng: Optional[random.Random] = None,
                 enforce_pow: bool = True,
                 retry_policy: Optional[BackoffPolicy] = None,
                 verification_cache: Optional[VerificationCache] = None,
                 decode_cache: Optional[TransactionDecodeCache] = None,
                 crypto_backend: str = "accel",
                 telemetry=None, lifecycle=None):
        super().__init__(address)
        self.telemetry = coerce_registry(telemetry)
        self.lifecycle = coerce_lifecycle(lifecycle)
        self.retry_policy = retry_policy if retry_policy is not None \
            else DEFAULT_BACKOFF
        self.profile = PC  # hardware class compute time is charged to
        self.rng = rng if rng is not None else random.Random()
        self.tip_selector = tip_selector if tip_selector is not None else UniformRandomTipSelector()
        self.verification_cache = verification_cache
        self.decode_cache = decode_cache
        self._enforce_pow = enforce_pow
        get_backend(crypto_backend)  # validates the name only
        self.relay = GossipRelay(telemetry=self.telemetry, node=address)
        self.stats = FullNodeStats()
        # Durable journalling (repro.storage): None keeps the node
        # fully in-memory, exactly as before the storage layer existed.
        self.persistence = None
        self.replica = self._new_replica(genesis, consensus)
        lane = self.lane = IngressLane(self, enforce_pow=enforce_pow)
        sync = self.sync = lane.sync = SyncService(self, lane)
        self._handlers = {
            "get_tips_request": self._handle_get_tips,
            "submit_transaction": lane.handle_submit,
            "gossip_transaction": lane.handle_gossip,
            "sync_request": sync.handle_sync_request,
            "sync_response": sync.handle_sync_response,
            "parent_request": sync.handle_parent_request,
            "parent_response": sync.handle_parent_response,
        }
        self.deliver_run = lane.deliver_run
        self.finish_runs = lane.finish_runs
        self.run_room = lane.run_room
        self.ingest_local = lane.ingest_local
        self.replay_attach = lane.replay_attach
        self.request_sync = sync.request_sync
        self.resync_with_peers = sync.resync_with_peers

    def _new_replica(self, origin, consensus) -> Replica:
        """This node's replica state from *origin* (genesis or an
        :class:`~repro.storage.checkpoint.EpochSnapshot`)."""
        return Replica(origin, consensus=consensus,
                       enforce_pow=self._enforce_pow,
                       verification_cache=self.verification_cache,
                       telemetry=self.telemetry)

    # The replica's parts, read through for callers that predate it.
    tangle = property(lambda self: self.replica.tangle)
    ledger = property(lambda self: self.replica.ledger)
    acl = property(lambda self: self.replica.acl)
    consensus = property(lambda self: self.replica.consensus)

    # -- peers -------------------------------------------------------------

    def add_peer(self, address: str) -> None:
        """Register another full node for gossip flooding."""
        self.relay.add_peer(address)

    # -- snapshots / bootstrap -----------------------------------------------

    def adopt_snapshot(self, snapshot: "EpochSnapshot") -> None:
        """Replace this node's replica with one resumed from *snapshot*
        (storage reclamation on a live node, or the second half of
        bootstrap); its credit horizon keeps re-ingested pre-snapshot
        history from counting twice."""
        self.replica = self._new_replica(snapshot, self.consensus)

    @classmethod
    def bootstrap_from_snapshot(cls, address: str, snapshot: "EpochSnapshot",
                                **kwargs) -> "FullNode":
        """A brand-new gateway resumed from a peer's :class:`~repro.
        storage.checkpoint.EpochSnapshot`; anti-entropy sync then fills
        whatever arrived after the snapshot was taken."""
        node = cls(address, snapshot.tangle.genesis, **kwargs)
        node.adopt_snapshot(snapshot)
        return node

    # -- durability (repro.storage) ------------------------------------------

    def attach_persistence(self, persistence) -> None:
        """Start journalling to *persistence* (a :class:`~repro.storage.
        persistence.NodePersistence`) bound to this node's genesis,
        backfilling what attached before, unless the store already
        holds history (a checkpoint or journal records)."""
        persistence.initialize(self.tangle.genesis)
        if persistence.epoch == 0 and persistence.transactions_logged == 0:
            for tx in self.tangle:
                if not tx.is_genesis:
                    persistence.record_transaction(
                        tx, self.tangle.arrival_time(tx.tx_hash))
        self.persistence = persistence

    def cold_restore(self) -> int:
        """Rebuild this node's entire state from its durable store.

        The crash/restart path: volatile state (replica, solidification
        buffer, parent fetches) is discarded, the replica
        resumes from the newest checkpoint (or genesis) and folds the
        journal tail, batch-verified a slice at a time.  Anti-entropy
        (:meth:`resync_with_peers`) covers what the journal missed.
        Returns the number of journal records replayed.
        """
        from ..storage.errors import StorageError

        if self.persistence is None:
            raise StorageError(
                f"cold restart of {self.address} has no durable store to "
                f"restore from — the node would silently regenerate "
                f"genesis state; configure BIoTConfig.storage_backend/"
                f"storage_dir")
        persistence, self.persistence = self.persistence, None
        restore = persistence.load()
        if restore.genesis.tx_hash != self.tangle.genesis.tx_hash:
            self.persistence = persistence
            raise StorageError(
                f"store genesis does not match {self.address}'s deployment")

        self.replica = self._new_replica(
            restore.genesis if restore.snapshot is None else restore.snapshot,
            self.consensus)
        self.lane.solidification = SolidificationBuffer()
        self.sync.fetches.pending.clear()
        replayed = self.lane.replay(restore.tail)
        self.persistence = persistence
        return replayed

    # -- message handling ----------------------------------------------------

    def handle_message(self, message: Message,
                       tx: Optional[Transaction] = None) -> None:
        """Hand *message* to its kind's handler; *tx* is the transaction
        a submit or gossip frame carries, when the lane parsed it
        already."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unknown kinds are dropped silently (open network)
        try:
            if not isinstance(message.body, dict):
                # The frame layer does not type the body; without this
                # check ``body.get`` raises AttributeError, which would
                # unwind the transport's read loop.
                raise TypeError("message body must be a dict")
            handler(message) if tx is None else handler(message, tx)
        except (ValueError, KeyError, TypeError) as exc:
            # A malformed message from the open network must never take
            # the gateway down — count it and move on.
            self.stats.malformed_messages += 1
            self.stats.rejection_reasons.setdefault("malformed", 0)
            self.stats.rejection_reasons["malformed"] += 1

    def _handle_get_tips(self, message: Message) -> None:
        body = message.body
        issuer_node_id = body["node_id"]
        if not self.acl.is_authorized(issuer_node_id):
            self.stats.unauthorized_rejected += 1
            self.send(message.sender, "get_tips_response", {
                "request_id": body.get("request_id"), "ok": False,
                "error": "unauthorized"})
            return
        branch, trunk = self.tip_selector.select(self.tangle, self.rng)
        difficulty = self.consensus.required_difficulty(issuer_node_id, self._now())
        self.stats.tips_served += 1
        self.send(message.sender, "get_tips_response", {
            "request_id": body.get("request_id"), "ok": True,
            "branch": branch, "trunk": trunk, "difficulty": difficulty})

    # -- convenience -----------------------------------------------------

    def health_digest(self) -> Dict[str, object]:
        """Deterministic per-node health snapshot for convergence
        reports: solidification pressure, recovery backlog, gossip and
        (deployment-shared) cache effectiveness.  Plain state only, no
        telemetry, so it is byte-identical with telemetry on or off."""
        digest: Dict[str, object] = {
            "tangle_size": len(self.tangle),
            "tips": self.tangle.tip_count,
            "solidification_depth": len(self.lane.solidification),
            "solidification_peak": self.lane.solidification.depth_peak,
            "solidification_evictions": self.lane.solidification.evictions,
            "pending_parent_requests": len(self.sync.fetches.pending),
            "parent_fetch_recoveries": self.stats.parent_fetch_recoveries,
            "parent_fetch_exhausted": self.stats.parent_fetch_exhausted,
            "gossip_relays": self.relay.relays,
            "gossip_duplicates": self.stats.gossip_duplicates,
            "malformed_messages": self.stats.malformed_messages,
        }
        for key, cache in (("verify_cache", self.verification_cache),
                           ("decode_cache", self.decode_cache)):
            if cache is not None:
                total = cache.hits + cache.misses
                digest[key] = {
                    "hits": cache.hits, "misses": cache.misses,
                    "hit_rate": cache.hits / total if total else 0.0,
                    "evictions": cache.evictions}
        return digest

    @property
    def tangle_size(self) -> int:
        return len(self.tangle)

    def confirmed_count(self, threshold: int) -> int:
        """Transactions whose cumulative weight reached *threshold*."""
        return sum(1 for tx in self.tangle
                   if self.tangle.is_confirmed(tx.tx_hash, threshold))
