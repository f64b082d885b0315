"""Tests for the batch ingestion lane (multi-transaction messages,
batch preverify, journal replay) and the PreverifiedSet.

The batch lane must be *behaviourally invisible*: a burst ingested via
one ``sync_response`` — which enters the same per-read pass as any
frame — attaches exactly the transactions that one-at-a-time gossip
would, rejects exactly the same corrupt items, and floods each attach
as its own ``gossip_transaction``.
"""

import random

import pytest

from repro.crypto import ed25519
from repro.crypto.keys import KeyPair
from repro.network.network import Network, NetworkNode
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.nodes import lane
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.storage.errors import StorageCorruptionError
from repro.storage.persistence import NodePersistence
from repro.storage.store import MemoryStore
from repro.tangle.errors import InvalidSignatureError
from repro.tangle.transaction import Transaction
from repro.tangle.validation import PreverifiedSet
from repro.telemetry.registry import MetricsRegistry

from .runs import BACKENDS, batch_counters, forge_signature

MANAGER = KeyPair.generate(seed=b"batch-manager")
ISSUER = KeyPair.generate(seed=b"batch-issuer")

GENESIS = ManagerNode.create_genesis(MANAGER)


def chained_txs(count, *, keys=ISSUER, start=1.0):
    """*count* pre-signed difficulty-1 transactions in a parent chain."""
    txs = []
    prev, prev2 = GENESIS.tx_hash, GENESIS.tx_hash
    for i in range(count):
        tx = Transaction.create(
            keys, kind="data", payload=b"batch-%d" % i,
            timestamp=start + i, branch=prev2, trunk=prev, difficulty=1,
        )
        prev2, prev = prev, tx.tx_hash
        txs.append(tx)
    return txs


def make_mesh(count=2, **node_kwargs):
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(7))
    nodes = []
    for i in range(count):
        node = FullNode(f"bn-{i}", GENESIS, rng=random.Random(50 + i),
                        **node_kwargs)
        network.attach(node)
        nodes.append(node)
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.add_peer(b.address)
    return scheduler, network, nodes


def deliver_sync_response(node, encoded):
    """Hand *node* one ``sync_response`` listing *encoded*, from a peer
    it does not gossip with, as a transport delivers a read of it."""
    node.deliver_run([Message(sender="sync-peer", recipient=node.address,
                              kind="sync_response", sent_at=0.0,
                              body={"transactions": encoded})])


class WireTap(NetworkNode):
    """A peer that records every message kind it is sent."""

    def __init__(self, address="tap"):
        super().__init__(address)
        self.messages = []

    def handle_message(self, message):
        self.messages.append(message)


class TestPreverifiedSet:
    def test_consume_pops(self):
        parked = PreverifiedSet()
        parked.add(b"a")
        assert b"a" in parked
        assert parked.consume(b"a")
        assert b"a" not in parked
        assert not parked.consume(b"a")

    def test_eviction_is_fifo_and_bounded(self):
        parked = PreverifiedSet(max_size=3)
        for digest in (b"a", b"b", b"c", b"d"):
            parked.add(digest)
        assert len(parked) == 3
        assert b"a" not in parked  # oldest evicted
        assert all(d in parked for d in (b"b", b"c", b"d"))

    def test_duplicate_add_is_idempotent(self):
        parked = PreverifiedSet(max_size=2)
        parked.add(b"a")
        parked.add(b"a")
        parked.add(b"b")
        assert len(parked) == 2
        assert b"a" in parked and b"b" in parked


class TestGossipBatchMessage:
    def test_batch_attaches_everywhere(self):
        scheduler, network, nodes = make_mesh(3)
        txs = chained_txs(5)
        encoded = [tx.to_bytes() for tx in txs]
        network.send("bn-0", "bn-0", "sync_response",
                     {"transactions": encoded})
        scheduler.run()
        for node in nodes:
            assert len(node.tangle) == len(txs) + 1
            for tx in txs:
                assert tx.tx_hash in node.tangle

    @pytest.mark.parametrize("corrupt", [b"\x00garbage", 5, "text", [1, 2]],
                             ids=["truncated", "int", "str", "list"])
    def test_corrupt_entry_does_not_poison_batch(self, corrupt):
        scheduler, network, nodes = make_mesh(2)
        txs = chained_txs(4)
        encoded = [tx.to_bytes() for tx in txs]
        encoded.insert(2, corrupt)
        network.send("bn-0", "bn-0", "sync_response",
                     {"transactions": encoded})
        scheduler.run()
        for node in nodes:
            assert len(node.tangle) == len(txs) + 1
            assert node.stats.malformed_messages == 0

    def test_bad_signature_rejected_batch_equals_sequential(self):
        txs = chained_txs(4)
        bad = txs[1]
        forged = Transaction(
            kind=bad.kind, payload=bad.payload, timestamp=bad.timestamp,
            branch=bad.branch, trunk=bad.trunk, difficulty=bad.difficulty,
            nonce=bad.nonce, issuer=bad.issuer, signature=bytes(64),
        )
        encoded = [tx.to_bytes() for tx in txs]
        encoded[1] = forged.to_bytes()

        # Sequential baseline: one gossip_transaction at a time.
        scheduler, network, (seq_node,) = make_mesh(1)
        for data in encoded:
            network.send("bn-0", "bn-0", "gossip_transaction",
                         {"transaction": data})
            scheduler.run()

        scheduler, network, (batch_node,) = make_mesh(1)
        network.send("bn-0", "bn-0", "sync_response",
                     {"transactions": encoded})
        scheduler.run()

        assert ({tx.tx_hash for tx in batch_node.tangle}
                == {tx.tx_hash for tx in seq_node.tangle})
        assert forged.tx_hash not in batch_node.tangle
        # The forged tx's honest original never arrived, so its chain
        # descendants are parked, not attached — same in both worlds.
        assert (batch_node.stats.gossip_parked
                == seq_node.stats.gossip_parked)

    def test_preverified_set_is_consumed_by_attach(self):
        scheduler, network, (node,) = make_mesh(1)
        txs = chained_txs(3)
        network.send("bn-0", "bn-0", "sync_response",
                     {"transactions": [tx.to_bytes() for tx in txs]})
        scheduler.run()
        assert len(node.tangle) == len(txs) + 1
        assert len(node.replica.preverified) == 0  # consumed, not leaked

    def test_product_matches_oracle(self, monkeypatch):
        txs = chained_txs(6)
        encoded = [tx.to_bytes() for tx in txs]
        tangles = {}
        for name, backend in BACKENDS.items():
            with monkeypatch.context() as patch:
                patch.setattr(ed25519, "verify", backend.verify)
                patch.setattr(ed25519, "verify_batch", backend.verify_batch)
                scheduler, network, (node,) = make_mesh(1)
                network.send("bn-0", "bn-0", "sync_response",
                             {"transactions": encoded})
                scheduler.run()
            tangles[name] = sorted(tx.full_digest for tx in node.tangle)
        assert tangles["oracle"] == tangles["product"]
        assert len(tangles["product"]) == len(txs) + 1

    def test_sync_response_uses_batch_lane(self):
        # Two nodes that are NOT gossip peers: the burst only reaches
        # the target through explicit sync reconciliation.
        scheduler = EventScheduler()
        network = Network(scheduler, rng=random.Random(7))
        source = FullNode("bn-0", GENESIS, rng=random.Random(50))
        target = FullNode("bn-1", GENESIS, rng=random.Random(51),
                          telemetry=MetricsRegistry())
        network.attach(source)
        network.attach(target)
        for tx in chained_txs(4):
            source.lane.ingest(tx, source=None, admit=False)
        target.request_sync(source.address)
        scheduler.run()
        assert len(target.tangle) == len(source.tangle)
        assert target.stats.sync_transactions_received == 4
        snapshot = target.telemetry.snapshot()
        assert snapshot["repro_crypto_batch_rounds_total"]["series"]


class TestBatchTelemetry:
    def test_counters_reflect_verdicts(self):
        telemetry = MetricsRegistry()
        scheduler, network, (node,) = make_mesh(1, telemetry=telemetry)
        txs = chained_txs(3)
        bad = txs[2]
        forged = Transaction(
            kind=bad.kind, payload=bad.payload, timestamp=bad.timestamp,
            branch=bad.branch, trunk=bad.trunk, difficulty=bad.difficulty,
            nonce=bad.nonce, issuer=bad.issuer, signature=bytes(64),
        )
        encoded = [txs[0].to_bytes(), txs[1].to_bytes(), forged.to_bytes()]
        deliver_sync_response(node, encoded)
        snapshot = telemetry.snapshot()
        assert snapshot["repro_crypto_batch_rounds_total"]["series"]["_"] == 1
        assert snapshot["repro_crypto_batch_verified_total"]["series"]["_"] == 2
        assert snapshot["repro_crypto_batch_fallback_total"]["series"]["_"] == 1
        assert snapshot["repro_crypto_batch_size"]["count"] == 1
        assert snapshot["repro_crypto_batch_size"]["sum"] == 3

    def test_single_item_skips_batch_round(self):
        telemetry = MetricsRegistry()
        scheduler, network, (node,) = make_mesh(1, telemetry=telemetry)
        (tx,) = chained_txs(1)
        deliver_sync_response(node, [tx.to_bytes()])
        assert tx.tx_hash in node.tangle
        snapshot = telemetry.snapshot()
        assert not snapshot["repro_crypto_batch_rounds_total"]["series"]


class TestFloodBatching:
    def _tap_node(self, **node_kwargs):
        scheduler = EventScheduler()
        network = Network(scheduler, rng=random.Random(7))
        node = FullNode("bn-0", GENESIS, rng=random.Random(50),
                        **node_kwargs)
        tap = WireTap()
        network.attach(node)
        network.attach(tap)
        node.add_peer(tap.address)
        return scheduler, network, node, tap

    def test_default_size_sends_individual_gossip(self):
        scheduler, network, node, tap = self._tap_node()
        txs = chained_txs(4)
        deliver_sync_response(node, [tx.to_bytes() for tx in txs])
        scheduler.run()
        kinds = [m.kind for m in tap.messages]
        assert kinds == ["gossip_transaction"] * len(txs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FullNode("bn-x", GENESIS, crypto_backend="turbo")


class TestJournalReplayLane:
    """``cold_restore`` batch-verifies the journal tail in slices ahead
    of the unchanged per-record replay."""

    def _journalled_node(self, txs):
        telemetry = MetricsRegistry()
        node = FullNode("bn-0", GENESIS, rng=random.Random(50),
                        telemetry=telemetry)
        node.attach_persistence(NodePersistence(MemoryStore()))
        for tx in txs:
            assert node.lane.ingest(tx, source=None, admit=False)[0]
        return node, telemetry

    def test_tail_is_verified_in_one_round(self):
        txs = chained_txs(5)
        node, telemetry = self._journalled_node(txs)
        assert node.cold_restore() == len(txs)
        assert batch_counters(telemetry) == (1, 5, 0)
        assert [tx.tx_hash for tx in node.tangle] \
            == [GENESIS.tx_hash] + [tx.tx_hash for tx in txs]
        assert len(node.replica.preverified) == 0  # every verdict consumed

    def test_slices_bound_the_batch(self, monkeypatch):
        monkeypatch.setattr(lane, "_REPLAY_PREVERIFY_SLICE", 2)
        txs = chained_txs(5)
        node, telemetry = self._journalled_node(txs)
        assert node.cold_restore() == len(txs)
        # Slices of 2, 2 and 1: the lone last record has nothing to be
        # batched with and is verified by the validator.
        assert batch_counters(telemetry) == (2, 4, 0)
        assert len(node.tangle) == len(txs) + 1

    def test_forged_record_is_still_refused(self):
        txs = chained_txs(4)
        node, telemetry = self._journalled_node(txs[:3])
        node.persistence.record_transaction(
            forge_signature(txs[3], txs[0]), 9.0)
        with pytest.raises(InvalidSignatureError):
            node.cold_restore()
        assert batch_counters(telemetry) == (1, 3, 1)

    def test_missing_parent_is_still_corruption(self):
        txs = chained_txs(3)
        node, _ = self._journalled_node(txs[:1])
        node.persistence.record_transaction(txs[2], 9.0)  # txs[1] absent
        with pytest.raises(StorageCorruptionError, match="missing parent"):
            node.cold_restore()
