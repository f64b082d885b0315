"""Tests for node snapshots and gateway bootstrap."""

import json
import random

import pytest

from repro.core.acl import AuthorizationList
from repro.core.biot import BIoTConfig, BIoTSystem
from repro.core.consensus import CreditBasedConsensus, InverseDifficultyPolicy
from repro.crypto.keys import KeyPair
from repro.network.network import Network
from repro.network.proc import build_node, node_consensus
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.storage.checkpoint import EpochSnapshot
from repro.storage.errors import StorageCorruptionError
from repro.storage.persistence import NodePersistence
from repro.storage.store import GENESIS_PREV_HASH, MemoryStore
from repro.tangle.transaction import Transaction, TransactionKind
from repro.telemetry.registry import MetricsRegistry

from ..storage.harness import golden_keys


def matching_consensus():
    """A consensus configured like the system's gateways (D0=6): the
    bootstrap contract is that the newcomer runs the same policy as its
    peers — difficulty agreement is a *configuration* property."""
    return CreditBasedConsensus(
        policy=InverseDifficultyPolicy(initial_difficulty=6))


@pytest.fixture(scope="module")
def aged_system():
    system = BIoTSystem.build(BIoTConfig(
        device_count=4, gateway_count=2, seed=111,
        initial_difficulty=6, report_interval=1.5,
    ))
    system.initialize()
    system.start_devices()
    system.run_for(90.0)
    return system


def snapshot_of(system, *, keep=20.0, prune_weight=5):
    return system.gateways[0].replica.snapshot(
        system.scheduler.clock.now(),
        keep_recent_seconds=keep,
        min_weight_to_prune=prune_weight,
    )


class TestExportSnapshot:
    def test_prunes_most_history(self, aged_system):
        snapshot = snapshot_of(aged_system)
        assert snapshot.tangle.pruned_count > snapshot.tangle.retained_count

    def test_carries_derived_state(self, aged_system):
        snapshot = snapshot_of(aged_system)
        assert snapshot.acl_state["devices"]
        assert snapshot.ledger_state["balances"]
        assert snapshot.credit_state["nodes"]
        assert snapshot.created_at == aged_system.scheduler.clock.now()

    def test_bootstrap_snapshot_is_anchored_epoch_zero(self, aged_system):
        snapshot = snapshot_of(aged_system)
        assert snapshot.epoch == 0
        assert snapshot.prev_hash == GENESIS_PREV_HASH

    def test_json_roundtrip(self, aged_system):
        snapshot = snapshot_of(aged_system)
        shipped = json.loads(json.dumps(snapshot.to_data()))
        restored = EpochSnapshot.from_data(shipped)
        assert restored == snapshot
        assert restored.snapshot_hash == snapshot.snapshot_hash

    def test_shipped_hash_refuses_tampering(self, aged_system):
        shipped = snapshot_of(aged_system).to_data()
        shipped["state"]["ledger_state"] = {"balances": {}, "spent": {}}
        with pytest.raises(StorageCorruptionError):
            EpochSnapshot.from_data(shipped)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(StorageCorruptionError):
            EpochSnapshot.from_data(json.loads("{}"))


class TestBootstrap:
    def test_bootstrap_preserves_application_state(self, aged_system):
        snapshot = snapshot_of(aged_system)
        source = aged_system.gateways[0]
        newcomer = FullNode.bootstrap_from_snapshot(
            "nn-state", snapshot,
            consensus=matching_consensus(),
            rng=random.Random(1),
        )
        # ACL: same authorised devices.
        assert (newcomer.acl.authorized_devices()
                == source.acl.authorized_devices())
        # Ledger: same balances.
        for keys in aged_system.device_keys.values():
            assert (newcomer.ledger.balance(keys.node_id)
                    == source.ledger.balance(keys.node_id))
        # Credit: the newcomer assigns every device the same difficulty
        # its source would (the property gateways must agree on).
        now = snapshot.created_at
        for keys in aged_system.device_keys.values():
            assert (newcomer.consensus.required_difficulty(keys.node_id, now)
                    == source.consensus.required_difficulty(keys.node_id, now))

    def test_bootstrap_then_sync_converges(self, aged_system):
        snapshot = snapshot_of(aged_system)
        source = aged_system.gateways[0]
        newcomer = FullNode.bootstrap_from_snapshot(
            "nn-sync", snapshot,
            consensus=matching_consensus(),
            rng=random.Random(2),
        )
        aged_system.network.attach(newcomer)
        newcomer.add_peer(source.address)
        source.add_peer(newcomer.address)
        # Two sync rounds: the first closes the historical gap, the
        # second sweeps up transactions that arrived during round one
        # (devices keep submitting throughout).
        newcomer.request_sync(source.address)
        aged_system.run_for(2.0)
        newcomer.request_sync(source.address)
        aged_system.run_for(2.0)
        source_hashes = {tx.tx_hash for tx in source.tangle}
        newcomer_hashes = {tx.tx_hash for tx in newcomer.tangle}
        assert len(source_hashes - newcomer_hashes) <= 2  # in-flight slack
        assert newcomer.stats.sync_transactions_received > 0
        assert len(newcomer.lane.solidification) == 0

    def test_bootstrapped_gateway_serves_devices(self, aged_system):
        snapshot = snapshot_of(aged_system)
        newcomer = FullNode.bootstrap_from_snapshot(
            "nn-serve", snapshot,
            consensus=matching_consensus(),
            rng=random.Random(3),
        )
        aged_system.network.attach(newcomer)
        for peer in [aged_system.manager] + aged_system.gateways:
            newcomer.add_peer(peer.address)
            peer.add_peer(newcomer.address)
        device = aged_system.devices[1]
        device.gateway = "nn-serve"
        before = device.stats.submissions_accepted
        aged_system.run_for(20.0)
        assert device.stats.submissions_accepted > before

    def test_credit_horizon_blocks_recounting(self, aged_system):
        """Re-ingesting pre-snapshot history must not re-record
        behaviour into the credit registry."""
        snapshot = snapshot_of(aged_system)
        source = aged_system.gateways[0]
        newcomer = FullNode.bootstrap_from_snapshot(
            "nn-horizon", snapshot,
            consensus=matching_consensus(),
            rng=random.Random(4),
        )
        device_id = list(aged_system.device_keys.values())[0].node_id
        count_before = newcomer.consensus.registry.transaction_count(device_id)
        # Feed it the full pre-snapshot history directly.
        for tx in source.tangle:
            if tx.is_genesis or tx.tx_hash in newcomer.tangle:
                continue
            newcomer.lane.ingest(tx, source=None, admit=False)
        count_after = newcomer.consensus.registry.transaction_count(device_id)
        # Only post-horizon transactions may add records.
        new_records = count_after - count_before
        post_horizon = sum(
            1 for tx in source.tangle
            if tx.issuer.node_id == device_id
            and tx.timestamp > snapshot.created_at
        )
        assert new_records <= post_horizon + 1


class TestRestoredTangleKeepsTelemetry:
    """Adopting a snapshot — for bootstrap or inside a cold restore from
    a checkpointed store — must not cut the node's tangle off the node's
    metrics registry."""

    def _node(self):
        manager, device = golden_keys()
        genesis = ManagerNode.create_genesis(manager,
                                             network_name="adopt-metrics")
        registry = MetricsRegistry()
        node = build_node("n0", genesis, rng_seed=0, telemetry=registry)
        txs = [Transaction.create(
            manager, kind=TransactionKind.ACL,
            payload=AuthorizationList.make_update(
                [device.public]).to_bytes(),
            timestamp=timestamp, branch=genesis.tx_hash,
            trunk=genesis.tx_hash, difficulty=1)
            for timestamp in (1.0, 2.0)]
        return node, registry.get("repro_tangle_attach_total"), txs

    def _assert_next_attach_counted(self, node, attaches, tx):
        assert node.tangle.telemetry is node.telemetry
        before = attaches.total
        assert node.ingest_local(tx)
        assert attaches.total == before + 1

    def test_adopt_snapshot(self):
        node, attaches, (first, second) = self._node()
        assert node.ingest_local(first)
        node.adopt_snapshot(node.replica.snapshot(1.5))
        self._assert_next_attach_counted(node, attaches, second)

    def test_cold_restore_from_checkpoint(self):
        node, attaches, (first, second) = self._node()
        persistence = NodePersistence(MemoryStore())
        node.attach_persistence(persistence)
        assert node.ingest_local(first)
        persistence.checkpoint(node, now=1.5)
        node.cold_restore()
        self._assert_next_attach_counted(node, attaches, second)


class TestHorizonNeverSkipsAdmission:
    """The credit horizon gates only credit *observation* of history an
    adopted snapshot already counted.  A submission is judged by ACL and
    credit however early the issuer stamps it — the issuer picks the
    timestamp, so a horizon that skipped admission would let a
    never-authorised key onto every resumed replica."""

    SNAPSHOT_AT = 5.0

    def _deployment(self):
        manager, device = golden_keys()
        genesis = ManagerNode.create_genesis(manager,
                                             network_name="horizon-admit")
        grant = Transaction.create(
            manager, kind=TransactionKind.ACL,
            payload=AuthorizationList.make_update(
                [device.public]).to_bytes(),
            timestamp=1.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=1)
        return genesis, grant

    def _stranger_tx(self, genesis, *, timestamp):
        stranger = KeyPair.generate(seed=b"horizon:stranger")
        return Transaction.create(
            stranger, kind=TransactionKind.DATA, payload=b"reading",
            timestamp=timestamp, branch=genesis.tx_hash,
            trunk=genesis.tx_hash, difficulty=1)

    def _submit(self, node, tx):
        """Deliver *tx* as a client's ``submit_transaction``."""
        if node.network is None:
            Network(EventScheduler()).attach(node)
        size = len(node.tangle)
        node.handle_message(Message(
            sender="client", recipient=node.address,
            kind="submit_transaction", sent_at=0.0,
            body={"request_id": 1, "transaction": tx.to_bytes()}))
        assert node.stats.submissions_rejected == 1
        assert node.stats.rejection_reasons == {"UnauthorizedIssuerError": 1}
        assert tx.tx_hash not in node.tangle
        assert len(node.tangle) == size

    @pytest.mark.parametrize("stamped", [1.0, SNAPSHOT_AT, 9.0])
    def test_bootstrapped_node_refuses_stranger(self, stamped):
        genesis, grant = self._deployment()
        source = build_node("source", genesis, rng_seed=0)
        assert source.ingest_local(grant)
        snapshot = source.replica.snapshot(self.SNAPSHOT_AT)
        newcomer = FullNode.bootstrap_from_snapshot(
            "newcomer", snapshot, consensus=node_consensus(),
            rng=random.Random(0))
        assert newcomer.replica.credit_horizon == self.SNAPSHOT_AT
        self._submit(newcomer,
                     self._stranger_tx(genesis, timestamp=stamped))

    @pytest.mark.parametrize("stamped", [1.0, SNAPSHOT_AT, 9.0])
    def test_cold_restored_node_refuses_stranger(self, stamped):
        genesis, grant = self._deployment()
        node = build_node("n0", genesis, rng_seed=0)
        persistence = NodePersistence(MemoryStore())
        node.attach_persistence(persistence)
        assert node.ingest_local(grant)
        persistence.checkpoint(node, now=self.SNAPSHOT_AT)
        node.cold_restore()
        assert node.replica.credit_horizon == self.SNAPSHOT_AT
        self._submit(node, self._stranger_tx(genesis, timestamp=stamped))
