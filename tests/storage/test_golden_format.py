"""Golden-file pins of the storage wire format, plus the pruning
regression: a pruned-then-restored node must keep validating new
transactions that reference the checkpoint boundary.

The files under ``tests/storage/golden/`` were generated by
``harness.build_golden_store`` and checked in; any drift in the
canonical encoding, the record framing, the hash chain, or the epoch
snapshot format shows up here as a byte diff, not as a silent
incompatibility discovered at restore time in production.
"""

import os

from repro.network.proc import build_node
from repro.nodes.manager import ManagerNode
from repro.storage.persistence import NodePersistence
from repro.storage.store import FileStore, canonical_json, open_store
from repro.tangle.transaction import Transaction, TransactionKind

from .harness import build_golden_store, golden_keys

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class TestGoldenFormat:
    def test_log_bytes_pinned(self, tmp_path):
        _, persistence, _ = build_golden_store(str(tmp_path))
        persistence.store.close()
        with open(os.path.join(str(tmp_path), "log.jsonl"), "rb") as handle:
            generated = handle.read()
        with open(os.path.join(GOLDEN_DIR, "log.jsonl"), "rb") as handle:
            golden = handle.read()
        assert generated == golden, (
            "storage log wire format drifted from the checked-in golden "
            "file — if the change is intentional, regenerate "
            "tests/storage/golden/ and document it in docs/STORAGE.md")

    def test_epoch_snapshot_pinned(self, tmp_path):
        _, persistence, epoch = build_golden_store(str(tmp_path))
        persistence.store.close()
        generated = canonical_json(epoch.to_data()) + "\n"
        with open(os.path.join(GOLDEN_DIR, "epoch.json")) as handle:
            golden = handle.read()
        assert generated == golden

    def test_golden_store_restores(self, tmp_path):
        """The checked-in log itself must load and rebuild the node."""
        import shutil

        path = os.path.join(str(tmp_path), "log.jsonl")
        shutil.copy(os.path.join(GOLDEN_DIR, "log.jsonl"), path)
        restore = NodePersistence(FileStore(path)).load()
        assert restore.snapshot is not None
        assert restore.snapshot.epoch == 0
        assert len(restore.tail) == 1

        node = build_node("restored", restore.genesis, rng_seed=0)
        node.adopt_snapshot(restore.snapshot)
        for tx, arrival in restore.tail:
            assert node.replay_attach(tx, arrival_time=arrival)
        assert sum(1 for tx in node.tangle if not tx.is_genesis) == 4


class TestPruningRegression:
    def _build_chain(self, directory):
        """A 30-deep transaction chain, journalled to a file store."""
        manager_keys, device_keys = golden_keys()
        genesis = ManagerNode.create_genesis(
            manager_keys, network_name="golden-prune",
            token_allocations=[(device_keys.node_id, 100)])
        node = build_node("pruned", genesis, rng_seed=0)
        store = open_store("file", directory, node="pruned")
        persistence = NodePersistence(store)
        node.attach_persistence(persistence)

        from repro.core.acl import AuthorizationList
        acl_tx = Transaction.create(
            manager_keys, kind=TransactionKind.ACL,
            payload=AuthorizationList.make_update(
                [device_keys.public]).to_bytes(),
            timestamp=1.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=1)
        assert node.ingest_local(acl_tx)
        parent = acl_tx
        chain = [acl_tx]
        for i in range(30):
            tx = Transaction.create(
                device_keys, kind=TransactionKind.DATA,
                payload=f"chained-{i}".encode(),
                timestamp=2.0 + i, branch=parent.tx_hash,
                trunk=parent.tx_hash, difficulty=1)
            assert node.ingest_local(tx)
            chain.append(tx)
            parent = tx
        return node, persistence, device_keys, chain

    def test_pruned_then_restored_validates_boundary_references(
            self, tmp_path):
        node, persistence, device_keys, chain = \
            self._build_chain(str(tmp_path))
        before = node.replica.state_hashes()

        # Prune aggressively: everything buried and older than 20s of
        # the checkpoint moment drops below the epoch boundary.
        epoch = persistence.checkpoint(
            node, now=90.0, keep_recent_seconds=20.0,
            min_weight_to_prune=2)
        assert epoch.tangle.pruned_count > 0
        assert epoch.tangle.entry_points

        replayed = node.cold_restore()
        assert replayed == 0  # the checkpoint subsumed the journal
        assert node.tangle.entry_points()
        after = node.replica.state_hashes()
        assert (after["ledger"], after["acl"]) \
            == (before["ledger"], before["acl"])

        # New transactions referencing the checkpoint boundary — a
        # retained tip and a pruned entry point — must still validate.
        entry_point = sorted(node.tangle.entry_points())[0]
        tip = node.tangle.tips()[0]
        boundary_tx = Transaction.create(
            device_keys, kind=TransactionKind.DATA, payload=b"boundary",
            timestamp=91.0, branch=tip, trunk=entry_point,
            difficulty=node.consensus.required_difficulty(
                device_keys.node_id, 91.0))
        ok = node.ingest_local(boundary_tx)
        assert ok, "post-prune node refused a boundary-referencing tx"
        assert boundary_tx.tx_hash in node.tangle

        # Credit bookkeeping across the pruned window keeps working.
        node.consensus.registry.forget_before(device_keys.node_id, 60.0)
        assert node.consensus.required_difficulty(
            device_keys.node_id, 92.0) >= 1

    def test_pruned_epoch_snapshot_pinned(self, tmp_path):
        """``epoch.json`` prunes nothing; this pins the entry points,
        retired tips and pruned count of an aggressive checkpoint."""
        node, persistence, _, _ = self._build_chain(str(tmp_path))
        epoch = persistence.checkpoint(
            node, now=90.0, keep_recent_seconds=20.0,
            min_weight_to_prune=2)
        persistence.store.close()
        generated = canonical_json(epoch.to_data()) + "\n"
        with open(os.path.join(GOLDEN_DIR, "epoch-pruned.json")) as handle:
            golden = handle.read()
        assert generated == golden
