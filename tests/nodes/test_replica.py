"""Tests for repro.nodes.replica: the one fold every path shares."""

import random

import pytest

from repro.core.acl import AuthorizationList
from repro.core.credit import MaliciousBehaviour
from repro.crypto.keys import KeyPair
from repro.harness.storage import run_differential
from repro.harness.workload import WorkloadBuilder
from repro.network.network import Network
from repro.network.proc import build_node, node_consensus
from repro.network.simulator import EventScheduler
from repro.nodes.replica import Replica
from repro.storage.persistence import NodePersistence
from repro.storage.store import open_store
from repro.tangle.transaction import Transaction, TransactionKind

from .runs import BACKENDS, Rig, gossip_frame


@pytest.fixture
def recorded_folds(monkeypatch):
    """Every :class:`Outcome` any replica folds, in order."""
    folds = []
    apply = Replica.apply

    def recording(self, tx, arrival, *, admit):
        outcome = apply(self, tx, arrival, admit=admit)
        folds.append(outcome)
        return outcome

    monkeypatch.setattr(Replica, "apply", recording)
    return folds


def live_node(entry, genesis, tail):
    """A node that took *tail* live through one of the ingress lane's
    entries, its clock stepped to each record's arrival: ``ingest_local``
    (admission on), or one gossip frame per ``read()`` through the
    transport's per-read function into ``deliver_run``."""
    if entry == "ingest_local":
        scheduler = EventScheduler()
        live = build_node("live", genesis, rng_seed=0)
        Network(scheduler, rng=random.Random(0)).attach(live)
        for tx, arrival in tail:
            scheduler.run_until(arrival)
            live.ingest_local(tx)
        return live
    rig = Rig(genesis, BACKENDS["product"])
    for tx, arrival in tail:
        rig.scheduler.run_until(arrival)
        rig.deliver([gossip_frame(tx.to_bytes())])
    return rig.node


@pytest.mark.parametrize("entry", ["ingest_local", "deliver_run"])
def test_journal_replay_and_live_ingest_fold_alike(tmp_path, recorded_folds,
                                                   entry):
    """The storage differential's journalled sequence — double-spends,
    lazy parents, ACL revokes — folds to one Outcome list whether it
    arrives live, through any entry of the ingress lane, or is replayed
    from the journal by ``cold_restore``."""
    run_dir = str(tmp_path / "run")
    # No checkpoints, so the journal keeps every record.
    assert run_differential(seed=7, storage_dir=run_dir,
                            checkpoints=0)["matched"]
    store = open_store("file", run_dir, node="durable")
    restore = NodePersistence(store).load()
    store.close()
    assert restore.snapshot is None and len(restore.tail) > 40

    recorded_folds.clear()
    live = live_node(entry, restore.genesis, restore.tail)
    live_folds = list(recorded_folds)

    replayed = build_node("replayed", restore.genesis, rng_seed=1)
    replayed.attach_persistence(
        NodePersistence(open_store("file", run_dir, node="durable")))
    recorded_folds.clear()
    assert replayed.cold_restore() == len(restore.tail)

    assert recorded_folds == live_folds
    assert all(outcome.attach is not None for outcome in live_folds)
    penalties = {kind for outcome in live_folds
                 for kind in outcome.penalties}
    assert penalties == {MaliciousBehaviour.LAZY_TIPS,
                         MaliciousBehaviour.DOUBLE_SPENDING}
    assert replayed.replica.state_hashes(100.0) \
        == live.replica.state_hashes(100.0)


class TestApply:
    def setup_method(self):
        self.builder = WorkloadBuilder("replica", 3, devices=2)
        self.replica = Replica(self.builder.genesis,
                               consensus=node_consensus())
        self.grant, accepted = self.builder.issue(
            self.builder.manager, TransactionKind.ACL,
            self.builder.acl_payload(self.builder.devices), timestamp=1.0)
        assert accepted
        assert self.replica.apply(self.grant, 1.0, admit=True).accepted

    def test_admission_refusal_leaves_state_untouched(self):
        stranger = KeyPair.generate(seed=b"replica:stranger")
        tx = Transaction.create(
            stranger, kind=TransactionKind.DATA, payload=b"x",
            timestamp=2.0, branch=self.grant.tx_hash,
            trunk=self.grant.tx_hash, difficulty=1)
        before = self.replica.state_hashes(5.0)
        outcome = self.replica.apply(tx, 2.0, admit=True)
        assert not outcome.admitted and outcome.attach is None
        assert "unauthorised issuer" in outcome.verdict
        assert self.replica.state_hashes(5.0) == before
        # Peer traffic is not admitted, only attached.
        assert self.replica.apply(tx, 2.0, admit=False).accepted

    def test_conflicting_transfer_attaches_and_is_charged(self):
        sender, recipient = self.builder.devices
        first = self.builder.transfer_payload(sender, recipient.node_id, 5)
        second = self.builder.transfer_payload(
            sender, self.builder.manager.node_id, 5,
            sequence=first.sequence)
        outcomes = []
        for timestamp, transfer in ((2.0, first), (3.0, second)):
            tx, _ = self.builder.issue(sender, TransactionKind.TRANSFER,
                                       transfer.to_bytes(),
                                       timestamp=timestamp)
            outcomes.append(self.replica.apply(tx, timestamp, admit=True))
        assert outcomes[0].accepted and outcomes[0].ledger == "applied"
        conflict = outcomes[1]
        assert conflict.attach is not None
        assert conflict.ledger in ("conflict-rejected", "conflict-replaced")
        assert conflict.penalties == (MaliciousBehaviour.DOUBLE_SPENDING,)
        assert conflict.verdict == "double-spend conflict (transfer canceled)"

    def test_non_manager_acl_update_attaches_with_effect_voided(self):
        """Peer traffic skips admission, so a gossiped ACL update from a
        non-manager attaches like any other transaction; its effect is
        refused by the ACL and reported, never raised."""
        rogue = self.builder.devices[0]
        tx = Transaction.create(
            rogue, kind=TransactionKind.ACL,
            payload=AuthorizationList.make_update([rogue.public]).to_bytes(),
            timestamp=2.0, branch=self.grant.tx_hash,
            trunk=self.grant.tx_hash, difficulty=1)
        acl_before = self.replica.state_hashes()["acl"]
        outcome = self.replica.apply(tx, 2.0, admit=False)
        assert outcome.attach is not None and not outcome.accepted
        assert type(outcome.error).__name__ == "UnauthorizedIssuerError"
        assert self.replica.state_hashes()["acl"] == acl_before

    def test_replica_resumed_from_its_snapshot_hashes_alike(self):
        snapshot = self.replica.snapshot(4.0)
        resumed = Replica(snapshot, consensus=node_consensus())
        assert resumed.credit_horizon == 4.0
        assert resumed.state_hashes(4.0) == self.replica.state_hashes(4.0)
