"""Tests for repro.nodes.full_node (gateway behaviour)."""

import random

import pytest

from repro.core.acl import AuthorizationList, GenesisConfig
from repro.core.consensus import CreditBasedConsensus
from repro.crypto.keys import KeyPair
from repro.network.network import Network, NetworkNode
from repro.network.simulator import EventScheduler
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.tangle.transaction import Transaction, TransactionKind

MANAGER = KeyPair.generate(seed=b"fullnode-manager")
DEVICE = KeyPair.generate(seed=b"fullnode-device")
ROGUE = KeyPair.generate(seed=b"fullnode-rogue")


class Probe(NetworkNode):
    """A scripted client standing in for a light node."""

    def __init__(self, address="probe"):
        super().__init__(address)
        self.responses = []

    def handle_message(self, message):
        self.responses.append(message)


def make_setup(*, peers=2):
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(4))
    genesis = ManagerNode.create_genesis(MANAGER)
    nodes = []
    for i in range(peers):
        node = FullNode(f"fn-{i}", genesis,
                        consensus=CreditBasedConsensus(),
                        rng=random.Random(100 + i))
        network.attach(node)
        nodes.append(node)
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.add_peer(b.address)
    probe = Probe()
    network.attach(probe)
    # Authorise the test device via a manager-signed ACL transaction.
    from repro.core.acl import AuthorizationList
    update = AuthorizationList.make_update([DEVICE.public])
    acl_tx = Transaction.create(
        MANAGER, kind=TransactionKind.ACL, payload=update.to_bytes(),
        timestamp=0.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
        difficulty=11,  # the credit-required difficulty for a fresh node
    )
    nodes[0].ingest_local(acl_tx)
    scheduler.run()
    return scheduler, network, nodes, probe, genesis


def device_tx(parents, *, difficulty=11, timestamp=1.0, payload=b"reading"):
    return Transaction.create(
        DEVICE, kind=TransactionKind.DATA, payload=payload,
        timestamp=timestamp, branch=parents[0], trunk=parents[1],
        difficulty=difficulty,
    )


class TestTipsRpc:
    def test_authorized_device_gets_tips(self):
        scheduler, _, nodes, probe, _ = make_setup()
        probe.send("fn-0", "get_tips_request",
                   {"request_id": 1, "node_id": DEVICE.node_id})
        scheduler.run()
        (response,) = probe.responses
        assert response.kind == "get_tips_response"
        assert response.body["ok"]
        assert response.body["difficulty"] >= 1
        assert response.body["branch"] in nodes[0].tangle
        assert nodes[0].stats.tips_served == 1

    def test_unauthorized_refused(self):
        scheduler, _, nodes, probe, _ = make_setup()
        probe.send("fn-0", "get_tips_request",
                   {"request_id": 2, "node_id": ROGUE.node_id})
        scheduler.run()
        (response,) = probe.responses
        assert not response.body["ok"]
        assert response.body["error"] == "unauthorized"
        assert nodes[0].stats.unauthorized_rejected == 1


class TestSubmission:
    def test_accepted_and_gossiped(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        tx = device_tx((genesis.tx_hash, genesis.tx_hash))
        probe.send("fn-0", "submit_transaction",
                   {"request_id": 3, "transaction": tx.to_bytes()})
        scheduler.run()
        (response,) = probe.responses
        assert response.body["ok"]
        assert tx.tx_hash in nodes[0].tangle
        assert tx.tx_hash in nodes[1].tangle  # replicated via gossip
        assert nodes[0].stats.submissions_accepted == 1

    def test_duplicate_submission_rejected(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        tx = device_tx((genesis.tx_hash, genesis.tx_hash))
        for request_id in (1, 2):
            probe.send("fn-0", "submit_transaction",
                       {"request_id": request_id, "transaction": tx.to_bytes()})
        scheduler.run()
        oks = [r.body["ok"] for r in probe.responses]
        assert sorted(oks) == [False, True]
        assert len(nodes[0].tangle) == len(nodes[1].tangle)

    def test_unauthorized_issuer_rejected(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        tx = Transaction.create(
            ROGUE, kind=TransactionKind.DATA, payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash, difficulty=11,
        )
        probe.send("fn-0", "submit_transaction",
                   {"request_id": 4, "transaction": tx.to_bytes()})
        scheduler.run()
        (response,) = probe.responses
        assert not response.body["ok"]
        assert tx.tx_hash not in nodes[0].tangle
        assert "UnauthorizedIssuerError" in nodes[0].stats.rejection_reasons

    def test_undercut_difficulty_rejected(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        tx = device_tx((genesis.tx_hash, genesis.tx_hash), difficulty=2)
        probe.send("fn-0", "submit_transaction",
                   {"request_id": 5, "transaction": tx.to_bytes()})
        scheduler.run()
        (response,) = probe.responses
        assert not response.body["ok"]
        assert "InvalidPowError" in nodes[0].stats.rejection_reasons
        # Admission failures never attach — nothing to gossip.
        assert tx.tx_hash not in nodes[0].tangle
        assert tx.tx_hash not in nodes[1].tangle

    def test_gossip_skips_admission_policy(self):
        """Policy is an admission rule at the service boundary; peer
        traffic replicates regardless, or knowledge races would fork
        the replicas (see Replica.apply)."""
        scheduler, _, nodes, probe, genesis = make_setup()
        cheap = device_tx((genesis.tx_hash, genesis.tx_hash), difficulty=2)
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": cheap.to_bytes()})
        scheduler.run()
        assert cheap.tx_hash in nodes[0].tangle
        assert cheap.tx_hash in nodes[1].tangle  # relayed onward too

    def test_gossiped_rogue_acl_update_is_counted_not_raised(self):
        """A non-manager's ACL update reaching a gateway as gossip
        attaches (peer traffic is not admitted) with its effect refused;
        the refusal is counted instead of unwinding message delivery."""
        scheduler, _, nodes, probe, genesis = make_setup()
        update = Transaction.create(
            ROGUE, kind=TransactionKind.ACL,
            payload=AuthorizationList.make_update([ROGUE.public]).to_bytes(),
            timestamp=1.0, branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=11)
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": update.to_bytes()})
        scheduler.run()
        for node in nodes:
            assert update.tx_hash in node.tangle
            assert not node.acl.is_authorized(ROGUE.node_id)
        assert nodes[0].stats.rejection_reasons == {
            "UnauthorizedIssuerError": 1}

    def test_solidified_submission_keeps_admission_semantics(self):
        """A submission parked on a missing parent is re-admitted when
        it solidifies; peer traffic stays exempt."""
        scheduler, _, nodes, probe, genesis = make_setup()
        parent = device_tx((genesis.tx_hash, genesis.tx_hash))
        # Cheap child SUBMITTED (admission applies) before its parent.
        cheap_child = device_tx((parent.tx_hash, parent.tx_hash),
                                timestamp=2.0, difficulty=2,
                                payload=b"cheap-child")
        probe.send("fn-0", "submit_transaction",
                   {"request_id": 9, "transaction": cheap_child.to_bytes()})
        scheduler.run()
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": parent.to_bytes()})
        scheduler.run()
        # Parent attached via gossip; the parked child was re-ingested
        # with admission ON and was rejected for undercut difficulty.
        assert parent.tx_hash in nodes[0].tangle
        assert cheap_child.tx_hash not in nodes[0].tangle
        assert "InvalidPowError" in nodes[0].stats.rejection_reasons


class TestSolidification:
    def test_out_of_order_gossip_parks_then_attaches(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        parent = device_tx((genesis.tx_hash, genesis.tx_hash))
        child = device_tx((parent.tx_hash, parent.tx_hash), timestamp=2.0,
                          payload=b"child")
        # Deliver the child first, directly via gossip.
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": child.to_bytes()})
        scheduler.run()
        assert child.tx_hash not in nodes[0].tangle
        assert len(nodes[0].lane.solidification) == 1
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": parent.to_bytes()})
        scheduler.run()
        assert parent.tx_hash in nodes[0].tangle
        assert child.tx_hash in nodes[0].tangle
        assert len(nodes[0].lane.solidification) == 0

    def test_parked_counted(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        parent = device_tx((genesis.tx_hash, genesis.tx_hash))
        child = device_tx((parent.tx_hash, parent.tx_hash), timestamp=2.0)
        probe.send("fn-0", "gossip_transaction",
                   {"transaction": child.to_bytes()})
        scheduler.run()
        assert nodes[0].stats.gossip_parked == 1


class TestBookkeeping:
    def test_confirmed_count(self):
        scheduler, _, nodes, probe, genesis = make_setup()
        tx = device_tx((genesis.tx_hash, genesis.tx_hash))
        probe.send("fn-0", "submit_transaction",
                   {"request_id": 1, "transaction": tx.to_bytes()})
        scheduler.run()
        assert nodes[0].confirmed_count(2) == 1  # genesis has weight 2 now

    def test_unknown_message_kind_ignored(self):
        scheduler, _, nodes, probe, _ = make_setup()
        probe.send("fn-0", "weird-kind", {"x": 1})
        scheduler.run()
        assert probe.responses == []
