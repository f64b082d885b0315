"""Tests for targeted parent recovery: a gossiped transaction whose
parent was lost must un-park itself by re-requesting the missing hash
from peers, with backoff, instead of waiting for a global sync."""

import random

import pytest

from repro.core.consensus import CreditBasedConsensus
from repro.crypto.keys import KeyPair
from repro.faults.backoff import BackoffPolicy
from repro.network.network import Network
from repro.network.simulator import EventScheduler
from repro.network.transport import Message
from repro.nodes.full_node import FullNode
from repro.nodes.manager import ManagerNode
from repro.nodes.sync import PARENT_RESPONSE_BUDGET
from repro.pow.engine import PowEngine
from repro.devices.profiles import PC
from repro.tangle.transaction import Transaction, TransactionKind


@pytest.fixture()
def pair():
    """Two full nodes, peered, plus an issuing keypair."""
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(5))
    manager_keys = KeyPair.generate(seed=b"pr-manager")
    genesis = ManagerNode.create_genesis(manager_keys)
    policy = BackoffPolicy(base_delay=0.5, max_delay=4.0,
                           jitter=0.25, max_attempts=4)
    nodes = []
    for name in ("alpha", "beta"):
        node = FullNode(name, genesis, rng=random.Random(7),
                        enforce_pow=False, retry_policy=policy)
        network.attach(node)
        nodes.append(node)
    nodes[0].add_peer("beta")
    nodes[1].add_peer("alpha")
    return scheduler, network, nodes[0], nodes[1], manager_keys, genesis


def make_tx(keys, tangle, *, parent=None, timestamp):
    branch = parent if parent is not None else tangle.genesis.tx_hash
    trunk = tangle.genesis.tx_hash
    return Transaction.create(
        keys, kind=TransactionKind.DATA, payload=b"x",
        timestamp=timestamp, branch=branch, trunk=trunk,
        difficulty=1, nonce=None,
    )


class TestParentRecovery:
    def test_lost_parent_is_refetched(self, pair):
        scheduler, network, alpha, beta, keys, genesis = pair
        # Parent attaches at alpha while the link is cut: its gossip
        # to beta is lost forever.
        network.cut_link("alpha", "beta")
        parent = make_tx(keys, alpha.tangle, timestamp=0.0)
        ok, _ = alpha.lane.ingest(parent, source=None, admit=False)
        assert ok
        scheduler.run_until(1.0)
        network.heal_link("alpha", "beta")
        assert parent.tx_hash not in beta.tangle

        # The child gossips through: beta parks it and re-requests.
        child = make_tx(keys, alpha.tangle, parent=parent.tx_hash,
                        timestamp=1.0)
        ok, _ = alpha.lane.ingest(child, source=None, admit=False)
        assert ok
        scheduler.run_until(10.0)

        assert parent.tx_hash in beta.tangle
        assert child.tx_hash in beta.tangle
        assert len(beta.lane.solidification) == 0
        assert beta.stats.parent_requests_sent >= 1
        assert alpha.stats.parent_requests_served >= 1
        assert beta.stats.parent_fetch_recoveries >= 1

    def test_no_requests_when_nothing_missing(self, pair):
        scheduler, network, alpha, beta, keys, genesis = pair
        tx = make_tx(keys, alpha.tangle, timestamp=0.0)
        alpha.lane.ingest(tx, source=None, admit=False)
        scheduler.run_until(5.0)
        assert tx.tx_hash in beta.tangle
        assert beta.stats.parent_requests_sent == 0
        assert alpha.stats.parent_requests_sent == 0

    def test_exhaustion_stops_requesting(self, pair):
        scheduler, network, alpha, beta, keys, genesis = pair
        network.cut_link("alpha", "beta")
        parent = make_tx(keys, alpha.tangle, timestamp=0.0)
        alpha.lane.ingest(parent, source=None, admit=False)
        scheduler.run_until(1.0)
        # Deliver the child directly (bypassing the cut) so beta parks
        # it while every re-request to alpha keeps getting dropped.
        beta.lane.ingest(make_tx(keys, alpha.tangle, parent=parent.tx_hash,
                                 timestamp=1.0), source=None, admit=False)
        scheduler.run_until(60.0)
        assert beta.stats.parent_fetch_exhausted == 1
        assert beta.stats.parent_requests_sent == 4  # max_attempts
        sent_before = beta.stats.parent_requests_sent
        scheduler.run_until(120.0)
        assert beta.stats.parent_requests_sent == sent_before

    def test_deep_gap_recovered_recursively(self, pair):
        scheduler, network, alpha, beta, keys, genesis = pair
        network.cut_link("alpha", "beta")
        chain = []
        parent_hash = None
        for index in range(3):
            tx = make_tx(keys, alpha.tangle, parent=parent_hash,
                         timestamp=float(index))
            alpha.lane.ingest(tx, source=None, admit=False)
            chain.append(tx)
            parent_hash = tx.tx_hash
        scheduler.run_until(4.0)
        network.heal_link("alpha", "beta")
        tip = make_tx(keys, alpha.tangle, parent=parent_hash, timestamp=4.0)
        alpha.lane.ingest(tip, source=None, admit=False)
        scheduler.run_until(20.0)
        # The parent response carries the requested hash plus its
        # ancestors, so the whole lost chain arrives.
        for tx in chain + [tip]:
            assert tx.tx_hash in beta.tangle

    def test_duplicate_parked_child_single_request_loop(self, pair):
        scheduler, network, alpha, beta, keys, genesis = pair
        network.cut_link("alpha", "beta")
        parent = make_tx(keys, alpha.tangle, timestamp=0.0)
        alpha.lane.ingest(parent, source=None, admit=False)
        scheduler.run_until(1.0)
        network.heal_link("alpha", "beta")
        child = make_tx(keys, alpha.tangle, parent=parent.tx_hash,
                        timestamp=1.0)
        # The same child parks once; repeated deliveries must not arm
        # extra request loops for the same missing parent.
        beta.lane.ingest(child, source=None, admit=False)
        beta.lane.ingest(child, source=None, admit=False)
        assert len(beta.sync.fetches.pending) == 1
        scheduler.run_until(10.0)
        assert parent.tx_hash in beta.tangle
        assert len(beta.sync.fetches.pending) == 0


class TestParentResponseCost:
    def test_one_request_walks_a_bounded_part_of_a_large_tangle(self):
        """A 32-byte request for a recent transaction costs parent
        lookups in proportion to the response budget, not to the
        tangle: walking every retained ancestor and keeping the newest
        32 took ~800 lookups on this tangle."""
        scheduler = EventScheduler()
        keys = KeyPair.generate(seed=b"pr-cost")
        genesis = ManagerNode.create_genesis(keys)
        node = FullNode("solo", genesis, rng=random.Random(3),
                        enforce_pow=False)
        Network(scheduler, rng=random.Random(5)).attach(node)
        rng = random.Random(11)
        window = [genesis.tx_hash]  # the 8 newest transactions
        for index in range(1000):
            scheduler.run_until(float(index))
            tx = Transaction.create(
                keys, kind=TransactionKind.DATA, payload=b"%d" % index,
                timestamp=float(index), branch=rng.choice(window),
                trunk=rng.choice(window), difficulty=1, nonce=None)
            assert node.lane.ingest(tx)[0]
            window = (window + [tx.tx_hash])[-8:]
        assert len(node.tangle) == 1001

        tangle, calls, sent = node.tangle, [], []
        parents = tangle.parents
        tangle.parents = lambda tx_hash: calls.append(tx_hash) \
            or parents(tx_hash)
        node.send = lambda peer, kind, body, size_bytes=0: \
            sent.append((kind, body))
        node.handle_message(Message(
            sender="peer", recipient="solo", kind="parent_request",
            body={"hashes": [window[-1]]}, sent_at=0.0))
        assert len(calls) <= 2 * PARENT_RESPONSE_BUDGET

        ((kind, body),) = sent
        assert kind == "parent_response"
        served = [Transaction.from_bytes(encoded)
                  for encoded in body["transactions"]]
        assert len(served) == PARENT_RESPONSE_BUDGET
        assert served[-1].tx_hash == window[-1]
        position = {tx.tx_hash: index for index, tx in enumerate(served)}
        for index, tx in enumerate(served):  # parents first
            assert all(position.get(parent, -1) < index
                       for parent in (tx.branch, tx.trunk))
