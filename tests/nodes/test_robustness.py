"""Fuzz/robustness tests: malformed network input must never take a
node down or wedge its loops."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.harness.workload import WorkloadBuilder
from repro.network.proc import build_node
from repro.network.transport import Message
from repro.nodes.full_node import FullNode
from repro.nodes.sync import PARENT_RESPONSE_BUDGET
from repro.tangle.transaction import TransactionKind

from .runs import BACKENDS, PEER, Rig, frame, submit_frame


def build_running_system(seed=141):
    system = BIoTSystem.build(BIoTConfig(
        device_count=2, gateway_count=1, seed=seed,
        initial_difficulty=6, report_interval=1.5,
    ))
    system.initialize()
    for device in system.devices:
        device.start()
    return system


GARBAGE_BODIES = [
    {},                                     # missing every field
    {"transaction": b"\x00\x01garbage"},    # undecodable transaction
    {"transaction": 12345},                 # wrong type entirely
    {"request_id": None, "node_id": "not-bytes"},
    {"known": "not-a-list"},
    {"transactions": [None, 7, b"junk"]},
    {"m1": b"", "session_id": b""},
    {"m2": None, "session_id": None},
    {"m3": object()},
    {"branch": b"x", "trunk": b"y", "difficulty": "eleven",
     "ok": True, "request_id": 1},
]

ALL_KINDS = [
    "get_tips_request", "get_tips_response", "submit_transaction",
    "submit_response", "gossip_transaction", "sync_request",
    "sync_response", "keydist_m1", "keydist_m2", "keydist_m3",
    "totally-unknown-kind",
]


FULL_NODE_KINDS = [
    "get_tips_request", "submit_transaction", "gossip_transaction",
    "sync_request", "sync_response", "parent_request", "parent_response",
]


class TestNonDictBodies:
    """The frame layer does not type ``body``, so a structurally valid
    frame can carry anything; every full-node handler must count it as
    malformed and never raise into the transport's read loop."""

    @pytest.fixture(scope="class")
    def genesis(self):
        return WorkloadBuilder("robustness", 1, devices=0).genesis

    @pytest.mark.parametrize("body", [None, 7, b"x", []], ids=repr)
    @pytest.mark.parametrize("kind", FULL_NODE_KINDS)
    def test_counted_as_malformed_never_raised(self, genesis, kind, body):
        node = build_node("gateway", genesis, rng_seed=0)
        node.handle_message(Message(sender="peer", recipient="gateway",
                                    kind=kind, body=body, sent_at=0.0))
        assert node.stats.malformed_messages == 1
        assert node.stats.rejection_reasons == {"malformed": 1}

    @pytest.mark.parametrize("kind", ["gossip_batch", "totally-unknown-kind"])
    def test_a_retired_kind_is_ignored_like_any_unknown_kind(self, kind):
        """``gossip_batch`` is no longer a message kind: a well-formed
        frame of it attaches nothing and is not even counted."""
        builder = WorkloadBuilder("robustness", 1, devices=0)
        tx, _ = builder.issue(builder.manager, TransactionKind.DATA, b"x",
                              timestamp=1.0)
        node = build_node("gateway", builder.genesis, rng_seed=0)
        node.handle_message(Message(
            sender="peer", recipient="gateway", kind=kind,
            body={"transactions": [tx.to_bytes()]}, sent_at=0.0))
        assert len(node.tangle) == 1
        assert node.stats.malformed_messages == 0
        assert node.stats.gossip_accepted == 0

    def test_a_run_of_garbage_is_delivered_without_raising(self, genesis):
        """The per-read pass reads the same untyped bodies before any
        handler does; it skips what it cannot read (the handlers then
        count it) and never raises into the read loop either."""
        node = build_node("gateway", genesis, rng_seed=0)
        bodies = [None, 7, b"x", [], *GARBAGE_BODIES,
                  {"transaction": []}, {"transaction": b""}]
        run = [Message(sender="peer", recipient="gateway", kind=kind,
                       body=body, sent_at=0.0)
               for body in bodies
               for kind in ("submit_transaction", "gossip_transaction")]
        node.deliver_run(run)
        assert node.stats.malformed_messages == len(run)
        assert node.received_count == len(run)
        assert len(node.tangle) == 1


class TestParentRequestBudget:
    """``PARENT_RESPONSE_BUDGET`` bounds the whole ``parent_response``
    and its ancestor walks, however many hashes the request repeats or
    piles up; the honest one-hash request is served as ever."""

    def test_repeated_and_piled_hashes_buy_no_more(self, monkeypatch):
        budget = PARENT_RESPONSE_BUDGET
        builder = WorkloadBuilder("parent-budget", 1, devices=1)
        (device,) = builder.devices
        genesis = builder.genesis.tx_hash
        chain = [builder.issue(builder.manager, TransactionKind.ACL,
                               builder.acl_payload([device]),
                               (genesis, genesis), timestamp=1.0)[0]]
        parents = (chain[0].tx_hash,) * 2
        for index in range(budget + 8):
            tx, accepted = builder.issue(device, TransactionKind.DATA,
                                         b"%d" % index, parents,
                                         timestamp=2.0 + index)
            assert accepted
            parents = (parents[1], tx.tx_hash)
            chain.append(tx)
        rig = Rig(builder.genesis, BACKENDS["product"])
        for index, tx in enumerate(chain):
            rig.scheduler.run_until(tx.timestamp)  # distinct arrival times
            rig.deliver([submit_frame(index, tx.to_bytes())])
        assert len(rig.node.tangle) == len(chain) + 1

        walked = []
        chain_of = rig.node.sync._parent_response_chain
        monkeypatch.setattr(
            rig.node.sync, "_parent_response_chain",
            lambda tx_hash, room: walked.append(tx_hash)
            or chain_of(tx_hash, room))

        def ask(hashes):
            del walked[:], rig.peer.messages[:]
            rig.deliver([frame(PEER, "parent_request", {"hashes": hashes})])
            (response,) = rig.peer.messages
            assert response.kind == "parent_response"
            return response.body["transactions"]

        encoded = [tx.to_bytes() for tx in chain]
        tip = chain[-1].tx_hash
        # Honest: the tip behind its nearest ancestors, parents first.
        assert ask([tip]) == encoded[-budget:]
        assert walked == [tip]
        assert ask([tip] * 2000) == encoded[-budget:]
        assert walked == [tip]
        # Piled up: chain[i] brings i + 1 transactions, so the budget is
        # full part-way through the seventh hash and no eighth is walked.
        piled = [tx.tx_hash for tx in chain[1:]]
        assert ask(piled) == sum((encoded[:i + 1] for i in range(1, 7)),
                                 []) + encoded[3:8]
        assert walked == piled[:7]
        assert rig.node.stats.parent_requests_served == 3
        assert rig.node.stats.malformed_messages == 0


class TestGatewayFuzzing:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gateway_survives_garbage_of_every_kind(self, kind):
        system = build_running_system()
        for body in GARBAGE_BODIES:
            system.network.send("device-0", "gateway-0", kind, body)
        system.run_for(5.0)  # nothing raised out of the scheduler
        gateway = system.gateways[0]
        assert gateway.tangle_size >= 1

    def test_service_continues_under_garbage_stream(self):
        system = build_running_system()
        rng = random.Random(5)

        # Interleave garbage with real traffic for a while.
        def spray():
            kind = rng.choice(ALL_KINDS)
            body = rng.choice(GARBAGE_BODIES)
            system.network.send("device-1", "gateway-0", kind, body)
            system.scheduler.schedule(0.5, spray)

        system.scheduler.schedule(0.0, spray)
        system.run_for(30.0)
        for device in system.devices:
            assert device.stats.submissions_accepted > 0
        assert system.gateways[0].stats.malformed_messages > 0

    def test_manager_survives_keydist_garbage(self):
        system = build_running_system()
        for body in GARBAGE_BODIES:
            system.network.send("device-0", "manager", "keydist_m2", body)
        system.run_for(2.0)
        # The manager can still run a real handshake afterwards.
        device = system.devices[0]
        system.manager.distribute_key(device.address, device.keypair.public)
        system.run_for(2.0)
        assert system.manager.distributor.completed_distributions >= 0


class TestListBodiesOutsideTheGateway:
    """The manager's key-distribution kinds and a device's reply kinds
    get the gateway's guard: a list body is dropped, never raised into
    the transport's read loop (which would lose the frames behind it)."""

    @pytest.mark.parametrize("role, kind", [
        ("manager", "keydist_m2"), ("manager", "keydist_ack"),
        ("device", "get_tips_response"), ("device", "submit_response"),
        ("device", "keydist_m3"),
    ])
    def test_list_body_is_dropped(self, role, kind):
        system = BIoTSystem.build(BIoTConfig(device_count=1,
                                             gateway_count=1, seed=161))
        node = system.manager if role == "manager" else system.devices[0]
        node.handle_message(Message(sender="gateway-0",
                                    recipient=node.address, kind=kind,
                                    body=[b"session", 1], sent_at=0.0))
        if role == "manager":
            assert node.stats.malformed_messages == 1
            assert node.stats.rejection_reasons == {"malformed": 1}


class TestDeviceFuzzing:
    def test_device_survives_forged_responses(self):
        system = build_running_system()
        device = system.devices[0]
        for body in GARBAGE_BODIES:
            for kind in ("get_tips_response", "submit_response",
                         "keydist_m1", "keydist_m3"):
                system.network.send("gateway-0", device.address, kind, body)
        before = device.stats.submissions_accepted
        system.run_for(15.0)
        # The reporting loop is still alive.
        assert device.stats.submissions_accepted > before

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=10, deadline=None)
    def test_device_survives_random_binary_blobs(self, blob):
        system = build_running_system(seed=151)
        device = system.devices[0]
        system.network.send("gateway-0", device.address,
                            "get_tips_response",
                            {"request_id": 1, "ok": True, "branch": blob,
                             "trunk": blob, "difficulty": 3})
        system.run_for(3.0)
        assert True  # reaching here means nothing exploded
