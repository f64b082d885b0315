"""Seed-node bootstrap and peer discovery (`repro.network.discovery`).

Unit tests drive :class:`DiscoveryService` against a stub transport so
retry/idempotence/stale-address logic is exact and instant; the TCP
tests at the bottom assemble real fleets over
:class:`~repro.network.aio.AsyncioTransport` — including the
seed-down-at-start and rejoin-with-fresh-port cases the multi-process
harness depends on.
"""

import asyncio
import random

import pytest

from repro.faults.backoff import BackoffPolicy
from repro.network.aio import AsyncioScheduler, NodeRunner
from repro.network.discovery import (
    ANNOUNCE_KIND,
    HELLO_KIND,
    PEERS_KIND,
    DiscoveryService,
    PeerInfo,
    parse_seed,
)
from repro.network.transport import Message
from repro.telemetry.registry import MetricsRegistry

from .test_asyncio_transport import FAST_BACKOFF, Recorder, _transport, \
    _wait_for

FAST_HELLO = BackoffPolicy(base_delay=0.05, multiplier=1.5,
                           max_delay=0.2, jitter=0.0, max_attempts=60)


# -- wire-format helpers ---------------------------------------------------

class TestParseSeed:
    def test_parses_address_host_port(self):
        assert parse_seed("n0=127.0.0.1:4100") == ("n0", "127.0.0.1", 4100)

    def test_host_may_contain_colons(self):
        # rsplit on the final colon keeps IPv6-style hosts intact.
        assert parse_seed("n0=::1:4100") == ("n0", "::1", 4100)

    @pytest.mark.parametrize("spec", [
        "n0",                       # no endpoint at all
        "n0=127.0.0.1",             # no port
        "=127.0.0.1:4100",          # empty address
        "n0=:4100",                 # empty host
        "n0=127.0.0.1:notaport",    # unparsable port
        "n0=127.0.0.1:0",           # port out of range
        "n0=127.0.0.1:70000",       # port out of range
    ])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_seed(spec)


class TestPeerInfo:
    def test_round_trips_through_body(self):
        info = PeerInfo(address="n1", host="10.0.0.2", port=4200,
                        role="full")
        assert PeerInfo.from_body(info.to_body()) == info
        assert info.dialable

    def test_connect_only_entries_are_not_dialable(self):
        info = PeerInfo.from_body({"address": "driver-1", "host": None,
                                   "port": None, "role": "driver"})
        assert not info.dialable

    @pytest.mark.parametrize("body", [
        {"address": "", "host": "h", "port": 1, "role": "full"},
        {"address": "n1", "host": 7, "port": 1, "role": "full"},
        {"address": "n1", "host": "h", "port": True, "role": "full"},
        {"address": "n1", "host": "h", "port": 0, "role": "full"},
        {"address": "n1", "host": "h", "port": 99999, "role": "full"},
        {"address": "n1", "host": "h", "port": 1, "role": "archon"},
        {"address": "n1", "host": "h", "port": 1, "role": ["full"]},
        {"address": 5}, {"host": "h"}, 7, None, ["n1"],
    ])
    def test_rejects_malformed_bodies(self, body):
        with pytest.raises(ValueError):
            PeerInfo.from_body(body)


# -- unit-level service tests ----------------------------------------------

class StubTransport:
    """Just enough transport for DiscoveryService: captures sends and
    scheduled timers so tests fire retries by hand."""

    def __init__(self, advertised=("127.0.0.1", 4100)):
        self.directory = {}
        self.handlers = {}
        self.sent = []  # (sender, recipient, kind, body)
        self.timers = []  # callbacks pending, FIFO
        self.advertised_address = advertised
        self._rng = random.Random(0)
        self.scheduler = self

    def register_handler(self, kind, handler):
        self.handlers[kind] = handler

    def send(self, sender, recipient, kind, body, **_kwargs):
        self.sent.append((sender, recipient, kind, body))
        return True

    def schedule(self, delay, callback):
        self.timers.append(callback)
        return len(self.timers)

    def fire_next(self):
        self.timers.pop(0)()

    def deliver(self, sender, kind, body):
        message = Message(sender=sender, recipient="me", kind=kind,
                          body=body, sent_at=0.0)
        self.handlers[kind](message)

    def sent_kinds(self, kind):
        return [entry for entry in self.sent if entry[2] == kind]


def _service(transport, **kwargs):
    kwargs.setdefault("address", "me")
    kwargs.setdefault("policy", BackoffPolicy(
        base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0,
        max_attempts=3))
    return DiscoveryService(transport, **kwargs)


def _entry(address, port, role="full"):
    return {"address": address, "host": "127.0.0.1", "port": port,
            "role": role}


class TestBootstrapUnit:
    def test_no_seeds_is_bootstrapped_immediately(self):
        transport = StubTransport()
        service = _service(transport)
        service.start()
        assert service.bootstrapped
        assert transport.sent == []
        assert transport.timers == []

    def test_seed_addresses_prime_the_directory(self):
        transport = StubTransport()
        _service(transport, seeds=[("n0", "127.0.0.1", 4000)])
        assert transport.directory["n0"] == ("127.0.0.1", 4000)

    def test_hello_retries_until_attempts_exhaust(self):
        transport = StubTransport()
        registry = MetricsRegistry()
        service = _service(transport, seeds=[("n0", "127.0.0.1", 4000)],
                           telemetry=registry)
        service.start()
        while transport.timers:
            transport.fire_next()
        hellos = transport.sent_kinds(HELLO_KIND)
        assert len(hellos) == 3  # max_attempts
        assert service.hello_attempts == 3
        assert not service.bootstrapped
        assert registry.counter(
            "repro_discovery_bootstrap_exhausted_total").value() == 1

    def test_peers_reply_stops_the_retry_loop(self):
        transport = StubTransport()
        learned = []
        service = _service(transport, seeds=[("n0", "127.0.0.1", 4000)],
                           on_full_peer=learned.append)
        service.start()
        assert len(transport.sent_kinds(HELLO_KIND)) == 1
        transport.deliver("n0", PEERS_KIND, {"peers": [
            _entry("n0", 4000), _entry("n2", 4200),
            _entry("me", 4100),  # our own echo must be ignored
        ]})
        assert service.bootstrapped
        assert learned == ["n0", "n2"]
        assert transport.directory["n2"] == ("127.0.0.1", 4200)
        assert service.full_peers() == ["n0", "n2"]
        while transport.timers:  # the pending retry timer is now inert
            transport.fire_next()
        assert len(transport.sent_kinds(HELLO_KIND)) == 1

    def test_hello_replies_with_full_table_including_both_ends(self):
        transport = StubTransport(advertised=("127.0.0.1", 4100))
        service = _service(transport)
        service.start()
        transport.deliver("n5", HELLO_KIND, _entry("n5", 4500))
        replies = transport.sent_kinds(PEERS_KIND)
        assert len(replies) == 1
        _, recipient, _, body = replies[0]
        assert recipient == "n5"
        table = {row["address"]: row for row in body["peers"]}
        assert table["n5"]["port"] == 4500
        assert table["me"] == _entry("me", 4100)


class TestAnnouncements:
    def _mesh(self):
        """A service that already knows full peers a, b and c."""
        transport = StubTransport()
        learned = []
        service = _service(transport, on_full_peer=learned.append)
        service.start()
        for address, port in (("a", 4001), ("b", 4002), ("c", 4003)):
            transport.deliver(address, ANNOUNCE_KIND, _entry(address, port))
        transport.sent.clear()
        return transport, service, learned

    def test_hello_is_announced_to_other_full_peers(self):
        transport, service, _ = self._mesh()
        transport.deliver("n5", HELLO_KIND, _entry("n5", 4500))
        floods = transport.sent_kinds(ANNOUNCE_KIND)
        # To a, b and c — never back to the subject itself.
        assert sorted(entry[1] for entry in floods) == ["a", "b", "c"]
        assert all(entry[3]["address"] == "n5" for entry in floods)

    def test_duplicate_announce_is_idempotent(self):
        transport, service, learned = self._mesh()
        registry_before = dict(service.peers)
        transport.deliver("a", ANNOUNCE_KIND, _entry("b", 4002))
        assert service.peers == registry_before
        assert transport.sent_kinds(ANNOUNCE_KIND) == []  # no re-flood
        assert learned == ["a", "b", "c"]  # callback never repeated

    def test_changed_entry_refloods_excluding_the_bearer(self):
        transport, service, learned = self._mesh()
        # b rejoined on a fresh port; a relays the announcement.  The
        # re-flood reaches c (the peer a might not have known about)
        # but neither the bearer a nor the subject b.
        transport.deliver("a", ANNOUNCE_KIND, _entry("b", 5002))
        assert transport.directory["b"] == ("127.0.0.1", 5002)
        floods = transport.sent_kinds(ANNOUNCE_KIND)
        assert [(entry[1], entry[3]["port"]) for entry in floods] == \
            [("c", 5002)]
        assert learned == ["a", "b", "c"]  # changed, not *newly known*

    def test_driver_entries_never_reach_on_full_peer(self):
        transport, service, learned = self._mesh()
        transport.deliver("driver-1", HELLO_KIND, {
            "address": "driver-1", "host": None, "port": None,
            "role": "driver"})
        assert learned == ["a", "b", "c"]
        assert "driver-1" not in service.full_peers()
        assert "driver-1" not in transport.directory
        assert "driver-1" in service.peers  # still answered and recorded

    def test_own_address_is_never_learned(self):
        transport, service, learned = self._mesh()
        transport.deliver("a", ANNOUNCE_KIND, _entry("me", 9999))
        assert "me" not in service.peers
        assert "me" not in transport.directory
        assert learned == ["a", "b", "c"]


class TestMalformedFrames:
    """A well-framed ``disc_*`` message whose body is not a peer entry
    is refused and counted; it never raises into the transport."""

    @pytest.mark.parametrize("kind", [HELLO_KIND, ANNOUNCE_KIND])
    @pytest.mark.parametrize("body", [
        7, None, {"address": 5}, {"address": "x", "role": ["full"]},
        {"address": "x", "port": "80"}])
    def test_bad_entry_is_refused_and_counted(self, kind, body):
        transport = StubTransport()
        service = _service(transport)
        transport.deliver("x", kind, body)
        assert service.malformed_messages == 1
        assert service.peers == {} and transport.sent == []

    @pytest.mark.parametrize("body", [
        7, {"peers": 7}, {"peers": {"address": "a"}},
        {"peers": [_entry("a", 4001), {"address": 5}]}])
    def test_bad_peer_table_is_refused_whole(self, body):
        transport = StubTransport()
        service = _service(transport, seeds=[("seed", "127.0.0.1", 4000)])
        service.start()
        transport.deliver("seed", PEERS_KIND, body)
        assert service.malformed_messages == 1
        assert service.peers == {} and not service.bootstrapped
        transport.fire_next()  # still helloing
        assert len(transport.sent_kinds(HELLO_KIND)) == 2


# -- real-TCP integration --------------------------------------------------

def _tcp_node(address, port, *, seeds=(), on_full_peer=None):
    """One listening Recorder node with discovery on its transport."""
    scheduler = AsyncioScheduler(time_scale=20.0)
    transport = _transport(scheduler, {})
    node = Recorder(address)
    runner = NodeRunner(node, transport, listen=("127.0.0.1", port))
    service = DiscoveryService(
        transport, address=address, seeds=seeds, policy=FAST_HELLO,
        on_full_peer=on_full_peer)
    return runner, service


class TestDiscoveryOverTcp:
    def test_three_nodes_full_mesh_through_one_seed(self, fleet_sandbox):
        async def scenario():
            seed_runner, seed_service = _tcp_node("n0", 0)
            await seed_runner.start()
            seed_service.start()
            seeds = [("n0", "127.0.0.1", seed_runner.bound_address[1])]

            peers1, peers2 = [], []
            runner1, service1 = _tcp_node("n1", 0, seeds=seeds,
                                          on_full_peer=peers1.append)
            runner2, service2 = _tcp_node("n2", 0, seeds=seeds,
                                          on_full_peer=peers2.append)
            await runner1.start()
            service1.start()
            await runner2.start()
            service2.start()
            try:
                await _wait_for(lambda: (
                    service1.bootstrapped and service2.bootstrapped
                    and service1.full_peers() == ["n0", "n2"]
                    and service2.full_peers() == ["n0", "n1"]))
                assert seed_service.full_peers() == ["n1", "n2"]
                # Every transport can now dial every peer directly.
                assert runner1.transport.directory["n2"] == \
                    runner2.transport.advertised_address
                assert runner2.transport.directory["n1"] == \
                    runner1.transport.advertised_address
            finally:
                await runner2.stop()
                await runner1.stop()
                await seed_runner.stop()

        fleet_sandbox.run(scenario())

    def test_seed_down_at_start_bootstraps_after_retry(self,
                                                       fleet_sandbox):
        port = fleet_sandbox.ephemeral_port()

        async def scenario():
            joiner_runner, joiner_service = _tcp_node(
                "n1", 0, seeds=[("n0", "127.0.0.1", port)])
            await joiner_runner.start()
            joiner_service.start()
            try:
                # The seed's port refuses connections; hellos pile into
                # the reconnect loop while attempts climb.
                await _wait_for(
                    lambda: joiner_service.hello_attempts > 1)
                assert not joiner_service.bootstrapped

                fleet_sandbox.release_port(port)  # seed comes up *now*
                seed_runner, seed_service = _tcp_node("n0", port)
                await seed_runner.start()
                seed_service.start()
                try:
                    await _wait_for(lambda: joiner_service.bootstrapped)
                    assert joiner_service.full_peers() == ["n0"]
                    assert seed_service.full_peers() == ["n1"]
                finally:
                    await seed_runner.stop()
            finally:
                await joiner_runner.stop()

        fleet_sandbox.run(scenario())

    def test_rejoin_with_fresh_port_retires_stale_address(self,
                                                          fleet_sandbox):
        async def scenario():
            seed_runner, seed_service = _tcp_node("n0", 0)
            await seed_runner.start()
            seed_service.start()
            seeds = [("n0", "127.0.0.1", seed_runner.bound_address[1])]

            runner1, service1 = _tcp_node("n1", 0, seeds=seeds)
            runner2, service2 = _tcp_node("n2", 0, seeds=seeds)
            await runner1.start()
            service1.start()
            await runner2.start()
            service2.start()
            reborn = None
            try:
                await _wait_for(lambda: (
                    service1.bootstrapped and service2.bootstrapped
                    and "n2" in runner1.transport.directory))
                stale = runner1.transport.directory["n2"]

                # n2 dies and rejoins on a fresh ephemeral port.
                await runner2.stop()
                reborn, reborn_service = _tcp_node("n2", 0, seeds=seeds)
                await reborn.start()
                reborn_service.start()
                fresh = reborn.transport.advertised_address
                assert fresh != stale

                # The announce flood retires the stale address on n1,
                # which n2 never spoke to directly this lifetime.
                await _wait_for(lambda: (
                    runner1.transport.directory.get("n2") == fresh))
                assert seed_runner.transport.directory["n2"] == fresh

                # And the fresh route actually works end to end.
                runner1.node.send("n2", "ping", {"i": 1})
                await _wait_for(lambda: any(
                    m.kind == "ping" for m in reborn.node.received))
            finally:
                if reborn is not None:
                    await reborn.stop()
                await runner1.stop()
                await seed_runner.stop()

        fleet_sandbox.run(scenario())
