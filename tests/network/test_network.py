"""Tests for repro.network.network (routing, failures, observation)."""

import random

import pytest

from repro.network.network import Network, NetworkNode
from repro.network.simulator import EventScheduler
from repro.network.transport import LatencyModel


class Recorder(NetworkNode):
    """Test node that records everything it receives."""

    def __init__(self, address):
        super().__init__(address)
        self.inbox = []

    def handle_message(self, message):
        self.inbox.append(message)


@pytest.fixture()
def net():
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(1))
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    for node in (a, b, c):
        network.attach(node)
    return scheduler, network, a, b, c


class TestRouting:
    def test_send_and_deliver(self, net):
        scheduler, network, a, b, _ = net
        assert a.send("b", "ping", {"n": 1})
        scheduler.run()
        assert len(b.inbox) == 1
        assert b.inbox[0].kind == "ping"
        assert b.inbox[0].sender == "a"
        assert network.messages_delivered == 1

    def test_unknown_recipient_dropped(self, net):
        scheduler, network, a, _, _ = net
        assert not a.send("nobody", "ping", None)
        assert network.messages_dropped == 1

    def test_latency_defers_delivery(self, net):
        scheduler, network, a, b, _ = net
        network.set_link("a", "b", LatencyModel(base_latency=2.0))
        a.send("b", "ping", None)
        scheduler.run_until(1.0)
        assert b.inbox == []
        scheduler.run_until(3.0)
        assert len(b.inbox) == 1

    def test_duplicate_address_rejected(self, net):
        _, network, _, _, _ = net
        with pytest.raises(ValueError):
            network.attach(Recorder("a"))

    def test_unattached_node_cannot_send(self):
        with pytest.raises(RuntimeError):
            Recorder("x").send("y", "k", None)


class TestFailures:
    def test_down_node_receives_nothing(self, net):
        scheduler, network, a, b, _ = net
        network.take_down("b")
        assert not a.send("b", "ping", None)
        scheduler.run()
        assert b.inbox == []

    def test_down_node_cannot_send(self, net):
        scheduler, network, a, b, _ = net
        network.take_down("a")
        assert not a.send("b", "ping", None)

    def test_crash_during_flight_drops_message(self, net):
        scheduler, network, a, b, _ = net
        network.set_link("a", "b", LatencyModel(base_latency=5.0))
        a.send("b", "ping", None)
        network.take_down("b")
        scheduler.run()
        assert b.inbox == []
        assert network.messages_dropped == 1

    def test_bring_up_restores(self, net):
        scheduler, network, a, b, _ = net
        network.take_down("b")
        network.bring_up("b")
        assert a.send("b", "ping", None)
        scheduler.run()
        assert len(b.inbox) == 1

    def test_cut_link_is_symmetric(self, net):
        scheduler, network, a, b, _ = net
        network.cut_link("a", "b")
        assert not a.send("b", "x", None)
        assert not b.send("a", "x", None)
        network.heal_link("a", "b")
        assert a.send("b", "x", None)

    def test_cut_link_leaves_other_paths(self, net):
        scheduler, network, a, b, c = net
        network.cut_link("a", "b")
        assert a.send("c", "x", None)

    def test_is_down(self, net):
        _, network, _, _, _ = net
        network.take_down("a")
        assert network.is_down("a")
        assert not network.is_down("b")

    def test_take_down_unknown_raises(self, net):
        _, network, _, _, _ = net
        with pytest.raises(KeyError):
            network.take_down("ghost")


class TestObservation:
    def test_recipient_sees_deliveries(self, net):
        scheduler, network, a, b, c = net
        a.send("b", "ping", None)
        scheduler.run()
        assert [m.kind for m in b.inbox] == ["ping"]
        assert a.inbox == [] and c.inbox == []

    def test_drops_are_not_delivered(self, net):
        scheduler, network, a, b, c = net
        network.take_down("b")
        a.send("b", "ping", None)
        scheduler.run()
        assert a.inbox == [] and b.inbox == [] and c.inbox == []
        assert network.messages_delivered == 0

    def test_received_count(self, net):
        scheduler, network, a, b, _ = net
        a.send("b", "one", None)
        a.send("b", "two", None)
        scheduler.run()
        assert b.received_count == 2

    def test_lossy_link_statistics(self, net):
        scheduler, network, a, b, _ = net
        network.set_link("a", "b", LatencyModel(loss_rate=0.5))
        for _ in range(200):
            a.send("b", "ping", None)
        scheduler.run()
        assert 50 < len(b.inbox) < 150
        assert network.messages_dropped == 200 - len(b.inbox)


class TestInFlightPurge:
    """Cutting a link or downing a node must also kill traffic already
    in the air — a partition that lets queued packets land is not a
    partition."""

    def test_cut_link_purges_in_flight(self, net):
        scheduler, network, a, b, _ = net
        network.set_link("a", "b", LatencyModel(base_latency=2.0))
        a.send("b", "ping", None)
        scheduler.run_until(1.0)  # mid-flight
        network.cut_link("a", "b")
        scheduler.run_until(5.0)
        assert b.inbox == []
        assert network.messages_purged == 1

    def test_take_down_purges_inbound(self, net):
        scheduler, network, a, b, _ = net
        network.set_link("a", "b", LatencyModel(base_latency=2.0))
        a.send("b", "ping", None)
        scheduler.run_until(1.0)
        network.take_down("b")
        network.bring_up("b")
        scheduler.run_until(5.0)
        assert b.inbox == []
        assert network.messages_purged == 1

    def test_purge_spares_unrelated_traffic(self, net):
        scheduler, network, a, b, c = net
        network.set_link("a", "b", LatencyModel(base_latency=2.0))
        network.set_link("a", "c", LatencyModel(base_latency=2.0))
        a.send("b", "ping", None)
        a.send("c", "ping", None)
        scheduler.run_until(1.0)
        network.cut_link("a", "b")
        scheduler.run_until(5.0)
        assert b.inbox == []
        assert len(c.inbox) == 1
        assert network.messages_purged == 1

    def test_delivered_message_not_purged_later(self, net):
        scheduler, network, a, b, _ = net
        a.send("b", "ping", None)
        scheduler.run()
        assert len(b.inbox) == 1
        network.cut_link("a", "b")
        assert network.messages_purged == 0


class TestOverlaysAndRestore:
    def test_duplication_overlay_and_removal(self, net):
        from repro.network.transport import LinkOverlay
        scheduler, network, a, b, _ = net
        token = network.add_overlay(
            "a", "b", LinkOverlay(duplicate_probability=0.9))
        for _ in range(10):
            a.send("b", "ping", None)
        scheduler.run()
        assert len(b.inbox) > 10
        assert network.messages_duplicated == len(b.inbox) - 10
        network.remove_overlay(token)
        duplicated = network.messages_duplicated
        for _ in range(10):
            a.send("b", "ping", None)
        scheduler.run()
        assert network.messages_duplicated == duplicated  # overlay gone

    def test_restore_all_clears_every_fault(self, net):
        from repro.network.transport import LinkOverlay
        scheduler, network, a, b, c = net
        network.cut_link("a", "b")
        network.take_down("c")
        network.add_overlay("a", "b", LinkOverlay(extra_loss=0.99))
        b.clock_offset = 3.0
        network.restore_all()
        assert not network.is_down("c")
        assert b.clock_offset == 0.0
        a.send("b", "ping", None)
        for _ in range(20):
            a.send("b", "bulk", None)
        scheduler.run()
        assert len(b.inbox) == 21  # cut healed AND loss overlay gone
