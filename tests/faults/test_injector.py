"""Tests for repro.faults.injector: plans execute on the event loop at
the right times, heal cleanly, and trigger post-heal resync."""

import random

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PlanBuilder
from repro.network.network import Network, NetworkNode
from repro.network.simulator import EventScheduler
from repro.network.transport import LatencyModel


class Recorder(NetworkNode):
    def __init__(self, address):
        super().__init__(address)
        self.inbox = []
        self.resyncs = 0

    def handle_message(self, message):
        self.inbox.append(message)

    def resync_with_peers(self):
        self.resyncs += 1
        return 0


@pytest.fixture()
def fabric():
    scheduler = EventScheduler()
    network = Network(scheduler, rng=random.Random(3))
    nodes = {name: Recorder(name) for name in ("a", "b", "c")}
    for node in nodes.values():
        network.attach(node)
    return scheduler, network, nodes


def pump(scheduler, network, sender, recipient, count=1):
    for _ in range(count):
        network.send(sender, recipient, "probe", {})


class TestLinkFaults:
    def test_two_singleton_partition_cuts_then_heal_restores(self, fabric):
        """A partition of two one-node groups is a cut of that one link,
        both ways."""
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().partition(1.0, 3.0, ("a",), ("b",)).build())

        scheduler.run_until(2.0)
        pump(scheduler, network, "a", "b")
        pump(scheduler, network, "b", "a")
        pump(scheduler, network, "a", "c")  # other links stay up
        scheduler.run_until(2.5)
        assert nodes["b"].inbox == []  # cut window: dropped
        assert nodes["a"].inbox == []
        assert len(nodes["c"].inbox) == 1

        scheduler.run_until(3.5)
        pump(scheduler, network, "a", "b")
        scheduler.run_until(4.5)
        assert len(nodes["b"].inbox) == 1  # healed

    def test_partition_cuts_every_cross_link_only(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().partition(1.0, 5.0, ("a",), ("b", "c")).build())
        scheduler.run_until(2.0)
        pump(scheduler, network, "a", "b")
        pump(scheduler, network, "a", "c")
        pump(scheduler, network, "b", "c")  # intra-group survives
        scheduler.run_until(3.0)
        assert nodes["b"].inbox == []
        assert [m.sender for m in nodes["c"].inbox] == ["b"]

    def test_offsets_are_relative_to_apply_time(self, fabric):
        scheduler, network, nodes = fabric
        scheduler.run_until(10.0)
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().partition(1.0, None, ("a",), ("b",)).build())
        pump(scheduler, network, "a", "b")
        scheduler.run_until(10.5)
        assert len(nodes["b"].inbox) == 1  # before 11.0: link still up
        scheduler.run_until(11.5)
        pump(scheduler, network, "a", "b")
        scheduler.run_until(12.5)
        assert len(nodes["b"].inbox) == 1  # after 11.0: cut


class TestCrashFaults:
    def test_crash_restart_and_resync(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(
            network, full_nodes=[nodes["a"], nodes["b"]], resync_delay=0.5)
        injector.apply(
            PlanBuilder().crash(1.0, "a", restart_at=2.0).build())
        scheduler.run_until(1.5)
        assert network.is_down("a")
        scheduler.run_until(3.0)
        assert not network.is_down("a")
        assert nodes["a"].resyncs == 1  # only the restarted node resyncs
        assert nodes["b"].resyncs == 0

    def test_restart_without_resync(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network, full_nodes=[nodes["a"]])
        injector.apply(PlanBuilder().crash(
            1.0, "a", restart_at=2.0, resync_on_restart=False).build())
        scheduler.run_until(5.0)
        assert nodes["a"].resyncs == 0

    def test_heal_resyncs_survivors_not_downed(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(
            network, full_nodes=[nodes["a"], nodes["b"]], resync_delay=0.1)
        injector.apply(PlanBuilder()
                       .partition(1.0, 2.0, ("a",), ("c",))
                       .crash(0.5, "b")  # never restarts
                       .build())
        scheduler.run_until(3.0)
        assert nodes["a"].resyncs == 1
        assert nodes["b"].resyncs == 0  # down at resync time: skipped


class TestBurstFaults:
    def test_loss_burst_applies_and_lifts(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().loss(1.0, 4.0, 0.99, a="a", b="b").build())
        scheduler.run_until(2.0)
        pump(scheduler, network, "a", "b", count=20)
        scheduler.run_until(3.0)
        assert len(nodes["b"].inbox) < 5  # ~99% loss inside the window
        scheduler.run_until(5.0)
        before = len(nodes["b"].inbox)
        pump(scheduler, network, "a", "b", count=20)
        scheduler.run_until(6.0)
        assert len(nodes["b"].inbox) == before + 20  # overlay lifted

    def test_latency_burst_defers_delivery(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().latency(1.0, 5.0, 2.0, a="a", b="b").build())
        scheduler.run_until(2.0)
        pump(scheduler, network, "a", "b")
        scheduler.run_until(3.0)
        assert nodes["b"].inbox == []  # still in the extra-latency window
        scheduler.run_until(4.5)
        assert len(nodes["b"].inbox) == 1

    def test_duplication_burst_doubles_messages(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().duplicate(1.0, 4.0, 0.9, a="a", b="b").build())
        scheduler.run_until(2.0)
        pump(scheduler, network, "a", "b", count=10)
        scheduler.run_until(3.5)
        assert len(nodes["b"].inbox) > 10
        assert network.messages_duplicated > 0


class TestClockSkew:
    def test_skew_applied_and_reset(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(
            PlanBuilder().skew(1.0, "b", 2.5, until=3.0).build())
        scheduler.run_until(2.0)
        assert nodes["b"].clock_offset == 2.5
        scheduler.run_until(3.5)
        assert nodes["b"].clock_offset == 0.0


class TestSkewReachesNodeClocks:
    """An injected skew moves the clock the node itself reads: a device
    stamps what it issues, and a gateway records arrivals and evaluates
    credit, at the shared clock plus its offset."""

    @pytest.fixture()
    def system(self):
        system = BIoTSystem.build(BIoTConfig(
            device_count=1, gateway_count=1, seed=31,
            initial_difficulty=6, report_interval=2.0))
        system.initialize()
        return system

    def test_skewed_device_stamps_its_transactions(self, system):
        device = system.devices[0]
        gateway = system.network.node(device.gateway)
        clock = system.scheduler.clock
        stamped = []  # shared-clock time of each draft (PoW starts there)
        solve = device.engine.solve

        def recording_solve(challenge, difficulty):
            stamped.append(clock.now())
            return solve(challenge, difficulty)

        device.engine.solve = recording_solve
        FaultInjector(system.network).apply(
            PlanBuilder().skew(0.0, device.address, 1.5).build())
        device.start()
        system.run_for(12.0)
        issued = {tx.timestamp for tx in gateway.tangle
                  if tx.issuer.node_id == device.keypair.public.node_id}
        assert issued
        assert issued <= {at + 1.5 for at in stamped}

    def test_skewed_gateway_records_arrival_and_credit_time(self, system):
        device = system.devices[0]
        gateway = system.network.node(device.gateway)
        clock = system.scheduler.clock
        arrivals, evaluations = [], []
        apply = gateway.replica.apply
        required = gateway.consensus.required_difficulty

        def recording_apply(tx, arrival, *, admit):
            arrivals.append((clock.now(), arrival))
            return apply(tx, arrival, admit=admit)

        def recording_required(node_id, now):
            evaluations.append((clock.now(), now))
            return required(node_id, now)

        gateway.replica.apply = recording_apply
        gateway.consensus.required_difficulty = recording_required
        served = gateway.stats.tips_served
        FaultInjector(system.network).apply(
            PlanBuilder().skew(0.0, gateway.address, 2.0).build())
        device.start()
        system.run_for(12.0)
        assert arrivals
        assert all(arrival == at + 2.0 for at, arrival in arrivals)
        # Admission evaluates at the (earlier) ledger timestamp; every
        # evaluation at or past the shared clock is a tip request's
        # difficulty quote, read from the gateway's own clock.
        quotes = [(at, now) for at, now in evaluations if now >= at]
        assert len(quotes) == gateway.stats.tips_served - served > 0
        assert all(now == at + 2.0 for at, now in quotes)


class TestAuditAndMetrics:
    def test_injection_log_records_both_phases(self, fabric):
        scheduler, network, nodes = fabric
        injector = FaultInjector(network)
        injector.apply(PlanBuilder()
                       .partition(1.0, 2.0, ("a",), ("b",))
                       .skew(1.5, "c", 1.0, until=2.5)
                       .build())
        scheduler.run_until(5.0)
        actions = [action for _, action, _ in injector.injection_log]
        assert actions == ["inject:partition", "inject:clock_skew",
                           "heal:partition", "heal:clock_skew"]
        times = [t for t, _, _ in injector.injection_log]
        assert times == sorted(times)

    def test_unknown_event_type_rejected(self, fabric):
        _, network, _ = fabric
        injector = FaultInjector(network)

        class Bogus:
            at = 0.0
            kind = "bogus"

        with pytest.raises(TypeError):
            injector.apply(FaultPlan(events=(Bogus(),)))
