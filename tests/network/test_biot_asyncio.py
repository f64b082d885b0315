"""BIoTSystem on the asyncio transport: the same synchronous surface as
on the simulator — build / initialize / start_devices / run_for /
summary / close — driving the full smart-factory workflow over
localhost TCP: devices submitting real sensor reports through gateways,
the manager distributing keys, every full node converging."""

import asyncio
import contextlib
import socket

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.core.workflow import run_workflow
from repro.faults.report import node_state_hashes


def tcp_system(**overrides):
    """A built (listening) TCP deployment that closes with the block."""
    defaults = dict(gateway_count=2, device_count=2, seed=7,
                    transport="asyncio", time_scale=20.0)
    return contextlib.closing(
        BIoTSystem.build(BIoTConfig(**{**defaults, **overrides})))


def settle(system, done, *, step=1.0, steps=100):
    """Let time pass in *step*-second slices until ``done()``."""
    for _ in range(steps):
        if done():
            return True
        system.run_for(step)
    return done()


class TestConfigValidation:
    def test_defaults_stay_on_the_simulator(self):
        config = BIoTConfig()
        assert config.transport == "sim"
        system = BIoTSystem.build(config)
        assert system.network is not None
        assert system.runners == []
        assert system.transports == [system.network]

    def test_unknown_transport_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="carrier-pigeon")

    def test_bad_time_scale_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="asyncio", time_scale=0.0)


class TestAsyncioDeployment:
    def test_build_gives_every_node_its_own_transport(self):
        with tcp_system(device_count=3, seed=5) as system:
            assert system.network is None
            # manager + gateways + devices, one runner each, one shared
            # directory.
            assert len(system.runners) == 1 + 2 + 3
            transports = system.transports
            assert len({id(t) for t in transports}) == len(system.runners)
            assert len({id(t.directory) for t in transports}) == 1

    def test_built_deployment_listens_on_distinct_ports(self):
        with tcp_system() as system:
            bound = {runner.node.address: runner.bound_address
                     for runner in system.runners}
            # Devices listen too: the manager dials them for Fig. 4.
            assert set(bound) == {n.address for n in
                                  system.full_nodes + system.devices}
            assert all(host == "127.0.0.1" for host, _ in bound.values())
            ports = [port for _, port in bound.values()]
            assert all(port > 0 for port in ports)
            assert len(set(ports)) == len(ports)  # all distinct, all real
            assert system.runners[0].transport.directory == bound

    def test_smart_factory_over_tcp(self):
        with tcp_system(device_count=4, seed=11,
                        report_interval=3.0) as system:
            report = run_workflow(system, report_seconds=30.0,
                                  settle_seconds=10.0)
            assert report.ok, report.format()
            assert [step.number for step in report.steps] == [1, 2, 3, 4, 5]
            # A report under way when the window closes (reading taken,
            # tips served, PoW still grinding) is not yet counted as
            # sent; stop the reporting loops and let every reading
            # taken land as an acceptance — "accepted == sent" alone
            # holds for an instant while such a report is mid-flight.
            for device in system.devices:
                device.stop()

            def every_reading_landed():
                summary = system.summary()
                return summary["submissions_accepted"] \
                    == summary["submissions_sent"] \
                    == sum(d.stats.readings_taken for d in system.devices)

            assert settle(system, every_reading_landed)
            system.run_for(2.0)  # the last acceptance's flood lands too
        summary = system.summary()
        assert summary["submissions_sent"] > 0
        assert summary["messages_dropped"] == 0
        # Key distribution reached the sensitive-data devices over TCP
        # (the manager dialled listeners the devices brought up).
        assert summary["key_distributions"] > 0
        # Every full node converged to the same state.
        assert len(set(summary["tangle_sizes"].values())) == 1
        hashes = {tuple(sorted(node_state_hashes(node).items()))
                  for node in system.full_nodes}
        assert len(hashes) == 1

    def test_plain_code_between_two_run_fors_reaches_the_wire(self):
        """No running loop between ``run_for`` calls, yet timers arm and
        frames queue: the scheduler knows the deployment's loop."""
        with tcp_system() as system:
            system.initialize()
            system.start_devices()
            system.run_for(6.0)
            for device in system.devices:
                device.stop()
            taken = sum(d.stats.readings_taken for d in system.devices)
            system.run_for(6.0)
            assert taken > 0
            assert taken == sum(d.stats.readings_taken
                                for d in system.devices)

            # Fig. 4 from plain code: the first frame is queued and
            # the manager's retransmit timer armed with no loop running.
            plain = next(d for d in system.devices if not d.sensor.sensitive)
            assert not plain.protector.has_key()
            system.manager.distribute_key(plain.address,
                                          plain.keypair.public)
            assert settle(system, plain.protector.has_key)

    def test_close_gives_back_loop_tasks_and_ports(self):
        with tcp_system() as system:
            system.initialize()
            system.start_devices()
            system.run_for(4.0)
            loop = system.scheduler.loop
            ports = [runner.bound_address[1] for runner in system.runners]
        # Closed mid-traffic: devices were still reporting.
        assert loop.is_closed()
        assert not asyncio.all_tasks(loop)
        assert not system.scheduler._handles  # every timer cancelled
        for port in ports:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5.0)
        system.close()  # second close: nothing left to release
