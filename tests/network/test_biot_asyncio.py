"""BIoTSystem on the asyncio transport: config validation, mode
guards, and the full smart-factory workflow end to end over localhost
TCP — devices submitting real sensor reports through gateways, the
manager distributing keys, every full node converging."""

import asyncio

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.faults.report import node_state_hashes


class TestConfigValidation:
    def test_defaults_stay_on_the_simulator(self):
        config = BIoTConfig()
        assert config.transport == "sim"
        system = BIoTSystem.build(config)
        assert system.network is not None
        assert system.runners is None
        assert not system.asyncio_mode

    def test_unknown_transport_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="carrier-pigeon")

    def test_bad_time_scale_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="asyncio", time_scale=0.0)

    def test_bad_listen_port_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="asyncio", listen_base_port=70000)

    def test_discovery_seeds_require_the_asyncio_transport(self):
        with pytest.raises(ValueError):
            BIoTConfig(discovery_seeds=("n0=127.0.0.1:4100",))

    def test_malformed_discovery_seed_refused(self):
        with pytest.raises(ValueError):
            BIoTConfig(transport="asyncio",
                       discovery_seeds=("n0@127.0.0.1:4100",))


class TestModeGuards:
    def test_sim_system_rejects_async_methods(self, fleet_sandbox):
        system = BIoTSystem.build(BIoTConfig(seed=3))

        async def call_start():
            await system.start_fleet()

        with pytest.raises(RuntimeError):
            fleet_sandbox.run(call_start())

    def test_asyncio_system_rejects_sim_methods(self):
        system = BIoTSystem.build(BIoTConfig(seed=3, transport="asyncio"))
        with pytest.raises(RuntimeError):
            system.initialize()
        with pytest.raises(RuntimeError):
            system.run_for(1.0)


class TestAsyncioDeployment:
    def test_build_gives_every_node_its_own_transport(self):
        config = BIoTConfig(gateway_count=2, device_count=3, seed=5,
                            transport="asyncio")
        system = BIoTSystem.build(config)
        assert system.network is None
        assert system.asyncio_mode
        # manager + gateways + devices, one runner each, one shared
        # directory.
        assert len(system.runners) == 1 + 2 + 3
        transports = {id(r.transport) for r in system.runners}
        assert len(transports) == len(system.runners)
        directories = {id(r.transport.directory) for r in system.runners}
        assert len(directories) == 1

    def test_discovery_seeds_wire_a_service_per_full_node(self):
        config = BIoTConfig(gateway_count=2, seed=5, transport="asyncio",
                            discovery_seeds=("ext=127.0.0.1:4100",))
        system = BIoTSystem.build(config)
        # One DiscoveryService per full node (manager + gateways),
        # each priming its own transport's directory with the seed.
        assert len(system.discovery) == 1 + 2
        for service in system.discovery:
            assert not service.bootstrapped  # start_fleet hellos later
            assert service.transport.directory["ext"] == \
                ("127.0.0.1", 4100)

    def test_listen_addresses_surface_bound_ports(self, fleet_sandbox):
        config = BIoTConfig(gateway_count=2, device_count=2, seed=7,
                            transport="asyncio", time_scale=20.0)
        system = BIoTSystem.build(config)

        async def scenario():
            try:
                await system.start_fleet()
                return system.listen_addresses()
            finally:
                await system.stop_fleet()
                system.close()

        bound = fleet_sandbox.run(scenario())
        full_addresses = {node.address for node in system.full_nodes}
        assert full_addresses <= set(bound)
        ports = [port for _, port in bound.values()]
        assert all(port > 0 for port in ports)
        assert len(set(ports)) == len(ports)  # all distinct, all real

    def test_smart_factory_over_tcp(self, fleet_sandbox):
        config = BIoTConfig(gateway_count=2, device_count=4, seed=11,
                            transport="asyncio", time_scale=20.0,
                            report_interval=3.0)
        system = BIoTSystem.build(config)

        async def scenario():
            try:
                await system.start_fleet()
                await system.initialize_async(settle_seconds=2.0)
                system.start_devices()
                await system.run_for_async(15.0)
                # A report under way when the window closes (reading
                # taken, tips served, PoW still grinding) is not yet
                # counted as sent; stop the reporting loops and let
                # every reading taken land as an acceptance instead of
                # racing the fleet stop — "accepted == sent" alone holds
                # for an instant while such a report is mid-flight.
                for device in system.devices:
                    device.stop()
                for _ in range(200):
                    interim = system.summary()
                    taken = sum(device.stats.readings_taken
                                for device in system.devices)
                    if interim["submissions_accepted"] == \
                            interim["submissions_sent"] == taken:
                        break
                    await asyncio.sleep(0.05)
            finally:
                await system.stop_fleet()
                system.close()
            return system.summary()

        summary = fleet_sandbox.run(scenario(), timeout=120.0)
        assert summary["submissions_sent"] > 0
        assert summary["submissions_accepted"] == \
            summary["submissions_sent"]
        assert summary["messages_dropped"] == 0
        # Key distribution reached the sensitive-data devices over TCP
        # (the manager dialled listeners the devices brought up).
        assert summary["key_distributions"] > 0
        # Every full node converged to the same state.
        sizes = set(summary["tangle_sizes"].values())
        assert len(sizes) == 1
        hashes = {canonical(node)
                  for node in system.full_nodes}
        assert len(hashes) == 1


def canonical(node):
    return tuple(sorted(node_state_hashes(node).items()))
