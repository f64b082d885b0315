"""Tests for repro.nodes.manager."""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.crypto.keys import KeyPair
from repro.nodes.manager import ManagerNode
from repro.tangle.transaction import TransactionKind


def build_system(**overrides):
    config = dict(device_count=3, gateway_count=2, seed=41,
                  initial_difficulty=6, report_interval=2.0)
    config.update(overrides)
    return BIoTSystem.build(BIoTConfig(**config))


class TestGenesisCreation:
    def test_genesis_embeds_manager(self):
        keys = KeyPair.generate(seed=b"mgr-genesis")
        genesis = ManagerNode.create_genesis(keys, network_name="plant")
        from repro.core.acl import GenesisConfig
        config = GenesisConfig.from_genesis(genesis)
        assert config.manager == keys.public
        assert config.network_name == "plant"

    def test_wrong_keypair_rejected(self):
        keys = KeyPair.generate(seed=b"mgr-a")
        other = KeyPair.generate(seed=b"mgr-b")
        genesis = ManagerNode.create_genesis(keys)
        with pytest.raises(ValueError, match="trust anchor"):
            ManagerNode("m", other, genesis)


class TestDeviceManagement:
    def test_authorize_devices_propagates(self):
        system = build_system()
        tx = system.manager.authorize_devices(
            [k.public for k in system.device_keys.values()]
        )
        assert tx.kind == TransactionKind.ACL
        system.run_for(2.0)
        for gateway in system.gateways:
            for keys in system.device_keys.values():
                assert gateway.acl.is_authorized_device(keys.node_id)

    def test_deauthorize_revokes_service(self):
        system = build_system()
        system.initialize()
        device = system.devices[0]
        device.start()
        system.run_for(10.0)
        accepted_before = device.stats.submissions_accepted
        assert accepted_before > 0
        system.manager.deauthorize_devices([device.keypair.public])
        system.run_for(3.0)  # let the revocation gossip
        refused_before = device.stats.tips_refused
        system.run_for(15.0)
        assert device.stats.tips_refused > refused_before
        assert device.stats.submissions_accepted <= accepted_before + 2

    def test_register_gateways(self):
        system = build_system()
        system.manager.register_gateways(
            [k.public for k in system.gateway_keys.values()]
        )
        system.run_for(2.0)
        for gateway in system.gateways:
            for keys in system.gateway_keys.values():
                assert gateway.acl.is_registered_gateway(keys.node_id)

    def test_manager_transactions_follow_tangle_rules(self):
        system = build_system()
        tx = system.manager.authorize_devices(
            [list(system.device_keys.values())[0].public]
        )
        assert tx.verify_pow()
        assert tx.verify_signature()
        assert tx.branch in system.manager.tangle
        assert tx.trunk in system.manager.tangle


class TestKeyDistribution:
    def test_distributes_over_network(self):
        system = build_system()
        system.manager.authorize_devices(
            [k.public for k in system.device_keys.values()]
        )
        system.run_for(1.0)
        sensitive = [d for d in system.devices if d.sensor.sensitive]
        for device in sensitive:
            system.manager.distribute_key(device.address, device.keypair.public)
        system.run_for(2.0)
        for device in sensitive:
            assert device.protector.has_key()
        assert system.manager.distributor.completed_distributions \
            >= len(sensitive)

    def test_m2_from_wrong_sender_ignored(self):
        system = build_system()
        device = system.devices[0]
        # Crash the device so the genuine M1 is never answered; only the
        # forged M2 reaches the manager.
        system.network.take_down(device.address)
        system.manager.distribute_key(device.address, device.keypair.public)
        session_id = next(iter(system.manager._keydist_sessions))
        system.network.send("gateway-0", "manager", "keydist_m2",
                            {"session_id": session_id, "m2": b"junk"})
        system.run_for(1.0)
        assert system.manager.distributor.completed_distributions == 0
