"""Tests for repro.core.biot (the system facade).

These use a low initial difficulty so real PoW stays cheap; difficulty
*dynamics* (relative to credit) are unaffected by the absolute level.
"""

import pytest

from repro.core.authority import DataProtector
from repro.core.biot import BIoTConfig, BIoTSystem

CONFIG = BIoTConfig(device_count=4, gateway_count=2, seed=11,
                    initial_difficulty=6, report_interval=2.0)


@pytest.fixture(scope="module")
def running_system():
    system = BIoTSystem.build(CONFIG)
    system.initialize()
    system.start_devices()
    system.run_for(40.0)
    return system


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BIoTConfig(gateway_count=0)
        with pytest.raises(ValueError):
            BIoTConfig(device_count=0)
        with pytest.raises(ValueError):
            BIoTConfig(sensor_cycle=("radar",))

    def test_build_is_deterministic(self):
        a = BIoTSystem.build(BIoTConfig(seed=5))
        b = BIoTSystem.build(BIoTConfig(seed=5))
        assert a.manager.acl.manager == b.manager.acl.manager
        assert ([d.keypair.node_id for d in a.devices]
                == [d.keypair.node_id for d in b.devices])

    def test_different_seeds_differ(self):
        a = BIoTSystem.build(BIoTConfig(seed=5))
        b = BIoTSystem.build(BIoTConfig(seed=6))
        assert a.manager.acl.manager != b.manager.acl.manager


class TestTopology:
    def test_node_counts(self):
        system = BIoTSystem.build(CONFIG)
        assert len(system.gateways) == 2
        assert len(system.devices) == 4
        assert len(system.network._nodes) == 1 + 2 + 4

    def test_full_mesh_peers(self):
        system = BIoTSystem.build(CONFIG)
        full_nodes = [system.manager] + system.gateways
        for node in full_nodes:
            expected_peers = {n.address for n in full_nodes} - {node.address}
            assert set(node.relay.peers) == expected_peers

    def test_devices_assigned_round_robin(self):
        system = BIoTSystem.build(CONFIG)
        gateways_used = {d.gateway for d in system.devices}
        assert gateways_used == {"gateway-0", "gateway-1"}

    def test_genesis_shared_by_all_replicas(self):
        system = BIoTSystem.build(CONFIG)
        hashes = {n.tangle.genesis.tx_hash
                  for n in [system.manager] + system.gateways}
        assert len(hashes) == 1

    def test_token_allocations_in_ledger(self):
        system = BIoTSystem.build(CONFIG)
        for keys in system.device_keys.values():
            assert (system.manager.ledger.balance(keys.node_id)
                    == CONFIG.token_allocation)


class TestConfigurationVariants:
    def test_mcmc_tip_selection_system(self):
        """tip_alpha switches gateways to the weighted MCMC walk; the
        system still converges and serves everyone."""
        system = BIoTSystem.build(BIoTConfig(
            device_count=3, gateway_count=2, seed=61,
            initial_difficulty=6, report_interval=2.0, tip_alpha=0.5,
        ))
        from repro.tangle.tip_selection import WeightedRandomWalkSelector
        assert isinstance(system.gateways[0].tip_selector,
                          WeightedRandomWalkSelector)
        system.initialize()
        system.start_devices()
        system.run_for(30.0)
        for device in system.devices:
            assert device.stats.submissions_accepted > 0
        system.run_for(5.0)
        sizes = {n.tangle_size for n in [system.manager] + system.gateways}
        assert len(sizes) == 1

    def test_enforce_pow_disabled_mode(self):
        """Pure-simulation sweeps skip nonce verification but keep every
        other rule; the system behaves identically otherwise."""
        system = BIoTSystem.build(BIoTConfig(
            device_count=2, gateway_count=1, seed=62,
            initial_difficulty=6, report_interval=2.0, enforce_pow=False,
        ))
        system.initialize()
        system.start_devices()
        system.run_for(20.0)
        assert all(d.stats.submissions_accepted > 0 for d in system.devices)

    def test_custom_credit_params_flow_through(self):
        from repro.core.credit import CreditParameters
        params = CreditParameters(lambda2=2.0, delta_t=10.0)
        system = BIoTSystem.build(BIoTConfig(
            device_count=1, gateway_count=1, seed=63,
            credit_params=params,
        ))
        assert system.gateways[0].consensus.registry.params.lambda2 == 2.0
        assert system.gateways[0].consensus.max_parent_age == 10.0


class TestRunningSystem:
    def test_all_devices_report(self, running_system):
        for device in running_system.devices:
            assert device.stats.submissions_accepted > 0

    def test_replicas_converge(self, running_system):
        # Let in-flight gossip settle before comparing replicas.
        running_system.run_for(5.0)
        sizes = {n.address: n.tangle_size
                 for n in [running_system.manager] + running_system.gateways}
        assert len(set(sizes.values())) == 1, sizes

    def test_sensitive_devices_have_keys(self, running_system):
        for device in running_system.devices:
            if device.sensor.sensitive:
                assert device.protector.has_key()

    def test_sensitive_payloads_encrypted_on_ledger(self, running_system):
        gateway = running_system.gateways[0]
        sensitive_issuers = {
            d.keypair.node_id for d in running_system.devices
            if d.sensor.sensitive
        }
        found_encrypted = 0
        for tx in gateway.tangle:
            if tx.kind == "data" and tx.issuer.node_id in sensitive_issuers:
                assert DataProtector.is_encrypted(tx.payload)
                found_encrypted += 1
        assert found_encrypted > 0

    def test_plain_payloads_for_non_sensitive(self, running_system):
        gateway = running_system.gateways[0]
        plain_issuers = {
            d.keypair.node_id for d in running_system.devices
            if not d.sensor.sensitive
        }
        found_plain = 0
        for tx in gateway.tangle:
            if tx.kind == "data" and tx.issuer.node_id in plain_issuers:
                assert not DataProtector.is_encrypted(tx.payload)
                found_plain += 1
        assert found_plain > 0

    def test_manager_can_decrypt_sensitive_data(self, running_system):
        authority = DataProtector({
            "sensitive": running_system.manager.distributor.group_key()
        })
        gateway = running_system.gateways[1]
        decrypted = 0
        for tx in gateway.tangle:
            if tx.kind == "data" and DataProtector.is_encrypted(tx.payload):
                reading = authority.unprotect(tx.payload)
                assert reading.sensitive
                decrypted += 1
        assert decrypted > 0

    def test_active_devices_get_cheaper_pow(self, running_system):
        for device in running_system.devices:
            difficulties = device.stats.assigned_difficulties
            assert difficulties[0] == CONFIG.initial_difficulty
            assert difficulties[-1] < CONFIG.initial_difficulty

    def test_summary_fields(self, running_system):
        summary = running_system.summary()
        assert summary["devices"] == 4
        assert summary["submissions_accepted"] > 0
        assert summary["key_distributions"] == sum(
            1 for d in running_system.devices if d.sensor.sensitive
        )
