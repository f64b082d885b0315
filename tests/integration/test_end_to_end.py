"""Cross-module integration tests: the whole paper's system at once.

These scenarios combine the credit mechanism, the ACL, the data
authority layer, the tangle replicas and the attack harnesses the way
the evaluation section uses them, and assert the end-to-end properties
the paper claims (Section VI-C security analysis).
"""

import random

import pytest

from repro.attacks.double_spend import DoubleSpendAttacker
from repro.attacks.lazy_tips import LazyLightNode
from repro.core.authority import DataProtector
from repro.core.biot import BIoTConfig, BIoTSystem
from repro.core.workflow import run_workflow
from repro.crypto.keys import KeyPair
from repro.devices.sensors import TemperatureSensor


@pytest.fixture(scope="module")
def busy_system():
    """A system that ran the full workflow plus 60 s of reporting."""
    system = BIoTSystem.build(BIoTConfig(
        device_count=5, gateway_count=3, seed=91,
        initial_difficulty=6, report_interval=2.0,
    ))
    report = run_workflow(system, report_seconds=60.0)
    assert report.ok, report.format()
    system.run_for(5.0)  # let gossip settle
    return system


class TestReplication:
    def test_all_replicas_identical(self, busy_system):
        full_nodes = [busy_system.manager] + busy_system.gateways
        hash_sets = [
            {tx.tx_hash for tx in node.tangle} for node in full_nodes
        ]
        assert all(h == hash_sets[0] for h in hash_sets[1:])

    def test_weights_agree_across_replicas(self, busy_system):
        a, b = busy_system.gateways[0], busy_system.gateways[1]
        for tx in a.tangle:
            assert a.tangle.weight(tx.tx_hash) == b.tangle.weight(tx.tx_hash)

    def test_acl_state_agrees(self, busy_system):
        full_nodes = [busy_system.manager] + busy_system.gateways
        device_lists = [n.acl.authorized_devices() for n in full_nodes]
        assert all(lst == device_lists[0] for lst in device_lists)

    def test_old_transactions_confirm(self, busy_system):
        gateway = busy_system.gateways[0]
        confirmed = gateway.confirmed_count(threshold=5)
        assert confirmed > 0


class TestDataConfidentiality:
    def test_unauthorized_reader_sees_only_ciphertext(self, busy_system):
        gateway = busy_system.gateways[0]
        encrypted = [tx.payload for tx in gateway.tangle
                     if DataProtector.is_encrypted(tx.payload)]
        assert encrypted
        outsider = DataProtector()
        for payload in encrypted:
            with pytest.raises(KeyError):
                outsider.unprotect(payload)

    def test_key_holder_reads_from_any_replica(self, busy_system):
        authority = DataProtector({
            "sensitive": busy_system.manager.distributor.group_key()
        })
        for gateway in busy_system.gateways:
            readings = [
                authority.unprotect(tx.payload) for tx in gateway.tangle
                if DataProtector.is_encrypted(tx.payload)
            ]
            assert readings
            assert all(r.sensitive for r in readings)

    def test_plaintext_readings_decode_for_anyone(self, busy_system):
        gateway = busy_system.gateways[0]
        anyone = DataProtector()
        plain = [
            anyone.unprotect(tx.payload) for tx in gateway.tangle
            if tx.kind == "data" and not DataProtector.is_encrypted(tx.payload)
        ]
        assert plain
        assert all(not r.sensitive for r in plain)


class TestCombinedAttack:
    """Lazy node + double spender active at once, honest traffic on top."""

    @pytest.fixture(scope="class")
    def battlefield(self):
        system = BIoTSystem.build(BIoTConfig(
            device_count=3, gateway_count=2, seed=92,
            initial_difficulty=6, report_interval=2.0,
        ))
        lazy_keys = KeyPair.generate(seed=b"e2e-lazy")
        lazy = LazyLightNode(
            "lazy", lazy_keys, gateway="gateway-0",
            manager=system.manager.acl.manager,
            sensor=TemperatureSensor(seed=7), report_interval=2.0,
            rng=random.Random(1),
            fixed_branch=system.manager.tangle.genesis.tx_hash,
        )
        system.network.attach(lazy)
        spender_keys = KeyPair.generate(seed=b"e2e-spender")
        spender = DoubleSpendAttacker(
            "spender", spender_keys,
            gateways=["gateway-0", "gateway-1"],
            recipients=[k.public for k in system.device_keys.values()][:2],
            attack_interval=10.0, rng=random.Random(2),
        )
        system.network.attach(spender)
        system.manager.authorize_devices(
            [k.public for k in system.device_keys.values()]
            + [lazy_keys.public, spender_keys.public]
        )
        for node in [system.manager] + system.gateways:
            node.ledger.credit(spender_keys.node_id, 50)
        for device in system.devices:
            if device.sensor.sensitive:
                system.manager.distribute_key(device.address,
                                              device.keypair.public)
        system.run_for(2.0)
        for device in system.devices:
            device.start()
        lazy.start()
        spender.start()
        system.run_for(120.0)
        return system, lazy, spender

    def test_both_attackers_punished(self, battlefield):
        system, lazy, spender = battlefield
        views = [system.manager] + system.gateways
        assert any(
            n.consensus.registry.malicious_count(lazy.keypair.node_id) > 0
            for n in views
        )
        assert any(
            n.consensus.registry.malicious_count(spender.keypair.node_id) > 0
            for n in views
        )

    def test_honest_devices_cheaper_than_lazy(self, battlefield):
        """Honest traffic flows and pays far less PoW per transaction
        than the punished lazy node.  (Accepted *counts* are similar at
        this report interval — the punished PoW still fits inside it —
        so the discriminating quantity is cost, as in Fig. 9.)"""
        system, lazy, spender = battlefield
        assert min(d.stats.submissions_accepted for d in system.devices) > 0
        honest_cost = max(d.stats.mean_pow_seconds for d in system.devices)
        half = len(lazy.stats.pow_times) // 2
        lazy_cost = (sum(lazy.stats.pow_times[half:])
                     / len(lazy.stats.pow_times[half:]))
        assert lazy_cost > 3 * honest_cost

    def test_ledger_consistency_under_attack(self, battlefield):
        system, _, spender = battlefield
        balances = {
            node.address: node.ledger.balance(spender.keypair.node_id)
            for node in [system.manager] + system.gateways
        }
        assert all(balance >= 0 for balance in balances.values())

    def test_honest_difficulty_stays_low(self, battlefield):
        system, lazy, _ = battlefield
        for device in system.devices:
            assert device.stats.assigned_difficulties[-1] <= 6
        assert max(lazy.stats.assigned_difficulties) > 6

    def test_replicas_converge_despite_conflicts(self, battlefield):
        """Regression: conflicting transfers must not strand descendants
        in solidification buffers or fork the replicas' DAGs."""
        system, lazy, spender = battlefield
        # Stop every source first: with submissions still arriving, a
        # replica can hold one transaction its peers have not yet heard
        # of, and the comparison would race the gossip.
        for source in system.devices + [lazy, spender]:
            source.stop()
        system.run_for(10.0)  # settle in-flight gossip
        full_nodes = [system.manager] + system.gateways
        hash_sets = [{tx.tx_hash for tx in n.tangle} for n in full_nodes]
        assert all(h == hash_sets[0] for h in hash_sets[1:])
        for node in full_nodes:
            assert len(node.solidification) == 0

    def test_conflict_winner_agrees_across_replicas(self, battlefield):
        system, _, spender = battlefield
        winners = [
            {seq: node.ledger.spent_tx(spender.keypair.node_id, seq)
             for seq in range(spender.stats.rounds_started)}
            for node in [system.manager] + system.gateways
        ]
        # Every replica that has resolved a sequence agrees on the winner.
        for seq in range(spender.stats.rounds_started):
            resolved = {w[seq] for w in winners if w[seq] is not None}
            assert len(resolved) <= 1
