"""Split-brain integration test: partition the backbone, let both
halves grow independently, heal, reconcile, verify convergence.

This is the strongest consistency scenario the substrate supports: the
DAG has no fork-choice to run (both halves' transactions are valid and
merge), the ledger arbitration is deterministic, and anti-entropy sync
must stitch the halves back together in both directions.
"""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.crypto import rand

SEED = 131


@pytest.fixture()
def system():
    # The whole test, body included, runs on a randomness source keyed
    # by its seed (AES IVs among it), so its outcome does not depend on
    # what earlier tests drew from the process-wide source.
    with rand.deterministic(f"partition:{SEED}".encode()):
        system = BIoTSystem.build(BIoTConfig(
            device_count=4, gateway_count=2, seed=SEED,
            initial_difficulty=6, report_interval=1.5,
        ))
        system.initialize()
        for device in system.devices:
            device.start()
        system.run_for(15.0)
        yield system


def partition(system):
    """Cut gateway-0 off from the other full nodes (manager stays with
    gateway-1's side)."""
    system.network.cut_link("gateway-0", "gateway-1")
    system.network.cut_link("gateway-0", "manager")


def heal(system):
    system.network.heal_link("gateway-0", "gateway-1")
    system.network.heal_link("gateway-0", "manager")


class TestPartitionAndHeal:
    def test_both_halves_keep_serving(self, system):
        partition(system)
        before = {d.address: d.stats.submissions_accepted
                  for d in system.devices}
        system.run_for(20.0)
        # Devices on both sides of the cut keep getting service from
        # their own gateway (partition tolerance).
        for device in system.devices:
            assert device.stats.submissions_accepted > before[device.address]

    def test_halves_diverge_then_converge(self, system):
        g0, g1 = system.gateways
        partition(system)
        system.run_for(20.0)
        set0 = {tx.tx_hash for tx in g0.tangle}
        set1 = {tx.tx_hash for tx in g1.tangle}
        assert set0 - set1 and set1 - set0  # genuine divergence
        heal(system)
        # Bidirectional anti-entropy; two rounds to sweep up traffic
        # that lands during reconciliation.
        for _ in range(2):
            g0.request_sync(g1.address)
            g1.request_sync(g0.address)
            system.run_for(2.0)
        system.run_for(3.0)
        set0 = {tx.tx_hash for tx in g0.tangle}
        set1 = {tx.tx_hash for tx in g1.tangle}
        assert len(set0.symmetric_difference(set1)) <= 3  # in-flight slack
        assert len(g0.lane.solidification) == 0
        assert len(g1.lane.solidification) == 0

    def test_manager_side_state_propagates_after_heal(self, system):
        """An ACL revocation issued during the partition reaches the
        isolated gateway once healed and synced."""
        partition(system)
        victim = system.devices[0]  # homed on gateway-0 (isolated side)
        assert victim.gateway == "gateway-0"
        system.manager.deauthorize_devices([victim.keypair.public])
        system.run_for(10.0)
        g0 = system.gateways[0]
        # The isolated gateway still serves the victim (it cannot know).
        assert g0.acl.is_authorized_device(victim.keypair.node_id)
        heal(system)
        g0.request_sync("manager")
        system.run_for(3.0)
        assert not g0.acl.is_authorized_device(victim.keypair.node_id)

    def test_weights_agree_after_reconciliation(self, system):
        g0, g1 = system.gateways
        partition(system)
        system.run_for(15.0)
        heal(system)
        for _ in range(2):
            g0.request_sync(g1.address)
            g1.request_sync(g0.address)
            system.run_for(2.0)
        for device in system.devices:
            device.stop()
        system.run_for(8.0)  # drain in-flight traffic completely
        g0.request_sync(g1.address)
        g1.request_sync(g0.address)
        system.run_for(3.0)
        set0 = {tx.tx_hash for tx in g0.tangle}
        set1 = {tx.tx_hash for tx in g1.tangle}
        for tx_hash in set0 & set1:
            assert g0.tangle.weight(tx_hash) == g1.tangle.weight(tx_hash)
        assert set0 == set1
