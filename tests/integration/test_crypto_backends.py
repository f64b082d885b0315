"""Whole-deployment differential test: accel backend vs reference.

The accel lane (fixed-base tables, batch verification, worker pool) is
only admissible if a full simulated deployment produces *bit-identical*
results: same tangle content on every replica, same ledger balances,
same statistics.  Sensitive-sensor payload encryption draws AES IVs
from the process randomness source, so the runs are pinned with
``rand.deterministic`` — exactly how ``repro trace`` achieves
byte-stable artifacts.
"""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.crypto import rand


def run_deployment(*, crypto_backend="reference", pow_workers=0,
                   seconds=8.0):
    """Run a small deployment and return its state fingerprint."""
    with rand.deterministic(b"crypto-backends:bit-identity"):
        config = BIoTConfig(
            device_count=3,
            gateway_count=2,
            seed=11,
            initial_difficulty=8,
            tip_alpha=0.05,
            crypto_backend=crypto_backend,
            pow_workers=pow_workers,
        )
        system = BIoTSystem.build(config)
        try:
            system.initialize()
            system.start_devices()
            system.run_for(seconds)
            fingerprint = {
                node.address: (
                    sorted(tx.full_digest for tx in node.tangle),
                    sorted(node.ledger._balances.items()),
                )
                for node in system.full_nodes
            }
        finally:
            system.close()
    return fingerprint


@pytest.fixture(scope="module")
def reference_fingerprint():
    return run_deployment()


class TestBitIdentity:
    def test_reference_run_is_repeatable(self, reference_fingerprint):
        assert run_deployment() == reference_fingerprint

    def test_accel_matches_reference(self, reference_fingerprint):
        assert run_deployment(
            crypto_backend="accel") == reference_fingerprint

    def test_accel_with_pool_matches_reference(self, reference_fingerprint):
        assert run_deployment(
            crypto_backend="accel",
            pow_workers=2) == reference_fingerprint

