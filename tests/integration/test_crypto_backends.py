"""Whole-deployment differential test: the product Ed25519 vs the oracle.

The table-driven signature code in :mod:`repro.crypto.ed25519` is only
admissible if a full simulated deployment produces *bit-identical*
results when every signature is made and checked by the straight-line
RFC 8032 oracle instead: same tangle content on every replica, same
ledger balances.  The oracle run patches the four functions every
caller reaches — key derivation, signing, single and batch verify — so
light nodes, keydist, gateways and the batch lane all run on it.
Sensitive-sensor payload encryption draws AES IVs from the process
randomness source, so the runs are pinned with ``rand.deterministic`` —
exactly how ``repro trace`` achieves byte-stable artifacts.
"""

import pytest

from repro.core.biot import BIoTConfig, BIoTSystem
from repro.crypto import ed25519, rand

from ..crypto import ed25519_reference

PATCHED = ("public_from_secret", "sign", "verify", "verify_batch")


def run_deployment(seconds=8.0):
    """Run a small deployment and return its state fingerprint."""
    with rand.deterministic(b"crypto-backends:bit-identity"):
        config = BIoTConfig(
            device_count=3,
            gateway_count=2,
            seed=11,
            initial_difficulty=8,
            tip_alpha=0.05,
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
def product_fingerprint():
    return run_deployment()


class TestBitIdentity:
    def test_product_run_is_repeatable(self, product_fingerprint):
        assert run_deployment() == product_fingerprint

    def test_oracle_matches_product(self, product_fingerprint, monkeypatch):
        for name in PATCHED:
            monkeypatch.setattr(ed25519, name,
                                getattr(ed25519_reference, name))
        oracle = run_deployment()
        assert all(len(tangle) > 5 for tangle, _ in oracle.values())
        assert oracle == product_fingerprint
