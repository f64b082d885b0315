"""Tests for repro.crypto.x25519 against RFC 7748."""

import pytest

from repro.crypto.x25519 import (
    _P,
    X25519_KEY_SIZE,
    generate_private_key,
    public_from_private,
    x25519,
    x25519_base,
)


class TestRfc7748Vectors:
    def test_vector_1(self):
        scalar = bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
        u = bytes.fromhex(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
        assert x25519(scalar, u).hex() == (
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")

    def test_vector_2(self):
        scalar = bytes.fromhex(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
        u = bytes.fromhex(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
        assert x25519(scalar, u).hex() == (
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957")

    def test_alice_bob_public_keys(self):
        alice = bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
        bob = bytes.fromhex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
        assert x25519_base(alice).hex() == (
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        assert x25519_base(bob).hex() == (
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")

    def test_shared_secret_vector(self):
        alice = bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
        bob_public = bytes.fromhex(
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        assert x25519(alice, bob_public).hex() == (
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")


class TestDiffieHellman:
    def test_agreement(self):
        a = generate_private_key(seed=b"a")
        b = generate_private_key(seed=b"b")
        assert x25519(a, public_from_private(b)) == x25519(b, public_from_private(a))

    def test_distinct_peers_distinct_secrets(self):
        a = generate_private_key(seed=b"a")
        b = generate_private_key(seed=b"b")
        c = generate_private_key(seed=b"c")
        ab = x25519(a, public_from_private(b))
        ac = x25519(a, public_from_private(c))
        assert ab != ac

    def test_seeded_generation_is_deterministic(self):
        assert generate_private_key(seed=b"s") == generate_private_key(seed=b"s")

    def test_unseeded_generation_is_random(self):
        assert generate_private_key() != generate_private_key()

    def test_key_sizes(self):
        key = generate_private_key(seed=b"s")
        assert len(key) == X25519_KEY_SIZE
        assert len(public_from_private(key)) == X25519_KEY_SIZE


class TestInputValidation:
    def test_scalar_length_checked(self):
        with pytest.raises(ValueError):
            x25519(b"short", bytes(32))

    def test_u_length_checked(self):
        with pytest.raises(ValueError):
            x25519(bytes(32), b"short")

    def test_zero_point_rejected(self):
        # u = 0 is a low-order point: the ladder yields zero.
        with pytest.raises(ValueError):
            x25519(generate_private_key(seed=b"s"), bytes(32))

    def test_high_bit_of_u_is_masked(self):
        # RFC 7748: the top bit of the u-coordinate must be ignored.
        scalar = generate_private_key(seed=b"s")
        u = bytearray(public_from_private(generate_private_key(seed=b"t")))
        plain = x25519(scalar, bytes(u))
        u[31] |= 0x80
        assert x25519(scalar, bytes(u)) == plain


_A = 486662  # Curve25519: v^2 = u^3 + A*u^2 + u


def _is_low_order(u):
    """Whether ``8 * (u : 1)`` is the point at infinity, by three
    x-only doublings (on the curve or its twist)."""
    x, z = u % _P, 1
    for _ in range(3):
        xx, zz = x * x % _P, z * z % _P
        x, z = ((xx - zz) ** 2 % _P,
                4 * x * z * (xx + _A * x * z + zz) % _P)
    return z == 0


LOW_ORDER_U = [
    0,
    1,
    _P - 1,
    # the two order-8 points of Curve25519
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P,          # non-canonical 0
    _P + 1,      # non-canonical 1
]


class TestLowOrderInputs:
    @pytest.mark.parametrize("u", LOW_ORDER_U)
    def test_every_low_order_u_is_the_zero_point(self, u):
        assert _is_low_order(u)
        encoded = u.to_bytes(X25519_KEY_SIZE, "little")
        for seed in (b"s", b"t"):
            with pytest.raises(ValueError, match="zero point"):
                x25519(generate_private_key(seed=seed), encoded)

    def test_a_point_of_large_order_is_not(self):
        assert not _is_low_order(9)
