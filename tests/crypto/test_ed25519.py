"""Tests for repro.crypto.ed25519 against RFC 8032.

The vectors and the rejections run against the product and, through
the ``Oracle*`` subclasses, against the test oracle too.
"""

import pytest

from repro.crypto import ed25519
from repro.crypto.ed25519 import (
    PUBLIC_KEY_SIZE,
    SECRET_KEY_SIZE,
    SIGNATURE_SIZE,
    generate_secret_key,
    public_from_secret,
    sign,
    verify,
)

from . import ed25519_reference

# RFC 8032 §7.1 test vectors (secret, public, message, signature).
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


class TestRfc8032Vectors:
    impl = ed25519

    @pytest.mark.parametrize("secret_hex,public_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS)
    def test_public_key_derivation(self, secret_hex, public_hex, msg_hex, sig_hex):
        public = self.impl.public_from_secret(bytes.fromhex(secret_hex))
        assert public.hex() == public_hex

    @pytest.mark.parametrize("secret_hex,public_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS)
    def test_signature(self, secret_hex, public_hex, msg_hex, sig_hex):
        signature = self.impl.sign(bytes.fromhex(secret_hex),
                                   bytes.fromhex(msg_hex))
        assert signature.hex() == sig_hex

    @pytest.mark.parametrize("secret_hex,public_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS)
    def test_verification(self, secret_hex, public_hex, msg_hex, sig_hex):
        assert self.impl.verify(
            bytes.fromhex(public_hex),
            bytes.fromhex(msg_hex),
            bytes.fromhex(sig_hex),
        )


class TestVerificationRejections:
    impl = ed25519

    SECRET = bytes.fromhex(RFC8032_VECTORS[0][0])
    PUBLIC = bytes.fromhex(RFC8032_VECTORS[0][1])

    def test_rejects_modified_message(self):
        signature = self.impl.sign(self.SECRET, b"original")
        assert not self.impl.verify(self.PUBLIC, b"modified", signature)

    def test_rejects_modified_signature(self):
        signature = bytearray(self.impl.sign(self.SECRET, b"m"))
        signature[0] ^= 0x01
        assert not self.impl.verify(self.PUBLIC, b"m", bytes(signature))

    def test_rejects_wrong_public_key(self):
        other_public = self.impl.public_from_secret(
            generate_secret_key(seed=b"other"))
        signature = self.impl.sign(self.SECRET, b"m")
        assert not self.impl.verify(other_public, b"m", signature)

    def test_rejects_bad_lengths(self):
        signature = self.impl.sign(self.SECRET, b"m")
        assert not self.impl.verify(self.PUBLIC[:-1], b"m", signature)
        assert not self.impl.verify(self.PUBLIC, b"m", signature[:-1])

    def test_rejects_non_canonical_s(self):
        # s >= L must be rejected (malleability defence).
        signature = bytearray(self.impl.sign(self.SECRET, b"m"))
        signature[32:] = (b"\xff" * 32)
        assert not self.impl.verify(self.PUBLIC, b"m", bytes(signature))

    def test_rejects_garbage_point_encoding(self):
        assert not self.impl.verify(b"\xff" * 32, b"m", bytes(64))


class TestOracleRfc8032Vectors(TestRfc8032Vectors):
    impl = ed25519_reference


class TestOracleVerificationRejections(TestVerificationRejections):
    impl = ed25519_reference


class TestKeyGeneration:
    def test_seeded_is_deterministic(self):
        assert generate_secret_key(seed=b"s") == generate_secret_key(seed=b"s")

    def test_different_seeds_differ(self):
        assert generate_secret_key(seed=b"a") != generate_secret_key(seed=b"b")

    def test_unseeded_is_random(self):
        assert generate_secret_key() != generate_secret_key()

    def test_sizes(self):
        secret = generate_secret_key(seed=b"s")
        assert len(secret) == SECRET_KEY_SIZE
        assert len(public_from_secret(secret)) == PUBLIC_KEY_SIZE
        assert len(sign(secret, b"m")) == SIGNATURE_SIZE

    def test_secret_length_checked(self):
        with pytest.raises(ValueError):
            public_from_secret(b"short")

    def test_sign_verify_roundtrip_fresh_key(self):
        secret = generate_secret_key(seed=b"roundtrip")
        public = public_from_secret(secret)
        for message in (b"", b"a", b"x" * 1000):
            assert verify(public, message, sign(secret, message))

    def test_signature_is_deterministic(self):
        secret = generate_secret_key(seed=b"det")
        assert sign(secret, b"m") == sign(secret, b"m")
