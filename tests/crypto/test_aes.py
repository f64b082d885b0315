"""Tests for repro.crypto.aes against FIPS-197 / NIST SP 800-38A."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import AES, ctr_decrypt, ctr_encrypt

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

SP800_38A_PLAINTEXT = [
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
]


def brute_force_sbox():
    """The S-box with every field inverse found by
    search (~23 000 multiplications): the oracle for the log/antilog
    build the module runs at import."""
    inverse = [0] * 256
    for x in range(1, 256):
        if inverse[x]:
            continue
        for y in range(1, 256):
            if aes._gf_mul(x, y) == 1:
                inverse[x] = y
                inverse[y] = x
                break
    sbox = [0] * 256
    for x in range(256):
        value = inverse[x]
        result = 0x63
        for shift in range(5):
            result ^= ((value << shift) | (value >> (8 - shift))) & 0xFF
        sbox[x] = result
    return sbox


class TestTables:
    def test_sbox_equals_the_brute_force_oracle(self):
        assert aes._SBOX == brute_force_sbox()


class TestKeyScheduleCost:
    """Construction is the forward key expansion only: S-box lookups,
    no field multiplication.  An inverse schedule (InvMixColumns over
    every inner round key) would cost 576 / 704 / 832 ``_gf_mul`` calls
    for 16- / 24- / 32-byte keys on every ``AES(key)``, i.e. on every
    sealed reading."""

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_construction_makes_no_field_multiplication(self, key_size, monkeypatch):
        calls = []
        real = aes._gf_mul

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(aes, "_gf_mul", counting)
        AES(bytes(range(key_size)))
        assert len(calls) == 0


class TestBlockCipherVectors:
    """FIPS-197 Appendix C known-answer tests."""

    def test_aes128_fips197(self):
        cipher = AES(bytes(range(16)))
        assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_aes192_fips197(self):
        cipher = AES(bytes(range(24)))
        assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == (
            "dda97ca4864cdfe06eaf70a0ec0d7191"
        )

    def test_aes256_fips197(self):
        cipher = AES(bytes(range(32)))
        assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == (
            "8ea2b7ca516745bfeafc49904b496089"
        )

    @pytest.mark.parametrize("key, ciphertexts", [
        # F.1.1 ECB-AES128.Encrypt
        ("2b7e151628aed2a6abf7158809cf4f3c", [
            "3ad77bb40d7a3660a89ecaf32466ef97",
            "f5d3d58503b9699de785895a96fdbaaf",
            "43b1cd7f598ece23881b00e3ed030688",
            "7b0c785e27e8ad3f8223207104725dd4",
        ]),
        # F.1.3 ECB-AES192.Encrypt
        ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b", [
            "bd334f1d6e45f25ff712a214571fa5cc",
            "974104846d0ad3ad7734ecb3ecee4eef",
            "ef7afd2270e2e60adce0ba2face6444e",
            "9a4b41ba738d6c72fb16691603c18e0e",
        ]),
        # F.1.5 ECB-AES256.Encrypt
        ("603deb1015ca71be2b73aef0857d7781"
         "1f352c073b6108d72d9810a30914dff4", [
            "f3eed1bdb5d2a03c064b5a7e3db181f8",
            "591ccb10d410ed26dc5ba74a31362870",
            "b6ed21b99ca6f4f9f153e7b1beafed1d",
            "23304b7a39f9f3ff067d8d8f9e24ecc7",
        ]),
    ], ids=["F.1.1-aes128", "F.1.3-aes192", "F.1.5-aes256"])
    def test_sp800_38a_ecb_encrypt(self, key, ciphertexts):
        """NIST SP 800-38A Appendix F.1: four blocks per key size."""
        cipher = AES(bytes.fromhex(key))
        for plaintext, expected in zip(SP800_38A_PLAINTEXT, ciphertexts):
            assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == expected

    def test_rounds_per_key_size(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14


class TestBlockCipherErrors:
    def test_bad_key_size(self):
        with pytest.raises(ValueError):
            AES(bytes(15))

    def test_bad_block_size_encrypt(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"short")


class TestCtrMode:
    KEY = bytes(range(32))
    NONCE = b"12345678"

    @pytest.mark.parametrize("key, expected", [
        ("2b7e151628aed2a6abf7158809cf4f3c",
         "67ee05547499f8bcf0c38324e8605c28018216a5f4dac1af7e12ae7a0c2e3e9f"
         "13e8bc4a3757a548139805cf9563140d2f88"),
        ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
         "2ab8bee6a2b14426c9cdeab43220aa2953469708f344364f339af8f725e3a241"
         "7276437df140d25c4b1ea15a3b9de29ff317"),
        ("603deb1015ca71be2b73aef0857d7781"
         "1f352c073b6108d72d9810a30914dff4",
         "df7189ad91760b5e98dcac81b629048dbc72a2eb7327b841792ecd5e5360d1d3"
         "4a27c69ba792620b7b0cd90a977da1b1fd6f"),
    ], ids=["aes128", "aes192", "aes256"])
    def test_known_answer(self, key, expected):
        """The SP 800-38A keys and the first 50 plaintext bytes (a
        partial last block) under counter block ``f0f1f2f3f4f5f6f7 ||
        0^64``.  Expected values are OpenSSL's AES-CTR output for the
        same counter block."""
        plaintext = bytes.fromhex("".join(SP800_38A_PLAINTEXT))[:50]
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
        key = bytes.fromhex(key)
        assert ctr_encrypt(key, nonce, plaintext).hex() == expected
        assert ctr_decrypt(key, nonce, bytes.fromhex(expected)) == plaintext

    def test_counter_block_layout(self):
        """Keystream block ``i`` is ``E(nonce || i)`` with ``i`` a
        64-bit big-endian counter from zero."""
        cipher = AES(self.KEY)
        keystream = ctr_encrypt(cipher, self.NONCE, bytes(48))
        assert keystream == b"".join(
            cipher.encrypt_block(self.NONCE + i.to_bytes(8, "big"))
            for i in range(3))

    def test_roundtrip(self):
        message = b"the quick brown fox jumps over the lazy dog"
        ct = ctr_encrypt(self.KEY, self.NONCE, message)
        assert ctr_decrypt(self.KEY, self.NONCE, ct) == message

    def test_empty_message(self):
        assert ctr_encrypt(self.KEY, self.NONCE, b"") == b""

    def test_ciphertext_length_equals_plaintext(self):
        for n in (1, 15, 16, 17, 100):
            assert len(ctr_encrypt(self.KEY, self.NONCE, bytes(n))) == n

    def test_different_nonces_differ(self):
        message = bytes(32)
        a = ctr_encrypt(self.KEY, b"AAAAAAAA", message)
        b = ctr_encrypt(self.KEY, b"BBBBBBBB", message)
        assert a != b

    def test_different_keys_differ(self):
        message = bytes(32)
        a = ctr_encrypt(bytes(32), self.NONCE, message)
        b = ctr_encrypt(bytes(31) + b"\x01", self.NONCE, message)
        assert a != b

    def test_nonce_must_be_8_bytes(self):
        with pytest.raises(ValueError):
            ctr_encrypt(self.KEY, b"short", b"data")

    def test_keystream_not_repeated_across_blocks(self):
        # Encrypting zeros exposes the keystream; consecutive blocks
        # must differ (counter actually increments).
        keystream = ctr_encrypt(self.KEY, self.NONCE, bytes(64))
        blocks = [keystream[i:i + 16] for i in range(0, 64, 16)]
        assert len(set(blocks)) == 4

    def test_accepts_prebuilt_cipher(self):
        cipher = AES(self.KEY)
        message = b"reuse the schedule"
        assert (ctr_encrypt(cipher, self.NONCE, message)
                == ctr_encrypt(self.KEY, self.NONCE, message))

    @given(st.binary(max_size=200))
    @settings(max_examples=25)
    def test_property_roundtrip(self, message):
        ct = ctr_encrypt(self.KEY, self.NONCE, message)
        assert ctr_decrypt(self.KEY, self.NONCE, ct) == message
