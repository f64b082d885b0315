"""Tests for repro.crypto.aes against FIPS-197 / NIST SP 800-38A."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    AES,
    BLOCK_SIZE,
    cbc_decrypt,
    cbc_encrypt,
    ctr_decrypt,
    ctr_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


def brute_force_sbox():
    """The S-box and its inverse with every field inverse found by
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
    inv_sbox = [0] * 256
    for x in range(256):
        value = inverse[x]
        result = 0x63
        for shift in range(5):
            result ^= ((value << shift) | (value >> (8 - shift))) & 0xFF
        sbox[x] = result
        inv_sbox[result] = x
    return sbox, inv_sbox


class TestTables:
    def test_sbox_equals_the_brute_force_oracle(self):
        sbox, inv_sbox = brute_force_sbox()
        assert aes._SBOX == sbox
        assert aes._INV_SBOX == inv_sbox


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

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_decrypt_inverts_encrypt(self, key_size):
        cipher = AES(bytes(range(key_size)))
        block = b"0123456789abcdef"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_sp800_38a_cbc_aes128_first_block(self):
        """NIST SP 800-38A F.2.1 (our CBC appends a padding block)."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        ciphertext = cbc_encrypt(key, iv, plaintext)
        assert ciphertext[:16].hex() == "7649abac8119b246cee98e9b12e9197d"

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

    def test_bad_block_size_decrypt(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).decrypt_block(b"x" * 17)


class TestPkcs7:
    def test_pad_length_always_multiple(self):
        for n in range(0, 33):
            padded = pkcs7_pad(bytes(n))
            assert len(padded) % BLOCK_SIZE == 0
            assert len(padded) > n

    def test_full_block_input_gets_full_block_padding(self):
        padded = pkcs7_pad(bytes(16))
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_unpad_rejects_bad_terminal_byte(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(15) + b"\x00")

    def test_unpad_rejects_inconsistent_padding(self):
        data = bytes(14) + b"\x01\x02"
        with pytest.raises(ValueError):
            pkcs7_unpad(data)

    def test_unpad_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"x" * 15)

    def test_unpad_rejects_empty(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")

    def test_pad_block_size_bounds(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", block_size=0)
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", block_size=256)

    @given(st.binary(max_size=100))
    def test_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data


class TestCtrMode:
    KEY = bytes(range(32))
    NONCE = b"12345678"

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


class TestCbcMode:
    KEY = bytes(range(16))
    IV = bytes(16)

    def test_roundtrip(self):
        message = b"cbc roundtrip message"
        assert cbc_decrypt(self.KEY, self.IV, cbc_encrypt(self.KEY, self.IV, message)) == message

    def test_empty_message_roundtrip(self):
        assert cbc_decrypt(self.KEY, self.IV, cbc_encrypt(self.KEY, self.IV, b"")) == b""

    def test_iv_must_be_block_sized(self):
        with pytest.raises(ValueError):
            cbc_encrypt(self.KEY, b"short", b"data")
        with pytest.raises(ValueError):
            cbc_decrypt(self.KEY, b"short", bytes(16))

    def test_decrypt_rejects_partial_blocks(self):
        with pytest.raises(ValueError):
            cbc_decrypt(self.KEY, self.IV, b"x" * 20)

    def test_decrypt_rejects_empty(self):
        with pytest.raises(ValueError):
            cbc_decrypt(self.KEY, self.IV, b"")

    def test_tampered_ciphertext_breaks_padding_or_content(self):
        message = b"A" * 32
        ct = bytearray(cbc_encrypt(self.KEY, self.IV, message))
        ct[-1] ^= 0xFF  # corrupt final (padding) block
        try:
            result = cbc_decrypt(self.KEY, self.IV, bytes(ct))
        except ValueError:
            return
        assert result != message

    def test_identical_blocks_do_not_repeat(self):
        # CBC chains: two identical plaintext blocks yield different
        # ciphertext blocks (unlike ECB).
        ct = cbc_encrypt(self.KEY, self.IV, bytes(32))
        assert ct[:16] != ct[16:32]

    @given(st.binary(max_size=100))
    @settings(max_examples=25)
    def test_property_roundtrip(self, message):
        ct = cbc_encrypt(self.KEY, self.IV, message)
        assert cbc_decrypt(self.KEY, self.IV, ct) == message
