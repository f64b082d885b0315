"""Pure-Python AES (FIPS-197) with CTR and CBC modes.

The paper's data authority management method encrypts sensor payloads
with AES implemented in C before posting them to the transparent ledger
(Section V-A) and evaluates the encryption cost on a Raspberry Pi 3B
(Fig. 10).  This module is a from-scratch, table-driven implementation of
the block cipher for all three key sizes plus the two modes the system
uses:

* **CTR** — used for payload encryption (parallel, no padding);
* **CBC + PKCS#7** — provided for interoperability tests and the ablation
  bench comparing modes.

The S-box and round tables are *generated* at import time from the
GF(2^8) field definition rather than hard-coded, which keeps the module
self-verifying: any typo in the field arithmetic breaks the NIST vectors
in the test suite immediately.
"""

from __future__ import annotations

import struct
from typing import List

__all__ = [
    "AES",
    "ctr_encrypt",
    "ctr_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "pkcs7_pad",
    "pkcs7_unpad",
    "BLOCK_SIZE",
]

BLOCK_SIZE = 16
"""AES block size in bytes."""

_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1, the AES field polynomial.


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return product


def _build_sbox() -> tuple:
    """Generate the AES S-box and its inverse from field arithmetic.

    3 generates the multiplicative group of GF(2^8), so with its powers
    tabulated (antilog) and their exponents (log), the inverse of a
    nonzero ``x`` is ``3^(255 - log x)``: 254 field multiplications."""
    antilog = [1] * 255
    for power in range(1, 255):
        antilog[power] = _gf_mul(antilog[power - 1], 3)
    log = [0] * 256
    for power, value in enumerate(antilog):
        log[value] = power
    inverse = [0] + [antilog[-log[x] % 255] for x in range(1, 256)]
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for x in range(256):
        value = inverse[x]
        # Affine transform: s = v ^ rotl(v,1) ^ rotl(v,2) ^ rotl(v,3) ^ rotl(v,4) ^ 0x63
        result = 0x63
        for shift in range(5):
            rotated = ((value << shift) | (value >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[x] = result
        inv_sbox[result] = x
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()


def _build_enc_tables() -> List[List[int]]:
    """Build the four encryption T-tables (SubBytes+ShiftRows+MixColumns)."""
    t0 = []
    for x in range(256):
        s = _SBOX[x]
        word = (_gf_mul(2, s) << 24) | (s << 16) | (s << 8) | _gf_mul(3, s)
        t0.append(word)
    tables = [t0]
    for _ in range(3):
        prev = tables[-1]
        tables.append([((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in prev])
    return tables


def _build_dec_tables() -> List[List[int]]:
    """Build the four decryption T-tables (InvSubBytes+InvMixColumns)."""
    d0 = []
    for x in range(256):
        s = _INV_SBOX[x]
        word = (
            (_gf_mul(14, s) << 24)
            | (_gf_mul(9, s) << 16)
            | (_gf_mul(13, s) << 8)
            | _gf_mul(11, s)
        )
        d0.append(word)
    tables = [d0]
    for _ in range(3):
        prev = tables[-1]
        tables.append([((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in prev])
    return tables


_T0, _T1, _T2, _T3 = _build_enc_tables()
_D0, _D1, _D2, _D3 = _build_dec_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _inv_mix_column_word(word: int) -> int:
    """Apply InvMixColumns to a single 32-bit column word."""
    b0 = (word >> 24) & 0xFF
    b1 = (word >> 16) & 0xFF
    b2 = (word >> 8) & 0xFF
    b3 = word & 0xFF
    return (
        ((_gf_mul(14, b0) ^ _gf_mul(11, b1) ^ _gf_mul(13, b2) ^ _gf_mul(9, b3)) << 24)
        | ((_gf_mul(9, b0) ^ _gf_mul(14, b1) ^ _gf_mul(11, b2) ^ _gf_mul(13, b3)) << 16)
        | ((_gf_mul(13, b0) ^ _gf_mul(9, b1) ^ _gf_mul(14, b2) ^ _gf_mul(11, b3)) << 8)
        | (_gf_mul(11, b0) ^ _gf_mul(13, b1) ^ _gf_mul(9, b2) ^ _gf_mul(14, b3))
    )


class AES:
    """The AES block cipher for 128-, 192- or 256-bit keys.

    Instances are immutable once constructed; the expensive work is the
    key expansion performed in ``__init__``, after which
    :meth:`encrypt_block` / :meth:`decrypt_block` run a fixed number of
    table lookups per 16-byte block.

    >>> cipher = AES(bytes(range(16)))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        self._dec_round_keys = self._invert_round_keys(self._round_keys, self.rounds)

    def _expand_key(self, key: bytes) -> List[int]:
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * (self.rounds + 1)
        sbox = _SBOX
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    @staticmethod
    def _invert_round_keys(round_keys: List[int], rounds: int) -> List[int]:
        """Round keys for the equivalent inverse cipher."""
        inverted: List[int] = []
        for round_index in range(rounds + 1):
            source = round_keys[4 * (rounds - round_index): 4 * (rounds - round_index) + 4]
            if 0 < round_index < rounds:
                source = [_inv_mix_column_word(w) for w in source]
            inverted.extend(source)
        return inverted

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte *block*."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        rk = self._round_keys
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        offset = 4
        for _ in range(self.rounds - 1):
            e0 = (t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF]
                  ^ t3[s3 & 0xFF] ^ rk[offset])
            e1 = (t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF]
                  ^ t3[s0 & 0xFF] ^ rk[offset + 1])
            e2 = (t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF]
                  ^ t3[s1 & 0xFF] ^ rk[offset + 2])
            e3 = (t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF]
                  ^ t3[s2 & 0xFF] ^ rk[offset + 3])
            s0, s1, s2, s3 = e0, e1, e2, e3
            offset += 4
        sbox = _SBOX
        f0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[offset]
        f1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[offset + 1]
        f2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[offset + 2]
        f3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[offset + 3]
        return struct.pack(">4I", f0, f1, f2, f3)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte *block*."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        rk = self._dec_round_keys
        d0, d1, d2, d3 = _D0, _D1, _D2, _D3
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        offset = 4
        for _ in range(self.rounds - 1):
            e0 = (d0[s0 >> 24] ^ d1[(s3 >> 16) & 0xFF] ^ d2[(s2 >> 8) & 0xFF]
                  ^ d3[s1 & 0xFF] ^ rk[offset])
            e1 = (d0[s1 >> 24] ^ d1[(s0 >> 16) & 0xFF] ^ d2[(s3 >> 8) & 0xFF]
                  ^ d3[s2 & 0xFF] ^ rk[offset + 1])
            e2 = (d0[s2 >> 24] ^ d1[(s1 >> 16) & 0xFF] ^ d2[(s0 >> 8) & 0xFF]
                  ^ d3[s3 & 0xFF] ^ rk[offset + 2])
            e3 = (d0[s3 >> 24] ^ d1[(s2 >> 16) & 0xFF] ^ d2[(s1 >> 8) & 0xFF]
                  ^ d3[s0 & 0xFF] ^ rk[offset + 3])
            s0, s1, s2, s3 = e0, e1, e2, e3
            offset += 4
        inv = _INV_SBOX
        f0 = ((inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
              | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ rk[offset]
        f1 = ((inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
              | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) ^ rk[offset + 1]
        f2 = ((inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
              | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) ^ rk[offset + 2]
        f3 = ((inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
              | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) ^ rk[offset + 3]
        return struct.pack(">4I", f0, f1, f2, f3)


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad *data* to a multiple of *block_size* (PKCS#7)."""
    if not 1 <= block_size <= 255:
        raise ValueError("block_size must be in [1, 255]")
    pad_len = block_size - len(data) % block_size
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip PKCS#7 padding, raising ``ValueError`` on malformed input."""
    if not data or len(data) % block_size != 0:
        raise ValueError("padded data length must be a positive multiple of block size")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise ValueError("invalid padding byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("inconsistent padding")
    return data[:-pad_len]


def _ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate *length* bytes of CTR keystream for *nonce*.

    The counter block is ``nonce (8 bytes) || counter (8 bytes, BE)``,
    giving 2^64 blocks per nonce — far beyond any sensor payload.
    """
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    encrypt = cipher.encrypt_block
    stream = b"".join(
        encrypt(nonce + counter.to_bytes(8, "big")) for counter in range(blocks)
    )
    return stream[:length]


def ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt *plaintext* with AES-CTR under *key* and 8-byte *nonce*."""
    cipher = key if isinstance(key, AES) else AES(key)
    if not plaintext:
        return b""
    keystream = _ctr_keystream(cipher, nonce, len(plaintext))
    xored = int.from_bytes(plaintext, "big") ^ int.from_bytes(keystream, "big")
    return xored.to_bytes(len(plaintext), "big")


def ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """Decrypt AES-CTR output (CTR is its own inverse)."""
    return ctr_encrypt(key, nonce, ciphertext)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """Encrypt *plaintext* with AES-CBC and PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"CBC IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = key if isinstance(key, AES) else AES(key)
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for start in range(0, len(padded), BLOCK_SIZE):
        block = padded[start: start + BLOCK_SIZE]
        mixed = bytes(a ^ b for a, b in zip(block, previous))
        previous = cipher.encrypt_block(mixed)
        out.extend(previous)
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Decrypt AES-CBC output and strip PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"CBC IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("ciphertext length must be a positive multiple of 16")
    cipher = key if isinstance(key, AES) else AES(key)
    out = bytearray()
    previous = iv
    for start in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[start: start + BLOCK_SIZE]
        plain = cipher.decrypt_block(block)
        out.extend(a ^ b for a, b in zip(plain, previous))
        previous = block
    return pkcs7_unpad(bytes(out))
