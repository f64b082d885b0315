"""Pure-Python AES (FIPS-197) encryption in CTR mode.

The paper's data authority management method encrypts sensor payloads
with AES implemented in C before posting them to the transparent ledger
(Section V-A) and evaluates the encryption cost on a Raspberry Pi 3B
(Fig. 10).  This module is a from-scratch, table-driven implementation of
the block cipher for all three key sizes and the one mode the system
uses, **CTR** (parallel, no padding), for payloads, key distribution
and ECIES alike.

CTR XORs the data with encryptions of counter blocks, so decryption is
the same operation as encryption: the block cipher only ever runs
forward.  There is therefore no inverse cipher here: no inverse S-box,
no decryption tables and no inverse key schedule.  The inverse schedule
alone (InvMixColumns over every inner round key) would be ~97 % of the
cost of each ``AES(key)`` construction, which happens once per sealed
reading, for output nothing reads.

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


def _build_sbox() -> List[int]:
    """Generate the AES S-box from field arithmetic.

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
    for x in range(256):
        value = inverse[x]
        # Affine transform: s = v ^ rotl(v,1) ^ rotl(v,2) ^ rotl(v,3) ^ rotl(v,4) ^ 0x63
        result = 0x63
        for shift in range(5):
            rotated = ((value << shift) | (value >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[x] = result
    return sbox


_SBOX = _build_sbox()


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


_T0, _T1, _T2, _T3 = _build_enc_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


class AES:
    """The AES block cipher for 128-, 192- or 256-bit keys.

    Instances are immutable once constructed; the expensive work is the
    key expansion performed in ``__init__``, after which
    :meth:`encrypt_block` runs a fixed number of table lookups per
    16-byte block.

    >>> AES(bytes(range(16))).encrypt_block(
    ...     bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

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
