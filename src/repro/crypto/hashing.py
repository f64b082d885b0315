"""Hashing primitives used across the B-IoT reproduction.

The paper's tangle substrate (IOTA) uses the Curl/Kerl ternary hash
family; this reproduction standardises on SHA-256 (with SHA-512 where a
wide output is required, e.g. Ed25519).  Every ledger object carries a
32-byte content digest computed by :func:`sha256`, PoW uses
:func:`double_sha256` (hashcash style), and block/bundle integrity uses
:class:`MerkleTree`.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

__all__ = [
    "sha256",
    "double_sha256",
    "hash_concat",
    "leading_zero_bits",
    "MerkleTree",
    "merkle_root",
]

DIGEST_SIZE = 32
"""Size in bytes of the canonical digest (:func:`sha256`)."""


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of *data*."""
    return hashlib.sha256(data).digest()


def double_sha256(data: bytes) -> bytes:
    """Return ``SHA-256(SHA-256(data))``.

    Double hashing is the classic hashcash/Bitcoin construction; it
    protects against length-extension when digests are chained, which is
    exactly what Eqn. 6 of the paper does with transaction hashes.
    """
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash_concat(*parts: bytes) -> bytes:
    """Hash the length-prefixed concatenation of *parts*.

    Length prefixes make the encoding injective: ``hash_concat(b"ab",
    b"c")`` never collides with ``hash_concat(b"a", b"bc")``.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def leading_zero_bits(digest: bytes) -> int:
    """Count the number of leading zero bits in *digest*.

    This is the PoW "difficulty met" metric: a digest satisfies
    difficulty ``D`` iff ``leading_zero_bits(digest) >= D``.
    """
    count = 0
    for byte in digest:
        if byte == 0:
            count += 8
            continue
        # 7 - floor(log2(byte)) leading zeros within this byte.
        count += 8 - byte.bit_length()
        break
    return count


class MerkleTree:
    """A binary Merkle tree over a sequence of byte-string leaves.

    Leaves are hashed with a ``0x00`` domain prefix and interior nodes
    with ``0x01`` so a leaf digest can never be re-interpreted as an
    interior digest (second-preimage hardening).  Odd nodes at any level
    are promoted unchanged, not paired with a copy of themselves.
    """

    _LEAF_PREFIX = b"\x00"
    _NODE_PREFIX = b"\x01"

    def __init__(self, leaves: Sequence[bytes]):
        if not leaves:
            raise ValueError("MerkleTree requires at least one leaf")
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = [
            [sha256(self._LEAF_PREFIX + leaf) for leaf in self._leaves]
        ]
        while len(self._levels[-1]) > 1:
            self._levels.append(self._next_level(self._levels[-1]))

    @classmethod
    def _next_level(cls, level: List[bytes]) -> List[bytes]:
        parents = []
        for i in range(0, len(level) - 1, 2):
            parents.append(sha256(cls._NODE_PREFIX + level[i] + level[i + 1]))
        if len(level) % 2 == 1:
            parents.append(level[-1])
        return parents

    @property
    def root(self) -> bytes:
        """The 32-byte Merkle root."""
        return self._levels[-1][0]


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Return the Merkle root of *leaves* (empty input hashes to zeros).

    Convenience wrapper used by the chain baseline where an empty block
    body is legal; an all-zero root marks the empty body distinctly.
    """
    if not leaves:
        return b"\x00" * DIGEST_SIZE
    return MerkleTree(leaves).root
