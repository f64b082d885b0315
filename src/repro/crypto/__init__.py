"""Cryptographic substrate for the B-IoT reproduction.

Everything the paper's system depends on is implemented from scratch in
this package:

* :mod:`~repro.crypto.hashing` — SHA-256 wrappers, Merkle trees;
* :mod:`~repro.crypto.aes` — FIPS-197 AES with CTR/CBC modes;
* :mod:`~repro.crypto.x25519` — RFC 7748 key agreement;
* :mod:`~repro.crypto.ed25519` — RFC 8032 signatures, the one
  implementation every signer and verifier uses (table-driven, with
  batch verification);
* :mod:`~repro.crypto.kdf` — HKDF and HMAC helpers;
* :mod:`~repro.crypto.ecies` — hybrid public-key encryption;
* :mod:`~repro.crypto.keys` — node identities (the paper's (PK, SK)).
"""

from . import rand
from .aes import AES, cbc_decrypt, cbc_encrypt, ctr_decrypt, ctr_encrypt
from .ecies import DecryptionError
from .hashing import MerkleTree, double_sha256, hash_concat, leading_zero_bits, merkle_root, sha256
from .kdf import hkdf, hmac_sha256
from .keys import KeyPair, PublicIdentity

__all__ = [
    "rand",
    "AES",
    "ctr_encrypt",
    "ctr_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "DecryptionError",
    "sha256",
    "double_sha256",
    "hash_concat",
    "leading_zero_bits",
    "MerkleTree",
    "merkle_root",
    "hkdf",
    "hmac_sha256",
    "KeyPair",
    "PublicIdentity",
]
