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
