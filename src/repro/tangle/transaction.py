"""Tangle transactions: the vertices of the DAG ledger.

In a DAG-structured blockchain "each transaction is an individual node
linked in the distributed ledger" (Section II-B).  A transaction here
carries:

* the issuer's :class:`~repro.crypto.keys.PublicIdentity`;
* an opaque *payload* plus a *kind* tag (``data``, ``transfer``,
  ``acl``, ``genesis``) that higher layers interpret;
* the hashes of the two approved transactions (*branch* and *trunk* in
  IOTA terminology);
* the PoW *nonce* and *difficulty* solving Eqn. 6;
* an Ed25519 *signature* over the transaction hash.

Construction order matters and is enforced by :meth:`Transaction.create`:
body → PoW challenge → nonce → transaction hash → signature.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..crypto.hashing import DIGEST_SIZE, hash_concat
from ..crypto.keys import KeyPair, PublicIdentity
from ..pow import hashcash

__all__ = [
    "ZERO_HASH",
    "TransactionKind",
    "Transaction",
    "TransactionDecodeCache",
    "GENESIS_KIND",
    "DEFAULT_DECODE_CACHE_SIZE",
    "MAX_CACHED_ENCODING",
]

ZERO_HASH = b"\x00" * DIGEST_SIZE
"""Parent reference used by the genesis transaction."""

GENESIS_KIND = "genesis"


class TransactionKind:
    """Well-known payload kinds (free-form strings are also allowed)."""

    GENESIS = GENESIS_KIND
    DATA = "data"
    TRANSFER = "transfer"
    ACL = "acl"


@dataclass(frozen=True)
class Transaction:
    """An immutable, signed, PoW-sealed tangle transaction."""

    kind: str
    issuer: PublicIdentity
    payload: bytes
    timestamp: float
    branch: bytes
    trunk: bytes
    difficulty: int
    nonce: int
    signature: bytes

    def __post_init__(self):
        if len(self.branch) != DIGEST_SIZE or len(self.trunk) != DIGEST_SIZE:
            raise ValueError("branch/trunk must be 32-byte transaction hashes")
        if not self.kind:
            raise ValueError("transaction kind must be non-empty")
        if self.difficulty < hashcash.MIN_DIFFICULTY:
            raise ValueError(f"difficulty must be >= {hashcash.MIN_DIFFICULTY}")
        if not 0 <= self.nonce < 2 ** 64:
            raise ValueError("nonce out of 64-bit range")

    # -- digests ---------------------------------------------------------
    #
    # The instance is immutable, so every derived value is computed at
    # most once and memoized into the instance dict (``object.__setattr__``
    # sidesteps the frozen-dataclass guard).  tx_hash/to_bytes sit on the
    # per-hop gossip path: without the memo every relay re-hashes and
    # re-encodes the same transaction at every node it crosses.

    def _memo(self, slot: str, value):
        object.__setattr__(self, slot, value)
        return value

    @property
    def body_digest(self) -> bytes:
        """Digest of everything the PoW and signature must commit to,
        except the nonce itself."""
        cached = self.__dict__.get("_body_digest")
        if cached is not None:
            return cached
        return self._memo("_body_digest", hash_concat(
            self.kind.encode(),
            self.issuer.to_bytes(),
            self.payload,
            struct.pack(">d", self.timestamp),
            self.branch,
            self.trunk,
            struct.pack(">H", self.difficulty),
        ))

    @property
    def pow_challenge(self) -> bytes:
        """The Eqn. 6 challenge: both parents plus the body digest."""
        cached = self.__dict__.get("_pow_challenge")
        if cached is not None:
            return cached
        return self._memo("_pow_challenge", hashcash.pow_challenge(
            self.branch, self.trunk, self.body_digest))

    @property
    def tx_hash(self) -> bytes:
        """The DAG vertex identifier: body digest bound to the nonce."""
        cached = self.__dict__.get("_tx_hash")
        if cached is not None:
            return cached
        return self._memo("_tx_hash", hash_concat(
            self.body_digest, self.nonce.to_bytes(8, "big")))

    @property
    def full_digest(self) -> bytes:
        """Digest committing to the *entire* instance, signature included.

        ``tx_hash`` does not commit to the signature (the signature is
        computed *over* the hash), so two instances with identical
        content but different signature bytes share a ``tx_hash``.
        Anything that must distinguish byte-exact instances — e.g. the
        :class:`~repro.tangle.validation.VerificationCache`, where a
        relayed copy with a forged signature must not inherit the
        original's verification — keys on this digest instead.
        """
        cached = self.__dict__.get("_full_digest")
        if cached is not None:
            return cached
        return self._memo("_full_digest", hash_concat(
            self.tx_hash, self.signature))

    @property
    def short_hash(self) -> str:
        return self.tx_hash.hex()[:8]

    @property
    def is_genesis(self) -> bool:
        return self.kind == GENESIS_KIND

    # -- verification ----------------------------------------------------

    def verify_pow(self) -> bool:
        """Check the nonce satisfies the declared difficulty."""
        return hashcash.verify(self.pow_challenge, self.nonce, self.difficulty)

    def verify_signature(self) -> bool:
        """Check the issuer's signature over the transaction hash."""
        return self.issuer.verify(self.tx_hash, self.signature)

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, keypair: KeyPair, *, kind: str, payload: bytes,
               timestamp: float, branch: bytes, trunk: bytes,
               difficulty: int, nonce: Optional[int] = None) -> "Transaction":
        """Build, PoW-seal and sign a transaction.

        When *nonce* is None the PoW is actually solved here (convenient
        for tests and small examples); system code that must account for
        solve time uses :class:`~repro.pow.engine.PowEngine` and passes
        the found nonce in.
        """
        unsigned = cls(
            kind=kind,
            issuer=keypair.public,
            payload=bytes(payload),
            timestamp=float(timestamp),
            branch=bytes(branch),
            trunk=bytes(trunk),
            difficulty=int(difficulty),
            nonce=0,
            signature=b"",
        )
        if nonce is None:
            proof = hashcash.solve(unsigned.pow_challenge, difficulty)
            nonce = proof.nonce
        sealed = cls(
            kind=unsigned.kind,
            issuer=unsigned.issuer,
            payload=unsigned.payload,
            timestamp=unsigned.timestamp,
            branch=unsigned.branch,
            trunk=unsigned.trunk,
            difficulty=unsigned.difficulty,
            nonce=int(nonce),
            signature=b"",
        )
        signature = keypair.sign(sealed.tx_hash)
        return cls(
            kind=sealed.kind,
            issuer=sealed.issuer,
            payload=sealed.payload,
            timestamp=sealed.timestamp,
            branch=sealed.branch,
            trunk=sealed.trunk,
            difficulty=sealed.difficulty,
            nonce=sealed.nonce,
            signature=signature,
        )

    @classmethod
    def create_genesis(cls, keypair: KeyPair, *, payload: bytes = b"",
                       timestamp: float = 0.0) -> "Transaction":
        """Create the genesis transaction (zero parents, difficulty 1).

        The paper hard-codes the manager's public key "into genesis
        config of blockchain"; callers put that configuration in
        *payload* (see :mod:`repro.core.acl`).
        """
        return cls.create(
            keypair,
            kind=GENESIS_KIND,
            payload=payload,
            timestamp=timestamp,
            branch=ZERO_HASH,
            trunk=ZERO_HASH,
            difficulty=hashcash.MIN_DIFFICULTY,
        )

    # -- serialisation ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Length-prefixed binary encoding (round-trips exactly).

        Memoized: gossip re-encodes the identical immutable transaction
        on every relay hop, so the bytes are built once and shared.
        """
        cached = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        kind_bytes = self.kind.encode()
        parts = [
            struct.pack(">H", len(kind_bytes)), kind_bytes,
            self.issuer.to_bytes(),
            struct.pack(">I", len(self.payload)), self.payload,
            struct.pack(">d", self.timestamp),
            self.branch,
            self.trunk,
            struct.pack(">H", self.difficulty),
            struct.pack(">Q", self.nonce),
            struct.pack(">H", len(self.signature)), self.signature,
        ]
        return self._memo("_encoded", b"".join(parts))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transaction":
        """Decode :meth:`to_bytes` output; raises ``ValueError`` on junk."""
        try:
            offset = 0
            (kind_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            kind = data[offset: offset + kind_len].decode()
            offset += kind_len
            issuer = PublicIdentity.from_bytes(data[offset: offset + 64])
            offset += 64
            (payload_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            payload = data[offset: offset + payload_len]
            if len(payload) != payload_len:
                raise ValueError("truncated payload")
            offset += payload_len
            (timestamp,) = struct.unpack_from(">d", data, offset)
            offset += 8
            branch = data[offset: offset + DIGEST_SIZE]
            offset += DIGEST_SIZE
            trunk = data[offset: offset + DIGEST_SIZE]
            offset += DIGEST_SIZE
            (difficulty,) = struct.unpack_from(">H", data, offset)
            offset += 2
            (nonce,) = struct.unpack_from(">Q", data, offset)
            offset += 8
            (sig_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            signature = data[offset: offset + sig_len]
            if len(signature) != sig_len or offset + sig_len != len(data):
                raise ValueError("truncated or oversized encoding")
        except (struct.error, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed transaction encoding: {exc}") from exc
        tx = cls(
            kind=kind,
            issuer=issuer,
            payload=payload,
            timestamp=timestamp,
            branch=branch,
            trunk=trunk,
            difficulty=difficulty,
            nonce=nonce,
            signature=signature,
        )
        # The exact encoding is in hand: seed the to_bytes() memo so a
        # decoded transaction never pays to re-encode for the next hop.
        tx._memo("_encoded", bytes(data))
        return tx

    def __repr__(self) -> str:
        return (
            f"Transaction({self.kind!r}, {self.short_hash}, "
            f"issuer={self.issuer.short_id}, t={self.timestamp:.3f})"
        )


DEFAULT_DECODE_CACHE_SIZE = 65536
"""Default :class:`TransactionDecodeCache` capacity (entries)."""

MAX_CACHED_ENCODING = 1024
"""Longest encoding the decode cache keeps (protocol transactions are
~0.3-0.7 KB).  A payload may be as long as a frame allows, so without
this an entry count would bound no bytes."""


class TransactionDecodeCache:
    """Bounded LRU mapping encoded bytes to a shared decoded instance.

    In a simulated deployment the *same* bytes object crosses every
    wire, so gossip delivers one transaction to dozens of nodes that
    each call :meth:`Transaction.from_bytes` on identical input.  The
    cache parses once and hands every later hop the same immutable
    ``Transaction`` — which also means the hash/encoding memos on that
    instance are shared, compounding the saving.

    A junk input raises ``ValueError`` exactly like ``from_bytes`` and
    is never cached; an encoding longer than
    :data:`MAX_CACHED_ENCODING` is parsed and not kept.  So the cache
    is bounded in bytes: an entry is its key (the encoding, shared with
    the instance's ``to_bytes`` memo), the instance and its digest
    memos — measured 1.6 KB for a 286 B encoding and 3.0-3.3 KB at the
    1 KiB limit, when the cache holds the only reference — hence at
    most ``max_size`` × 3.3 KB.

    Args:
        max_size: LRU capacity (evicts least-recently decoded).
        telemetry: a :class:`~repro.telemetry.MetricsRegistry` for the
            ``repro_cache_decode_*`` hit/miss counters.
    """

    def __init__(self, max_size: int = DEFAULT_DECODE_CACHE_SIZE, *,
                 telemetry=None):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        # Imported here, not at module top: repro.telemetry is a heavier
        # import than this leaf module's other dependencies.
        from ..telemetry.registry import coerce_registry

        self.max_size = max_size
        self._decoded: "OrderedDict[bytes, Transaction]" = OrderedDict()
        self.evictions = 0
        # Plain-int mirrors of the telemetry counters: health digests
        # must work (and stay byte-deterministic) with telemetry off.
        self.hits = 0
        self.misses = 0
        telemetry = coerce_registry(telemetry)
        self._m_hit = telemetry.counter(
            "repro_cache_decode_hits_total",
            "Transaction decodes served from the shared decode LRU")
        self._m_miss = telemetry.counter(
            "repro_cache_decode_misses_total",
            "Transaction decodes that actually parsed bytes")

    def __len__(self) -> int:
        return len(self._decoded)

    def decode(self, data: bytes) -> Transaction:
        """:meth:`Transaction.from_bytes`, memoized on the exact bytes."""
        decoded = self._decoded
        tx = decoded.get(data)
        if tx is not None:
            decoded.move_to_end(data)
            self.hits += 1
            self._m_hit.inc()
            return tx
        self.misses += 1
        self._m_miss.inc()
        tx = Transaction.from_bytes(data)
        if len(data) <= MAX_CACHED_ENCODING:
            decoded[data] = tx
            if len(decoded) > self.max_size:
                decoded.popitem(last=False)
                self.evictions += 1
        return tx
