"""Transaction validation hooks and misbehaviour detectors.

The tangle itself only enforces structure (known parents, no
duplicates).  Everything else composes in as validators:

* :func:`crypto_validator` — PoW and signature verification plus a
  minimum-difficulty floor (what every full node runs);
* :class:`VerificationCache` — a bounded LRU remembering which
  byte-exact transaction instances (keyed by the signature-committing
  ``full_digest``) already passed signature+PoW verification, so a
  full node (or a deployment of full nodes sharing one cache) pays the
  Ed25519 verify and the PoW hash exactly once per transaction instead
  of once per hop/duplicate;
* :func:`timestamp_validator` — reject a transaction older than a parent;
* :func:`detect_lazy_approval` — classify an attach as lazy-tips
  misbehaviour, the detector feeding the credit mechanism's αl penalty.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..telemetry.registry import coerce_registry
from .errors import (
    InvalidPowError,
    InvalidSignatureError,
    SelfApprovalError,
    TimestampError,
)
from .tangle import AttachResult, Tangle, Validator
from .transaction import Transaction

__all__ = [
    "crypto_validator",
    "timestamp_validator",
    "detect_lazy_approval",
    "VerificationCache",
    "PreverifiedSet",
    "DEFAULT_MAX_PARENT_AGE",
    "DEFAULT_VERIFY_CACHE_SIZE",
    "DEFAULT_PREVERIFIED_SIZE",
]

DEFAULT_MAX_PARENT_AGE = 30.0
"""Parents older than this (seconds) mark an approval as lazy.  Matches
the paper's ΔT=30 s activity window."""

DEFAULT_VERIFY_CACHE_SIZE = 65536
"""Default capacity of a :class:`VerificationCache`: 64k 32-byte
digests (~4 MiB with LRU bookkeeping) comfortably covers the in-flight
window of a multi-hundred-node deployment."""


class VerificationCache:
    """Bounded LRU of transaction instances that passed crypto checks.

    Entries are keyed by :attr:`~repro.tangle.transaction.Transaction.
    full_digest`, which commits to the signature bytes — *not* by
    ``tx_hash``, which does not (the signature is computed over the
    hash).  Keying by hash would let a relayed copy with the same
    content but a corrupted or forged signature inherit the original's
    verification; with the full digest, only byte-identical instances
    skip re-verification, and verification of a byte-identical immutable
    instance is deterministic, so a positive outcome cached once is
    sound forever.

    Each entry also records whether PoW was *actually* verified when it
    was confirmed.  A validator that enforces PoW only hits on
    PoW-verified entries, so sharing one cache between enforcing and
    ``allow_simulated_pow`` validators never lets a simulation-grade
    confirmation bypass an enforcing node's nonce check (signature-only
    entries are upgraded in place once an enforcing node verifies the
    nonce).

    Only the *positive* outcome is cached: failures raise and the
    transaction is dropped, so there is no repeat cost to save, and
    caching them would let one collision poison rejection.

    The cache is safe to share across the full nodes of one simulated
    deployment — that is the intended topology (see
    :meth:`~repro.core.biot.BIoTSystem.build`): the first node to verify
    a gossiped transaction pays, every later hop hits.

    Args:
        max_size: LRU capacity (evicts least-recently confirmed).
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry` for the
            ``repro_cache_verify_*`` hit/miss counters.
    """

    def __init__(self, max_size: int = DEFAULT_VERIFY_CACHE_SIZE, *,
                 telemetry=None):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        # key (full digest) -> True when PoW was verified for the entry,
        # False when only the signature was (allow_simulated_pow).
        self._verified: "OrderedDict[bytes, bool]" = OrderedDict()
        self.evictions = 0
        # Plain-int mirrors of the telemetry counters: health digests
        # must work (and stay byte-deterministic) with telemetry off.
        self.hits = 0
        self.misses = 0
        telemetry = coerce_registry(telemetry)
        self._m_hit = telemetry.counter(
            "repro_cache_verify_hits_total",
            "Signature+PoW verifications skipped via the verified-set LRU")
        self._m_miss = telemetry.counter(
            "repro_cache_verify_misses_total",
            "Signature+PoW verifications actually performed")

    def __len__(self) -> int:
        return len(self._verified)

    def __contains__(self, key: bytes) -> bool:
        return key in self._verified

    def check(self, key: bytes, *, require_pow: bool = True) -> bool:
        """True when *key* already verified to the required level
        (refreshes its LRU slot and counts a hit); False counts a miss.

        With *require_pow* a signature-only entry (confirmed under
        ``allow_simulated_pow``) is a miss: the caller must verify the
        nonce itself before trusting the instance.
        """
        verified = self._verified
        pow_verified = verified.get(key)
        if pow_verified is not None and (pow_verified or not require_pow):
            verified.move_to_end(key)
            self.hits += 1
            self._m_hit.inc()
            return True
        self.misses += 1
        self._m_miss.inc()
        return False

    def confirm(self, key: bytes, *, pow_verified: bool = True) -> None:
        """Record that *key* passed verification.

        *pow_verified* says whether the nonce was cryptographically
        checked; a signature-only confirmation never downgrades an
        existing PoW-verified entry.
        """
        verified = self._verified
        verified[key] = pow_verified or verified.get(key, False)
        verified.move_to_end(key)
        if len(verified) > self.max_size:
            verified.popitem(last=False)
            self.evictions += 1


DEFAULT_PREVERIFIED_SIZE = 8192
"""Default capacity of a :class:`PreverifiedSet`: comfortably larger
than any single sync/parent response or run plus its parked descendants."""


class PreverifiedSet:
    """Bounded set of ``full_digest`` values whose *signatures* were
    already checked by a batch verifier ahead of attach.

    A batch-ingesting node verifies a burst's signatures in one
    random-linear-combination equation, then attaches the transactions
    one by one; this set carries the positive verdicts from the batch
    step to the per-transaction :func:`crypto_validator` run.  Entries
    are consumed on use (each covers exactly one attach) and evicted
    FIFO past *max_size* — an entry evicted early (its transaction
    parked for a long time, or rejected for non-signature reasons)
    just means the signature is re-verified individually, never that
    verification is skipped.

    Only *signature* verdicts live here: PoW is per-instance cheap (one
    double-SHA256) and stays in the validator.
    """

    def __init__(self, max_size: int = DEFAULT_PREVERIFIED_SIZE):
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        self._digests: "OrderedDict[bytes, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._digests

    def add(self, digest: bytes) -> None:
        self._digests[digest] = None
        if len(self._digests) > self.max_size:
            self._digests.popitem(last=False)

    def consume(self, digest: bytes) -> bool:
        """True (and the entry is removed) when *digest* was batch-
        verified; False when it must be verified individually."""
        return self._digests.pop(digest, False) is None


def crypto_validator(*, min_difficulty: int = 1,
                     allow_simulated_pow: bool = False,
                     cache: Optional[VerificationCache] = None,
                     preverified: Optional[PreverifiedSet] = None) -> Validator:
    """Build a validator enforcing PoW and signature correctness.

    Args:
        min_difficulty: network-wide difficulty floor; transactions
            declaring less are rejected regardless of their nonce.
        allow_simulated_pow: pure-simulation experiments sample attempt
            counts instead of grinding nonces, so their nonces do not
            verify; set True only inside such experiments.
        cache: optional :class:`VerificationCache`; on a hit the
            expensive sig+PoW work is skipped.  Entries are keyed by
            ``tx.full_digest`` (commits to the signature) and tagged
            with whether PoW was enforced, so sharing one cache across
            validators with different ``allow_simulated_pow`` settings
            stays sound.  The difficulty floor and the self-approval
            check still run per call — they are O(1) comparisons and
            the floor is validator-local policy, not a property of the
            transaction.
        preverified: optional :class:`PreverifiedSet` carrying positive
            batch-verification verdicts; a transaction found there
            skips the individual signature check (the entry is consumed).
    """

    def verify_signature(tx: Transaction) -> bool:
        if preverified is not None and preverified.consume(tx.full_digest):
            return True
        return tx.verify_signature()

    def validate(tangle: Tangle, tx: Transaction) -> None:
        if tx.difficulty < min_difficulty:
            raise InvalidPowError(
                f"{tx.short_hash} declares difficulty {tx.difficulty} "
                f"below the floor {min_difficulty}"
            )
        enforce_pow = not allow_simulated_pow
        if cache is None or not cache.check(tx.full_digest,
                                            require_pow=enforce_pow):
            if enforce_pow and not tx.verify_pow():
                raise InvalidPowError(f"{tx.short_hash} nonce fails difficulty "
                                      f"{tx.difficulty}")
            if not verify_signature(tx):
                raise InvalidSignatureError(f"{tx.short_hash} signature invalid")
            if cache is not None:
                cache.confirm(tx.full_digest, pow_verified=enforce_pow)
        tx_hash = tx.tx_hash
        if tx.branch == tx_hash or tx.trunk == tx_hash:
            raise SelfApprovalError(f"{tx.short_hash} approves itself")

    return validate


def timestamp_validator() -> Validator:
    """Reject transactions whose timestamp precedes either parent's.

    DAG clocks are loose (arrival time is authoritative), but a
    transaction cannot approve one issued after it.  A bound on future
    skew is a property of the receiving node's clock, not of the
    tangle, so it belongs at the service boundary.
    """

    def validate(tangle: Tangle, tx: Transaction) -> None:
        for parent in (tx.branch, tx.trunk):
            if parent not in tangle:
                continue  # pruned entry point: no content to compare
            parent_tx = tangle.get(parent)
            if tx.timestamp < parent_tx.timestamp:
                raise TimestampError(
                    f"{tx.short_hash} predates its parent {parent_tx.short_hash}"
                )

    return validate


def detect_lazy_approval(result: AttachResult, *,
                         max_parent_age: float = DEFAULT_MAX_PARENT_AGE) -> bool:
    """Classify one attach as lazy-tips misbehaviour.

    The paper's lazy node "could always verify a fixed pair of very old
    transactions, while not contributing to the verification of more
    recent transactions" — the detector is therefore *age-based*: an
    approval is lazy when an approved parent is older than
    *max_parent_age* seconds at attach time.

    It deliberately does NOT flag approvals of transactions that merely
    stopped being tips moments ago: under concurrent honest traffic two
    devices regularly pick the same fresh tips (the second one's parents
    are no longer tips on arrival), and punishing that would penalise
    honest concurrency.  Freshly approved parents are young, so the age
    test is immune to that race.
    """
    return any(age > max_parent_age for age in result.parent_ages)
