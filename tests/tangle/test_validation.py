"""Tests for repro.tangle.validation."""

import pytest

from repro.crypto.keys import KeyPair
from repro.tangle.errors import (
    InvalidPowError,
    InvalidSignatureError,
    TimestampError,
)
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction
from repro.tangle.validation import (
    DEFAULT_MAX_PARENT_AGE,
    crypto_validator,
    detect_lazy_approval,
    timestamp_validator,
)

KEYS = KeyPair.generate(seed=b"validation-tests")


def fresh_tangle(*validators):
    return Tangle(Transaction.create_genesis(KEYS), validators=list(validators))


def make_child(tangle, *, difficulty=2, timestamp=1.0, payload=b"x",
               nonce=None):
    g = tangle.genesis.tx_hash
    return Transaction.create(
        KEYS, kind="data", payload=payload, timestamp=timestamp,
        branch=g, trunk=g, difficulty=difficulty, nonce=nonce,
    )


class TestCryptoValidator:
    def test_accepts_valid_transaction(self):
        tangle = fresh_tangle(crypto_validator())
        tangle.attach(make_child(tangle))

    def test_rejects_bad_nonce(self):
        tangle = fresh_tangle(crypto_validator())
        tx = make_child(tangle, difficulty=14, nonce=0)
        if tx.verify_pow():  # one-in-16k fluke: skip rather than flake
            pytest.skip("nonce 0 accidentally met difficulty")
        with pytest.raises(InvalidPowError):
            tangle.attach(tx)

    def test_rejects_bad_signature(self):
        tangle = fresh_tangle(crypto_validator())
        good = make_child(tangle)
        forged = Transaction(
            kind=good.kind, issuer=good.issuer, payload=b"swapped",
            timestamp=good.timestamp, branch=good.branch, trunk=good.trunk,
            difficulty=good.difficulty, nonce=good.nonce,
            signature=good.signature,
        )
        # Re-solve PoW so only the signature is wrong.
        solved = Transaction.create(
            KEYS, kind=forged.kind, payload=forged.payload,
            timestamp=forged.timestamp, branch=forged.branch,
            trunk=forged.trunk, difficulty=forged.difficulty,
        )
        bad_sig = Transaction(
            kind=solved.kind, issuer=solved.issuer, payload=solved.payload,
            timestamp=solved.timestamp, branch=solved.branch,
            trunk=solved.trunk, difficulty=solved.difficulty,
            nonce=solved.nonce, signature=good.signature,
        )
        with pytest.raises(InvalidSignatureError):
            tangle.attach(bad_sig)

    def test_simulated_pow_mode_skips_nonce_check(self):
        tangle = fresh_tangle(crypto_validator(allow_simulated_pow=True))
        tx = make_child(tangle, difficulty=14, nonce=0)
        tangle.attach(tx)  # accepted despite the (almost surely) bad nonce
        assert tx.tx_hash in tangle


class TestTimestampValidator:
    def test_accepts_reasonable_timestamp(self):
        tangle = fresh_tangle(timestamp_validator())
        tangle.attach(make_child(tangle, timestamp=1.0))

    def test_rejects_before_parent(self):
        tangle = fresh_tangle(timestamp_validator())
        first = make_child(tangle, timestamp=3.0)
        tangle.attach(first, arrival_time=3.0)
        child = Transaction.create(
            KEYS, kind="data", payload=b"y", timestamp=1.0,
            branch=first.tx_hash, trunk=first.tx_hash, difficulty=2,
        )
        with pytest.raises(TimestampError, match="predates"):
            tangle.attach(child)


class TestLazyDetection:
    def _result_with_ages(self, tangle, ages):
        tx = make_child(tangle, timestamp=max(ages) + 1.0)
        result = tangle.attach(tx, arrival_time=max(ages))
        # Rebuild an AttachResult with the ages we want to probe.
        from repro.tangle.tangle import AttachResult
        return AttachResult(
            transaction=tx,
            arrival_time=result.arrival_time,
            parents_were_tips=(True, True),
            parent_ages=tuple(ages),
        )

    def test_fresh_parents_not_lazy(self):
        tangle = fresh_tangle()
        result = self._result_with_ages(tangle, (0.5, 1.0))
        assert not detect_lazy_approval(result)

    def test_old_parent_is_lazy(self):
        tangle = fresh_tangle()
        result = self._result_with_ages(tangle, (0.5, DEFAULT_MAX_PARENT_AGE + 1))
        assert detect_lazy_approval(result)

    def test_threshold_is_configurable(self):
        tangle = fresh_tangle()
        result = self._result_with_ages(tangle, (10.0, 10.0))
        assert detect_lazy_approval(result, max_parent_age=5.0)
        assert not detect_lazy_approval(result, max_parent_age=15.0)

    def test_boundary_age_not_lazy(self):
        tangle = fresh_tangle()
        result = self._result_with_ages(
            tangle, (DEFAULT_MAX_PARENT_AGE, DEFAULT_MAX_PARENT_AGE))
        assert not detect_lazy_approval(result)

    def test_concurrent_honest_race_not_punished(self):
        """Two honest devices approving the same fresh tips: the second
        one's parents are no longer tips but must NOT be lazy."""
        tangle = fresh_tangle()
        first = make_child(tangle, payload=b"first")
        tangle.attach(first, arrival_time=1.0)
        second = make_child(tangle, payload=b"second", timestamp=1.1)
        result = tangle.attach(second, arrival_time=1.1)
        assert result.parents_were_tips == (False, False)
        assert not detect_lazy_approval(result)


class TestVerificationCache:
    def test_check_miss_then_confirm_then_hit(self):
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        assert not cache.check(b"h1")
        cache.confirm(b"h1")
        assert cache.check(b"h1")
        assert b"h1" in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache(max_size=2)
        cache.confirm(b"a")
        cache.confirm(b"b")
        cache.check(b"a")  # refresh a's slot
        cache.confirm(b"c")  # evicts b, the least recently used
        assert cache.evictions == 1
        assert b"b" not in cache
        assert b"a" in cache and b"c" in cache

    def test_max_size_validated(self):
        from repro.tangle.validation import VerificationCache

        with pytest.raises(ValueError):
            VerificationCache(max_size=0)

    def test_counts_hits_and_misses(self):
        from repro.telemetry.registry import MetricsRegistry
        from repro.tangle.validation import VerificationCache

        telemetry = MetricsRegistry()
        cache = VerificationCache(telemetry=telemetry)
        cache.check(b"x")
        cache.confirm(b"x")
        cache.check(b"x")
        cache.check(b"x")
        assert telemetry.counter("repro_cache_verify_hits_total").total == 2.0
        assert telemetry.counter("repro_cache_verify_misses_total").total == 1.0


class TestCryptoValidatorWithCache:
    def test_cache_skips_reverification(self, monkeypatch):
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        validator = crypto_validator(cache=cache)
        tangle_a = fresh_tangle(validator)
        tx = make_child(tangle_a)
        tangle_a.attach(tx)
        assert tx.full_digest in cache
        # A second tangle sharing the cache must not call the verifiers.
        tangle_b = fresh_tangle(validator)
        monkeypatch.setattr(
            Transaction, "verify_pow",
            lambda self: pytest.fail("verify_pow called on cache hit"))
        monkeypatch.setattr(
            Transaction, "verify_signature",
            lambda self: pytest.fail("verify_signature called on cache hit"))
        tangle_b.attach(tx)

    def test_failed_verification_is_not_cached(self):
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        tangle = fresh_tangle(crypto_validator(cache=cache))
        tx = make_child(tangle, difficulty=14, nonce=0)
        if tx.verify_pow():
            pytest.skip("nonce 0 accidentally met difficulty")
        with pytest.raises(InvalidPowError):
            tangle.attach(tx)
        assert tx.full_digest not in cache
        assert len(cache) == 0

    def test_forged_signature_does_not_hit_shared_cache(self):
        """tx_hash does not commit to the signature, so a relayed copy
        with the same content but corrupted signature bytes must NOT
        inherit the original's cached verification."""
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        validator = crypto_validator(cache=cache)
        tangle_a = fresh_tangle(validator)
        good = make_child(tangle_a)
        tangle_a.attach(good)
        forged = Transaction(
            kind=good.kind, issuer=good.issuer, payload=good.payload,
            timestamp=good.timestamp, branch=good.branch, trunk=good.trunk,
            difficulty=good.difficulty, nonce=good.nonce,
            signature=bytes(64),
        )
        assert forged.tx_hash == good.tx_hash
        assert forged.full_digest != good.full_digest
        tangle_b = fresh_tangle(validator)
        with pytest.raises(InvalidSignatureError):
            tangle_b.attach(forged)
        # The genuine instance still verifies from the cache.
        tangle_b.attach(good)

    def test_simulated_confirmation_does_not_bypass_enforcing_pow(self):
        """A cache shared between a simulated-PoW validator and an
        enforcing one must not let the former's confirmations skip the
        latter's nonce check."""
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        permissive = fresh_tangle(
            crypto_validator(allow_simulated_pow=True, cache=cache))
        tx = make_child(permissive, difficulty=14, nonce=0)
        if tx.verify_pow():
            pytest.skip("nonce 0 accidentally met difficulty")
        permissive.attach(tx)  # confirmed signature-only
        assert tx.full_digest in cache
        enforcing = fresh_tangle(crypto_validator(cache=cache))
        with pytest.raises(InvalidPowError):
            enforcing.attach(tx)

    def test_enforcing_verification_upgrades_simulated_entry(self):
        from repro.tangle.validation import VerificationCache

        cache = VerificationCache()
        permissive = fresh_tangle(
            crypto_validator(allow_simulated_pow=True, cache=cache))
        tx = make_child(permissive)  # real PoW, also valid when enforced
        permissive.attach(tx)
        enforcing = fresh_tangle(crypto_validator(cache=cache))
        enforcing.attach(tx)  # verifies the nonce, upgrades the entry
        assert cache.check(tx.full_digest, require_pow=True)
        # ...and a later simulated confirm must not downgrade it back.
        cache.confirm(tx.full_digest, pow_verified=False)
        assert cache.check(tx.full_digest, require_pow=True)


class TestTransactionDecodeCache:
    def test_decode_hit_returns_same_instance(self):
        from repro.tangle.transaction import TransactionDecodeCache

        cache = TransactionDecodeCache()
        tangle = fresh_tangle()
        encoded = make_child(tangle).to_bytes()
        first = cache.decode(encoded)
        second = cache.decode(encoded)
        assert second is first
        assert len(cache) == 1

    def test_junk_raises_and_is_not_cached(self):
        from repro.tangle.transaction import TransactionDecodeCache

        cache = TransactionDecodeCache()
        with pytest.raises(ValueError):
            cache.decode(b"junk")
        assert len(cache) == 0
        with pytest.raises(ValueError):
            cache.decode(b"junk")

    def test_lru_eviction(self):
        from repro.tangle.transaction import TransactionDecodeCache

        cache = TransactionDecodeCache(max_size=2)
        tangle = fresh_tangle()
        payloads = [make_child(tangle, payload=bytes([i])).to_bytes()
                    for i in range(3)]
        cache.decode(payloads[0])
        cache.decode(payloads[1])
        cache.decode(payloads[0])  # refresh 0
        cache.decode(payloads[2])  # evicts 1
        assert cache.evictions == 1
        assert cache.decode(payloads[0]) is not None
        assert len(cache) == 2

    def test_counts_hits_and_misses(self):
        from repro.telemetry.registry import MetricsRegistry
        from repro.tangle.transaction import TransactionDecodeCache

        telemetry = MetricsRegistry()
        cache = TransactionDecodeCache(telemetry=telemetry)
        tangle = fresh_tangle()
        encoded = make_child(tangle).to_bytes()
        cache.decode(encoded)
        cache.decode(encoded)
        cache.decode(encoded)
        assert telemetry.counter("repro_cache_decode_hits_total").total == 2.0
        assert telemetry.counter("repro_cache_decode_misses_total").total == 1.0
