"""Property tests for repro.faults.backoff: the retry clock's
invariants hold for every policy, not just the default one."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.backoff import BackoffPolicy, DEFAULT_BACKOFF


def policies():
    """Valid policy space: max_delay derived as a multiple of base."""
    return st.builds(
        lambda base, factor, mult, jitter, attempts: BackoffPolicy(
            base_delay=base,
            multiplier=mult,
            max_delay=base * factor,
            jitter=jitter,
            max_attempts=attempts,
        ),
        st.floats(min_value=1e-3, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=1.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=1.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=20),
    )


class TestNominalDelay:
    @given(policy=policies())
    def test_monotone_and_bounded(self, policy):
        previous = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            nominal = policy.nominal_delay(attempt)
            assert nominal >= previous
            assert nominal <= policy.max_delay
            previous = nominal

    @given(policy=policies())
    def test_first_attempt_is_base_delay(self, policy):
        assert policy.nominal_delay(1) == pytest.approx(policy.base_delay)

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            DEFAULT_BACKOFF.nominal_delay(0)


class TestJitter:
    @given(policy=policies(), seed=st.integers(min_value=0, max_value=2**32),
           attempt=st.integers(min_value=1, max_value=20))
    def test_jittered_delay_within_cap(self, policy, seed, attempt):
        attempt = min(attempt, policy.max_attempts)
        nominal = policy.nominal_delay(attempt)
        delay = policy.delay(attempt, random.Random(seed))
        assert nominal <= delay <= nominal * (1.0 + policy.jitter) + 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_zero_jitter_consumes_no_randomness(self, seed):
        policy = BackoffPolicy(jitter=0.0)
        rng = random.Random(seed)
        before = rng.getstate()
        delay = policy.delay(3, rng)
        assert rng.getstate() == before
        assert delay == policy.nominal_delay(3)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_jitter_consumes_exactly_one_draw(self, seed):
        policy = BackoffPolicy(jitter=0.5)
        rng_a = random.Random(seed)
        rng_b = random.Random(seed)
        policy.delay(1, rng_a)
        rng_b.random()
        assert rng_a.getstate() == rng_b.getstate()


def retry_delays(policy, rng):
    """The delays of a retry loop that exhausts every attempt."""
    return [policy.delay(attempt, rng)
            for attempt in range(1, policy.max_attempts + 1)]


class TestSchedule:
    @given(policy=policies(), seed=st.integers(min_value=0, max_value=2**32))
    def test_same_seed_reproduces_schedule(self, policy, seed):
        first = retry_delays(policy, random.Random(seed))
        second = retry_delays(policy, random.Random(seed))
        assert first == second

    @given(policy=policies(), seed=st.integers(min_value=0, max_value=2**32))
    def test_schedule_entries_all_bounded(self, policy, seed):
        for delay in retry_delays(policy, random.Random(seed)):
            assert delay <= policy.max_delay * (1.0 + policy.jitter) + 1e-12

    @given(policy=policies())
    def test_exhaustion_boundary(self, policy):
        assert not policy.exhausted(policy.max_attempts - 1) \
            or policy.max_attempts == 1
        assert policy.exhausted(policy.max_attempts)
        assert policy.exhausted(policy.max_attempts + 1)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_delay": 0.0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"max_delay": 0.1, "base_delay": 0.5},
        {"jitter": -0.1},
        {"jitter": 1.5},
        {"max_attempts": 0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_default_policy_is_sane(self):
        assert DEFAULT_BACKOFF.max_attempts == 5
        assert DEFAULT_BACKOFF.nominal_delay(5) == DEFAULT_BACKOFF.max_delay
