"""Property-based tests on the credit model and difficulty policies.

These pin the *qualitative laws* the mechanism's security argument
rests on, over randomly generated behaviour histories:

* CrP is non-negative; CrN is non-positive; Eqn. 2 composes linearly;
* penalties decay monotonically but never reach zero;
* more malice never helps: credit is monotone non-increasing in the
  set of malicious events;
* difficulty policies are monotone non-increasing in credit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.consensus import (
    FixedDifficultyPolicy,
    InverseDifficultyPolicy,
)
from repro.core.credit import CreditParameters, CreditRegistry, MaliciousBehaviour

NODE = b"\x09" * 32

timestamps = st.lists(
    st.floats(min_value=0.0, max_value=500.0), min_size=0, max_size=20)
behaviours = st.sampled_from([
    MaliciousBehaviour.LAZY_TIPS,
    MaliciousBehaviour.DOUBLE_SPENDING,
    MaliciousBehaviour.BAD_DATA,
])


def registry_with(tx_times, malice):
    registry = CreditRegistry()
    for t in tx_times:
        registry.record_transaction(NODE, bytes(32), t)
    for t, kind in malice:
        registry.record_malicious(NODE, kind, t)
    return registry


class TestCreditLaws:
    @given(tx_times=timestamps,
           now=st.floats(min_value=0.0, max_value=600.0))
    @settings(max_examples=50)
    def test_components_signed_correctly(self, tx_times, now):
        registry = registry_with(tx_times, [])
        assert registry.positive_credit(NODE, now) >= 0.0
        assert registry.negative_credit(NODE, now) == 0.0

    @given(tx_times=timestamps,
           malice_times=st.lists(
               st.tuples(st.floats(min_value=0.0, max_value=500.0),
                         behaviours), max_size=5),
           now=st.floats(min_value=0.0, max_value=600.0))
    @settings(max_examples=50)
    def test_eqn2_linear_composition(self, tx_times, malice_times, now):
        registry = registry_with(tx_times, malice_times)
        params = registry.params
        assert registry.credit(NODE, now) == pytest.approx(
            params.lambda1 * registry.positive_credit(NODE, now)
            + params.lambda2 * registry.negative_credit(NODE, now))

    @given(attack_time=st.floats(min_value=0.0, max_value=100.0),
           delta=st.floats(min_value=0.1, max_value=1000.0))
    @settings(max_examples=50)
    def test_penalty_decays_but_never_vanishes(self, attack_time, delta):
        registry = registry_with([], [(attack_time,
                                       MaliciousBehaviour.DOUBLE_SPENDING)])
        early = registry.negative_credit(NODE, attack_time + 0.1)
        later = registry.negative_credit(NODE, attack_time + 0.1 + delta)
        assert early <= later < 0.0

    @given(tx_times=timestamps,
           malice=st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=100.0), behaviours),
               min_size=0, max_size=5),
           extra=st.tuples(st.floats(min_value=0.0, max_value=100.0),
                           behaviours),
           now=st.floats(min_value=100.0, max_value=200.0))
    @settings(max_examples=50)
    def test_more_malice_never_helps(self, tx_times, malice, extra, now):
        base = registry_with(tx_times, malice)
        worse = registry_with(tx_times, malice + [extra])
        assert worse.credit(NODE, now) <= base.credit(NODE, now) + 1e-9

    @given(tx_times=timestamps,
           extra=st.floats(min_value=0.0, max_value=100.0),
           now=st.floats(min_value=100.0, max_value=200.0))
    @settings(max_examples=50)
    def test_more_activity_never_hurts(self, tx_times, extra, now):
        base = registry_with(tx_times, [])
        better = registry_with(tx_times + [extra], [])
        assert better.credit(NODE, now) >= base.credit(NODE, now) - 1e-9


POLICIES = [
    FixedDifficultyPolicy(11),
    InverseDifficultyPolicy(),
    InverseDifficultyPolicy(negative_mode="inverse"),
    InverseDifficultyPolicy(credit_scale=3.0, punish_bits=2.0),
    InverseDifficultyPolicy(min_difficulty=8, initial_difficulty=10,
                            max_difficulty=14),
]


class TestPolicyLaws:
    @given(a=st.floats(min_value=-100.0, max_value=100.0),
           b=st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=60)
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: type(p).__name__ + getattr(
                                 p, "negative_mode", ""))
    def test_monotone_non_increasing_in_credit(self, policy, a, b):
        low, high = sorted((a, b))
        assert policy.difficulty_for(low) >= policy.difficulty_for(high)

    @given(credit=st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=60)
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=lambda p: type(p).__name__ + getattr(
                                 p, "negative_mode", ""))
    def test_always_within_clamps(self, policy, credit):
        difficulty = policy.difficulty_for(credit)
        assert 1 <= difficulty <= 256
        if hasattr(policy, "min_difficulty"):
            assert (policy.min_difficulty <= difficulty
                    <= policy.max_difficulty)
