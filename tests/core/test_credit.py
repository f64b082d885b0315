"""Tests for repro.core.credit (Eqns. 2-5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.credit import (
    CreditParameters,
    CreditRegistry,
    MaliciousBehaviour,
)

NODE = b"\x01" * 32
OTHER = b"\x02" * 32


class TestParameters:
    def test_paper_defaults(self):
        params = CreditParameters()
        assert params.lambda1 == 1.0
        assert params.lambda2 == 0.5
        assert params.delta_t == 30.0
        assert params.punishment_coefficient(MaliciousBehaviour.LAZY_TIPS) == 0.5
        assert params.punishment_coefficient(
            MaliciousBehaviour.DOUBLE_SPENDING) == 1.0

    def test_unknown_behaviour_gets_harshest_alpha(self):
        params = CreditParameters()
        assert params.punishment_coefficient("novel-attack") == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"lambda1": -1.0},
        {"lambda2": -0.5},
        {"delta_t": 0.0},
        {"min_elapsed": 0.0},
        {"alpha": (("lazy-tips", -1.0),)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CreditParameters(**kwargs)


class TestPositiveCredit:
    def test_unknown_node_is_zero(self):
        registry = CreditRegistry()
        assert registry.positive_credit(NODE, 100.0) == 0.0

    def test_eqn3_with_unit_weights(self):
        registry = CreditRegistry()
        for t in (1.0, 2.0, 3.0):
            registry.record_transaction(NODE, bytes(32), t)
        # CrP = sum(w_k)/dT = 3/30
        assert registry.positive_credit(NODE, 10.0) == pytest.approx(0.1)

    def test_window_excludes_old_transactions(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 0.0)
        registry.record_transaction(NODE, bytes(32), 50.0)
        # At t=60, only the t=50 record lies inside [30, 60].
        assert registry.positive_credit(NODE, 60.0) == pytest.approx(1 / 30)

    def test_window_excludes_future_transactions(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 100.0)
        assert registry.positive_credit(NODE, 50.0) == 0.0

    def test_inactive_node_decays_to_zero(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 1.0)
        assert registry.positive_credit(NODE, 1.0) > 0
        assert registry.positive_credit(NODE, 100.0) == 0.0

    def test_weight_provider_scales_credit(self):
        weights = {b"\xaa" * 32: 5}
        registry = CreditRegistry(weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, b"\xaa" * 32, 1.0)
        assert registry.positive_credit(NODE, 2.0) == pytest.approx(5 / 30)

    def test_weight_provider_keyerror_falls_back_to_one(self):
        registry = CreditRegistry(weight_provider={}.__getitem__)
        registry.record_transaction(NODE, b"\xbb" * 32, 1.0)
        assert registry.positive_credit(NODE, 2.0) == pytest.approx(1 / 30)

    def test_set_weight_provider_after_construction(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, b"\xcc" * 32, 1.0)
        registry.set_weight_provider(lambda h: 3)
        assert registry.positive_credit(NODE, 2.0) == pytest.approx(3 / 30)

    def test_weight_capped_at_max_transaction_weight(self):
        registry = CreditRegistry(CreditParameters(max_transaction_weight=5.0))
        registry.set_weight_provider(lambda h: 1000)
        registry.record_transaction(NODE, b"\xdd" * 32, 1.0)
        # Eqn. 3 uses the capped weight, not the raw cumulative weight.
        assert registry.positive_credit(NODE, 2.0) == pytest.approx(5 / 30)

    def test_max_transaction_weight_validated(self):
        with pytest.raises(ValueError):
            CreditParameters(max_transaction_weight=0.0)


class TestNegativeCredit:
    def test_no_events_is_zero(self):
        assert CreditRegistry().negative_credit(NODE, 10.0) == 0.0

    def test_eqn4_single_event(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 10.0)
        # CrN = -alpha * dT/(t - t_k) = -1 * 30/10 = -3 at t=20.
        assert registry.negative_credit(NODE, 20.0) == pytest.approx(-3.0)

    def test_lazy_tips_half_penalty(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 10.0)
        assert registry.negative_credit(NODE, 20.0) == pytest.approx(-1.5)

    def test_min_elapsed_clamps_divergence(self):
        registry = CreditRegistry(CreditParameters(min_elapsed=0.5))
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 10.0)
        at_event = registry.negative_credit(NODE, 10.0)
        assert at_event == pytest.approx(-60.0)  # 30/0.5

    def test_penalty_decays_but_never_vanishes(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 0.0)
        early = registry.negative_credit(NODE, 1.0)
        late = registry.negative_credit(NODE, 10_000.0)
        assert early < late < 0.0

    def test_penalties_accumulate(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 0.0)
        one = registry.negative_credit(NODE, 10.0)
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 5.0)
        two = registry.negative_credit(NODE, 10.0)
        assert two < one

    def test_future_events_ignored(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 100.0)
        assert registry.negative_credit(NODE, 50.0) == 0.0


class TestCombinedCredit:
    def test_eqn2_composition(self):
        params = CreditParameters(lambda1=1.0, lambda2=0.5)
        registry = CreditRegistry(params)
        registry.record_transaction(NODE, bytes(32), 9.0)
        registry.record_malicious(NODE, MaliciousBehaviour.DOUBLE_SPENDING, 5.0)
        now = 10.0
        expected = (1.0 * registry.positive_credit(NODE, now)
                    + 0.5 * registry.negative_credit(NODE, now))
        assert registry.credit(NODE, now) == pytest.approx(expected)

    def test_lambda2_strictness(self):
        lenient = CreditRegistry(CreditParameters(lambda2=0.1))
        strict = CreditRegistry(CreditParameters(lambda2=2.0))
        for registry in (lenient, strict):
            registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 0.0)
        assert strict.credit(NODE, 10.0) < lenient.credit(NODE, 10.0)

    def test_nodes_are_independent(self):
        registry = CreditRegistry()
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 0.0)
        registry.record_transaction(OTHER, bytes(32), 5.0)
        assert registry.credit(NODE, 10.0) < 0
        assert registry.credit(OTHER, 10.0) > 0

    def test_breakdown_consistent(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 9.0)
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 5.0)
        breakdown = registry.breakdown(NODE, 10.0)
        assert breakdown.credit == pytest.approx(registry.credit(NODE, 10.0))
        assert breakdown.positive == pytest.approx(
            registry.positive_credit(NODE, 10.0))
        assert breakdown.negative == pytest.approx(
            registry.negative_credit(NODE, 10.0))
        assert breakdown.active_transactions == 1
        assert breakdown.malicious_events == 1

    @given(st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=30)
    def test_property_credit_without_malice_non_negative(self, now):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 5.0)
        assert registry.credit(NODE, now) >= 0.0


class TestBookkeeping:
    def test_counts(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 1.0)
        registry.record_transaction(NODE, bytes(32), 2.0)
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 3.0)
        assert registry.transaction_count(NODE) == 2
        assert registry.malicious_count(NODE) == 1
        assert registry.transaction_count(OTHER) == 0

    def test_forget_before_prunes_transactions_only(self):
        registry = CreditRegistry()
        registry.record_transaction(NODE, bytes(32), 1.0)
        registry.record_transaction(NODE, bytes(32), 50.0)
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 1.0)
        dropped = registry.forget_before(NODE, 40.0)
        assert dropped == 1
        assert registry.transaction_count(NODE) == 1
        # Malicious history survives pruning (Eqn. 4 never forgets).
        assert registry.malicious_count(NODE) == 1
        assert registry.negative_credit(NODE, 60.0) < 0

    def test_forget_before_unknown_node(self):
        assert CreditRegistry().forget_before(NODE, 10.0) == 0
