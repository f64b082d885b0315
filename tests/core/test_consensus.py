"""Tests for repro.core.consensus (credit-based PoW)."""

import pytest

from repro.core.consensus import (
    DEFAULT_INITIAL_DIFFICULTY,
    DEFAULT_MAX_DIFFICULTY,
    DEFAULT_MIN_DIFFICULTY,
    CreditBasedConsensus,
    FixedDifficultyPolicy,
    InverseDifficultyPolicy,
)
from repro.core.credit import CreditRegistry, MaliciousBehaviour
from repro.crypto.keys import KeyPair
from repro.tangle.errors import InvalidPowError
from repro.tangle.tangle import Tangle
from repro.tangle.transaction import Transaction

KEYS = KeyPair.generate(seed=b"consensus-tests")
NODE = KEYS.node_id


class TestFixedPolicy:
    def test_constant(self):
        policy = FixedDifficultyPolicy(11)
        assert policy.difficulty_for(-100) == 11
        assert policy.difficulty_for(0) == 11
        assert policy.difficulty_for(100) == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDifficultyPolicy(0)


class TestInversePolicy:
    def test_neutral_credit_gets_initial(self):
        policy = InverseDifficultyPolicy()
        assert policy.difficulty_for(0.0) == DEFAULT_INITIAL_DIFFICULTY

    def test_positive_credit_lowers_difficulty(self):
        policy = InverseDifficultyPolicy()
        assert policy.difficulty_for(1.0) < DEFAULT_INITIAL_DIFFICULTY
        assert policy.difficulty_for(10.0) < policy.difficulty_for(1.0)

    def test_negative_credit_raises_difficulty(self):
        policy = InverseDifficultyPolicy()
        assert policy.difficulty_for(-1.0) > DEFAULT_INITIAL_DIFFICULTY
        assert policy.difficulty_for(-5.0) > policy.difficulty_for(-1.0)

    def test_clamped_to_bounds(self):
        policy = InverseDifficultyPolicy()
        assert policy.difficulty_for(10 ** 9) == DEFAULT_MIN_DIFFICULTY
        assert policy.difficulty_for(-10 ** 9) == DEFAULT_MAX_DIFFICULTY

    def test_custom_bounds_clamp_both_branches(self):
        policy = InverseDifficultyPolicy(min_difficulty=8,
                                         initial_difficulty=10,
                                         max_difficulty=14)
        assert policy.difficulty_for(0.0) == 10
        assert policy.difficulty_for(0.25) == 8  # 10 / 1.25
        assert policy.difficulty_for(100.0) == 8
        assert policy.difficulty_for(-1.0) == 11  # 10 + 1.2 bits
        assert policy.difficulty_for(-10 ** 6) == 14

    def test_monotone_decreasing(self):
        policy = InverseDifficultyPolicy()
        credits = [-50, -10, -1, 0, 0.5, 1, 5, 50]
        difficulties = [policy.difficulty_for(c) for c in credits]
        assert difficulties == sorted(difficulties, reverse=True)

    def test_credit_scale_halves_difficulty(self):
        policy = InverseDifficultyPolicy(credit_scale=2.0,
                                         initial_difficulty=12)
        # Cr == scale halves the difficulty: 12 * 2/(2+2) = 6.
        assert policy.difficulty_for(2.0) == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InverseDifficultyPolicy(credit_scale=0.0)
        with pytest.raises(ValueError):
            InverseDifficultyPolicy(initial_difficulty=30,
                                    max_difficulty=24)
        with pytest.raises(ValueError):
            InverseDifficultyPolicy(min_difficulty=12, initial_difficulty=11)
        with pytest.raises(ValueError):
            InverseDifficultyPolicy(negative_mode="squared")
        with pytest.raises(ValueError):
            InverseDifficultyPolicy(punish_bits=0.0)

    def test_log_time_mode_calibration(self):
        """One unit of negative credit at scale 1 adds punish_bits bits;
        the Fig. 8 recovery (~37 s ≈ D0+6) is reachable, not a ban."""
        policy = InverseDifficultyPolicy(punish_bits=1.5)
        assert policy.difficulty_for(-1.0) == round(
            DEFAULT_INITIAL_DIFFICULTY + 1.5)
        assert policy.difficulty_for(-15.0) == pytest.approx(
            DEFAULT_INITIAL_DIFFICULTY + 1.5 * 4, abs=1)

    def test_inverse_mode_saturates(self):
        """The literal hyperbola (ablation) hits the clamp immediately —
        the behaviour that motivated the log-time default."""
        policy = InverseDifficultyPolicy(negative_mode="inverse")
        assert policy.difficulty_for(-5.0) == DEFAULT_MAX_DIFFICULTY

    def test_both_modes_agree_on_positive_credit(self):
        log_time = InverseDifficultyPolicy(negative_mode="log-time")
        inverse = InverseDifficultyPolicy(negative_mode="inverse")
        for credit in (0.0, 0.5, 2.0, 10.0):
            assert (log_time.difficulty_for(credit)
                    == inverse.difficulty_for(credit))


class TestCreditBasedConsensus:
    def _tangle_with(self, consensus):
        genesis = Transaction.create_genesis(KEYS)
        return Tangle(genesis, validators=[consensus.validator]), genesis

    def test_fresh_node_gets_initial_difficulty(self):
        consensus = CreditBasedConsensus()
        assert consensus.required_difficulty(NODE, 0.0) == DEFAULT_INITIAL_DIFFICULTY

    def test_activity_lowers_required_difficulty(self):
        consensus = CreditBasedConsensus()
        for t in range(0, 30):
            consensus.registry.record_transaction(NODE, bytes(32), float(t))
        assert (consensus.required_difficulty(NODE, 30.0)
                < DEFAULT_INITIAL_DIFFICULTY)

    def test_double_spend_report_raises_difficulty(self):
        consensus = CreditBasedConsensus()
        consensus.report_double_spend(NODE, 10.0)
        assert consensus.double_spend_reports == 1
        assert (consensus.required_difficulty(NODE, 10.5)
                > DEFAULT_INITIAL_DIFFICULTY)

    def test_observe_attach_records_honest_transaction(self):
        consensus = CreditBasedConsensus()
        tangle, genesis = self._tangle_with(CreditBasedConsensus())
        tx = Transaction.create(
            KEYS, kind="data", payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=DEFAULT_INITIAL_DIFFICULTY,
        )
        result = tangle.attach(tx, arrival_time=1.0)
        lazy = consensus.observe_attach(result)
        assert not lazy
        assert consensus.registry.transaction_count(NODE) == 1

    def test_observe_attach_flags_lazy(self):
        consensus = CreditBasedConsensus(max_parent_age=5.0)
        tangle, genesis = self._tangle_with(CreditBasedConsensus())
        tx = Transaction.create(
            KEYS, kind="data", payload=b"x", timestamp=50.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=DEFAULT_INITIAL_DIFFICULTY,
        )
        result = tangle.attach(tx, arrival_time=50.0)
        assert consensus.observe_attach(result)
        assert consensus.lazy_detections == 1
        assert consensus.registry.malicious_count(NODE) == 1

    def test_validator_rejects_undercut_difficulty(self):
        consensus = CreditBasedConsensus(difficulty_tolerance=0)
        consensus.report_double_spend(NODE, 0.0)
        tangle, genesis = self._tangle_with(consensus)
        cheap = Transaction.create(
            KEYS, kind="data", payload=b"x", timestamp=0.5,
            branch=genesis.tx_hash, trunk=genesis.tx_hash, difficulty=2,
        )
        with pytest.raises(InvalidPowError, match="credit-required"):
            tangle.attach(cheap, arrival_time=0.5)

    def test_validator_tolerance(self):
        consensus = CreditBasedConsensus(difficulty_tolerance=2)
        required = consensus.required_difficulty(NODE, 1.0)
        tangle, genesis = self._tangle_with(consensus)
        slightly_low = Transaction.create(
            KEYS, kind="data", payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=required - 2,
        )
        tangle.attach(slightly_low, arrival_time=1.0)  # accepted

    def test_validator_accepts_exact_requirement(self):
        consensus = CreditBasedConsensus(difficulty_tolerance=0)
        required = consensus.required_difficulty(NODE, 1.0)
        tangle, genesis = self._tangle_with(consensus)
        exact = Transaction.create(
            KEYS, kind="data", payload=b"x", timestamp=1.0,
            branch=genesis.tx_hash, trunk=genesis.tx_hash,
            difficulty=required,
        )
        tangle.attach(exact, arrival_time=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CreditBasedConsensus(max_parent_age=0.0)
        with pytest.raises(ValueError):
            CreditBasedConsensus(difficulty_tolerance=-1)

    def test_recovery_over_time(self):
        """The Fig. 8 story: punished credit recovers as time passes."""
        consensus = CreditBasedConsensus()
        consensus.report_double_spend(NODE, 100.0)
        punished = consensus.required_difficulty(NODE, 101.0)
        recovered = consensus.required_difficulty(NODE, 1000.0)
        assert punished > recovered
        assert recovered >= DEFAULT_INITIAL_DIFFICULTY  # scar remains
