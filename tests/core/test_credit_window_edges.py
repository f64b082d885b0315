"""Edge cases of the incremental CrP window (Eqn. 3).

The rolling aggregate in :class:`~repro.core.credit.CreditRegistry`
must agree with the definition — sum of weights of records with
``now - ΔT <= t_k <= now`` — at every boundary and through every
invalidation path: records landing exactly on the window edges,
out-of-order arrivals, pruning through the middle of a live window,
provider weight growth pulled against clean and dirty windows, and
export/import round trips of the incremental state.
"""

import pytest

from repro.core.credit import CreditParameters, CreditRegistry, MaliciousBehaviour

NODE = b"\x11" * 32
OTHER = b"\x22" * 32


def make_hash(i: int) -> bytes:
    return bytes([i + 1]) * 32


class TestWindowBoundaries:
    def test_record_exactly_at_window_start_is_included(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 70.0)
        # now - ΔT == 70.0 exactly: inclusive lower bound.
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0

    def test_record_just_before_window_start_is_excluded(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 69.75)
        assert registry.positive_credit(NODE, 100.0) == 0.0

    def test_record_exactly_at_now_is_included(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 100.0)
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0

    def test_future_record_is_excluded_then_enters(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 105.0)
        assert registry.positive_credit(NODE, 100.0) == 0.0
        # ... and is admitted once the frontier reaches it.
        assert registry.positive_credit(NODE, 105.0) == 1.0 / 30.0

    def test_record_slides_out_as_frontier_advances(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 10.0)
        assert registry.positive_credit(NODE, 10.0) == 1.0 / 30.0
        assert registry.positive_credit(NODE, 40.0) == 1.0 / 30.0  # edge: 40-30=10
        assert registry.positive_credit(NODE, 40.25) == 0.0

    def test_empty_window_sum_is_exactly_zero(self):
        # The running sum resets to literal 0.0 when the window empties:
        # no accumulated float residue may survive.
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for i in range(50):
            registry.record_transaction(NODE, make_hash(i % 8), float(i))
        assert registry.positive_credit(NODE, 49.0) > 0.0
        assert registry.positive_credit(NODE, 1000.0) == 0.0
        assert registry._history[NODE].w_sum == 0.0


class TestOutOfOrderTimestamps:
    def test_out_of_order_insert_lands_in_window(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 100.0)
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0
        # A record older than the newest arrives late but inside the
        # window: the next evaluation must see it.
        registry.record_transaction(NODE, make_hash(1), 90.0)
        assert registry.positive_credit(NODE, 100.0) == 2.0 / 30.0

    def test_out_of_order_insert_behind_window(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 100.0)
        registry.positive_credit(NODE, 100.0)
        registry.record_transaction(NODE, make_hash(1), 10.0)
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0
        # Evaluating back at the old record's time sees only it.
        assert registry.positive_credit(NODE, 10.0) == 1.0 / 30.0

    def test_non_monotone_evaluation_times(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for t in (10.0, 20.0, 50.0, 80.0):
            registry.record_transaction(NODE, make_hash(int(t)), t)
        # Forward, backward, forward again — each against the definition.
        assert registry.positive_credit(NODE, 80.0) == 2.0 / 30.0  # 50, 80
        assert registry.positive_credit(NODE, 20.0) == 2.0 / 30.0  # 10, 20
        assert registry.positive_credit(NODE, 49.75) == 1.0 / 30.0  # 20
        assert registry.positive_credit(NODE, 80.0) == 2.0 / 30.0

    def test_duplicate_timestamps_all_count(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for i in range(5):
            registry.record_transaction(NODE, make_hash(i), 42.0)
        assert registry.positive_credit(NODE, 42.0) == 5.0 / 30.0


class TestInOrderAppendBehindWindow:
    """An append can be in-order (>= the newest timestamp) yet older
    than the window start when the evaluation frontier ran far ahead of
    the records.  Such appends are inadmissible and must not leave the
    eager-admission indices pointing at the wrong record."""

    def test_stale_append_then_in_window_append(self):
        weights = {make_hash(0): 1.0, make_hash(1): 1.0, make_hash(2): 3.0}
        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, make_hash(0), 0.0)
        assert registry.positive_credit(NODE, 300.0) == 0.0
        registry.record_transaction(NODE, make_hash(1), 1.0)  # behind 270
        registry.record_transaction(NODE, make_hash(2), 299.0)
        # Only the t=299 record is in [270, 300].
        assert registry.positive_credit(NODE, 300.0) == 3.0 / 30.0

    def test_repeated_stale_appends(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 0.0)
        assert registry.positive_credit(NODE, 300.0) == 0.0
        for i in range(1, 5):
            registry.record_transaction(NODE, make_hash(i), float(i))
        registry.record_transaction(NODE, make_hash(5), 280.0)
        registry.record_transaction(NODE, make_hash(6), 300.0)
        assert registry.positive_credit(NODE, 300.0) == 2.0 / 30.0

    def test_weight_growth_after_stale_append(self):
        """Weight growth between the stale append and the next
        evaluation must not corrupt the (invalidated) window sum."""
        weights = {make_hash(0): 1.0, make_hash(1): 1.0}
        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, make_hash(0), 0.0)
        assert registry.positive_credit(NODE, 300.0) == 0.0
        registry.record_transaction(NODE, make_hash(1), 1.0)
        weights[make_hash(1)] = 4.0
        assert registry.positive_credit(NODE, 300.0) == 0.0
        assert registry.positive_credit(NODE, 31.0) == 4.0 / 30.0


class TestForgetMidWindow:
    def test_forget_before_cuts_through_live_window(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for t in (75.0, 80.0, 90.0, 100.0):
            registry.record_transaction(NODE, make_hash(int(t)), t)
        assert registry.positive_credit(NODE, 100.0) == 4.0 / 30.0
        # Prune through the middle of the active window: 75 and 80 go.
        assert registry.forget_before(NODE, 85.0) == 2
        assert registry.positive_credit(NODE, 100.0) == 2.0 / 30.0
        assert registry.transaction_count(NODE) == 2

    def test_forget_exactly_at_record_keeps_it(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        registry.record_transaction(NODE, make_hash(0), 50.0)
        assert registry.forget_before(NODE, 50.0) == 0  # >= cutoff survives
        assert registry.transaction_count(NODE) == 1
        assert registry.forget_before(NODE, 50.25) == 1
        assert registry.transaction_count(NODE) == 0

    def test_forget_never_touches_malicious(self):
        registry = CreditRegistry(CreditParameters())
        registry.record_malicious(
            NODE, MaliciousBehaviour.DOUBLE_SPENDING, 10.0)
        registry.forget_before(NODE, 1e9)
        assert registry.malicious_count(NODE) == 1
        assert registry.negative_credit(NODE, 1e9) < 0.0

    def test_forget_then_weight_growth_on_pruned_hash(self):
        # Growth of a fully pruned record's hash must be a no-op: the
        # record left the unsaturated set with the history, so nothing
        # re-reads it and nobody's window moves.
        weights = {make_hash(0): 1.0, make_hash(1): 1.0}
        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        registry.record_transaction(OTHER, make_hash(1), 10.0)
        assert registry.positive_credit(NODE, 10.0) == 1.0 / 30.0
        registry.forget_before(NODE, 20.0)
        weights[make_hash(0)] = 5.0
        assert registry.positive_credit(NODE, 10.0) == 0.0
        assert registry._history[NODE].unsaturated == []
        assert registry.positive_credit(OTHER, 10.0) == 1.0 / 30.0

    def test_forget_mid_window_then_growth_of_dropped_record(self):
        # The dropped record sat inside the live window; its later
        # growth must not leak into the sum of the records that stayed.
        weights = {make_hash(0): 1.0, make_hash(1): 1.0}
        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, make_hash(0), 80.0)
        registry.record_transaction(NODE, make_hash(1), 90.0)
        assert registry.positive_credit(NODE, 100.0) == 2.0 / 30.0
        registry.forget_before(NODE, 85.0)
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0
        weights[make_hash(0)] = 4.0
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0


class TestWeightGrowth:
    """The pull contract: the provider's value for a hash grows, nothing
    is pushed, and the next evaluation of the issuer observes it."""

    def _registry(self, weights, **params):
        return CreditRegistry(CreditParameters(delta_t=30.0, **params),
                              weight_provider=weights.__getitem__)

    def test_growth_adjusts_clean_window_sum(self):
        weights = {make_hash(0): 1.0}
        registry = self._registry(weights)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        assert registry.positive_credit(NODE, 10.0) == 1.0 / 30.0
        weights[make_hash(0)] = 3.0
        assert registry.positive_credit(NODE, 10.0) == 3.0 / 30.0

    def test_growth_respects_cap(self):
        weights = {make_hash(0): 1.0}
        registry = self._registry(weights, max_transaction_weight=5.0)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        weights[make_hash(0)] = 1000.0
        assert registry.positive_credit(NODE, 10.0) == 5.0 / 30.0

    def test_growth_of_record_newer_than_window_frontier(self):
        # Record lands after the last evaluation; its weight grows
        # before the next evaluation.  The eager-admit path keeps the
        # rolling sum and the definition in agreement.
        weights = {make_hash(0): 1.0, make_hash(1): 1.0}
        registry = self._registry(weights)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        assert registry.positive_credit(NODE, 20.0) == 1.0 / 30.0
        registry.record_transaction(NODE, make_hash(1), 20.0)
        weights[make_hash(1)] = 4.0
        assert registry.positive_credit(NODE, 20.0) == 5.0 / 30.0

    def test_growth_same_hash_recorded_by_multiple_nodes(self):
        weights = {make_hash(0): 1.0}
        registry = self._registry(weights)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        registry.record_transaction(OTHER, make_hash(0), 12.0)
        weights[make_hash(0)] = 2.0
        assert registry.positive_credit(NODE, 15.0) == 2.0 / 30.0
        assert registry.positive_credit(OTHER, 15.0) == 2.0 / 30.0

    def test_growth_of_out_of_window_record(self):
        # The record has slid out of the window when it grows; it must
        # re-enter with its new weight when the window moves back.
        weights = {make_hash(0): 1.0, make_hash(1): 1.0}
        registry = self._registry(weights)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        registry.record_transaction(NODE, make_hash(1), 100.0)
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0
        weights[make_hash(0)] = 3.0
        assert registry.positive_credit(NODE, 100.0) == 1.0 / 30.0
        assert registry.positive_credit(NODE, 10.0) == 3.0 / 30.0

    def test_growth_under_dirty_window(self):
        # An out-of-order insert invalidates the window; growth pulled
        # while it is dirty must not be applied to the stale sum.
        weights = {make_hash(i): 1.0 for i in range(3)}
        registry = self._registry(weights)
        registry.record_transaction(NODE, make_hash(0), 90.0)
        registry.record_transaction(NODE, make_hash(1), 100.0)
        assert registry.positive_credit(NODE, 100.0) == 2.0 / 30.0
        registry.record_transaction(NODE, make_hash(2), 95.0)  # dirty
        weights[make_hash(0)] = 4.0
        weights[make_hash(2)] = 2.0
        assert registry.positive_credit(NODE, 100.0) == 7.0 / 30.0

    def test_saturated_record_is_never_read_again(self):
        reads = []
        weights = {make_hash(0): 1.0}

        def provider(tx_hash):
            reads.append(tx_hash)
            return weights[tx_hash]

        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=provider)
        registry.record_transaction(NODE, make_hash(0), 10.0)
        weights[make_hash(0)] = 5.0
        assert registry.positive_credit(NODE, 10.0) == 5.0 / 30.0
        reads.clear()
        assert registry.positive_credit(NODE, 11.0) == 5.0 / 30.0
        assert reads == []
        # ...until a re-bind: saturation is a fact about one provider.
        registry.set_weight_provider({make_hash(0): 2.0}.__getitem__)
        assert registry.positive_credit(NODE, 11.0) == 2.0 / 30.0

    def test_without_provider_nothing_is_pulled(self):
        # Weights are constants: a long history must not be re-read.
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for i in range(100):
            registry.record_transaction(NODE, make_hash(i % 8), float(i))
        assert registry._history[NODE].unsaturated == []
        assert registry.positive_credit(NODE, 99.0) == 31.0 / 30.0


class TestExportImportRoundTrip:
    def _populated(self) -> CreditRegistry:
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for i, t in enumerate((75.0, 80.0, 90.0, 99.75, 100.0)):
            registry.record_transaction(NODE, make_hash(i), t)
        registry.record_transaction(OTHER, make_hash(9), 95.0)
        registry.record_malicious(NODE, MaliciousBehaviour.LAZY_TIPS, 60.0)
        return registry

    def test_round_trip_preserves_evaluations(self):
        registry = self._populated()
        state = registry.export_state(now=100.0)
        restored = CreditRegistry(CreditParameters(delta_t=30.0))
        restored.import_state(state)
        for node_id in (NODE, OTHER):
            for now in (100.0, 110.0, 129.75, 130.0, 200.0):
                assert restored.credit(node_id, now) == \
                    registry.credit(node_id, now)

    def test_round_trip_drops_expired_records_only(self):
        registry = self._populated()
        registry.record_transaction(NODE, make_hash(7), 10.0)  # expired
        state = registry.export_state(now=100.0)
        restored = CreditRegistry(CreditParameters(delta_t=30.0))
        restored.import_state(state)
        assert restored.transaction_count(NODE) == 5  # 70.0 <= t
        assert restored.malicious_count(NODE) == 1

    def test_double_round_trip_is_stable(self):
        registry = self._populated()
        once = CreditRegistry(CreditParameters(delta_t=30.0))
        once.import_state(registry.export_state(now=100.0))
        twice = CreditRegistry(CreditParameters(delta_t=30.0))
        twice.import_state(once.export_state(now=100.0))
        for now in (100.0, 115.0, 130.0):
            assert twice.credit(NODE, now) == once.credit(NODE, now)

    def test_imported_weights_survive_without_provider(self):
        # Export resolves weights at snapshot time; an importer that
        # cannot resolve the hash (pruned tangle) must keep using them.
        weights = {make_hash(0): 4.0}
        registry = CreditRegistry(
            CreditParameters(delta_t=30.0),
            weight_provider=lambda h: weights[h])
        registry.record_transaction(NODE, make_hash(0), 90.0)
        state = registry.export_state(now=100.0)
        restored = CreditRegistry(
            CreditParameters(delta_t=30.0),
            weight_provider=lambda h: (_ for _ in ()).throw(KeyError(h)))
        restored.import_state(state)
        assert restored.positive_credit(NODE, 100.0) == 4.0 / 30.0

    def test_export_reads_unsaturated_weights_fresh(self):
        # Export is not an evaluation, but it must carry the weights an
        # evaluation at the same instant would see.
        weights = {make_hash(0): 1.0}
        registry = CreditRegistry(CreditParameters(delta_t=30.0),
                                  weight_provider=weights.__getitem__)
        registry.record_transaction(NODE, make_hash(0), 1.0)
        weights[make_hash(0)] = 3.0
        state = registry.export_state(now=1.0)
        assert state["nodes"][NODE.hex()]["transactions"] == \
            [[1.0, make_hash(0).hex(), 3.0]]


class TestComplexityShape:
    def test_window_sum_is_not_rescanned_when_clean(self):
        """The rolling path touches only crossed records: advancing the
        frontier over an unchanged window costs zero weight reads."""
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        history_len = 2000
        for i in range(history_len):
            registry.record_transaction(
                NODE, make_hash(i % 32), float(i) * 0.01)
        registry.positive_credit(NODE, 30.0)
        history = registry._history[NODE]
        lo, hi = history.w_lo, history.w_hi
        # Same frontier again: pointers must not move (no rescan).
        registry.positive_credit(NODE, 30.0)
        assert (history.w_lo, history.w_hi) == (lo, hi)
        # A small advance moves the pointers by the crossed records only.
        registry.positive_credit(NODE, 30.01)
        assert history.w_hi - hi <= 2
        assert history.w_lo - lo <= 2

    def test_export_is_active_window_sized(self):
        registry = CreditRegistry(CreditParameters(delta_t=30.0))
        for i in range(1000):
            registry.record_transaction(NODE, make_hash(i % 32), float(i))
        state = registry.export_state(now=999.0)
        exported = state["nodes"][NODE.hex()]["transactions"]
        # Only the ΔT window survives, not the 1000-record history.
        assert len(exported) == 31  # 969.0 .. 999.0 inclusive
