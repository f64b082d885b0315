"""Registry semantics: instruments, labels, memory, the null path."""

import tracemalloc

import pytest

from repro.telemetry.registry import (
    COUNT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    QUANTILES,
    bucket_quantile,
    coerce_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("repro_test_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        assert counter.total == 3.5

    def test_labels_are_independent_series(self):
        counter = MetricsRegistry().counter("repro_test_total")
        counter.inc(node="a")
        counter.inc(node="a")
        counter.inc(node="b")
        assert counter.value(node="a") == 2
        assert counter.value(node="b") == 1
        assert counter.value(node="c") == 0
        assert counter.total == 3

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "help")
        second = registry.counter("repro_test_total")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("Repro-Bad Name")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_test_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13


class TestHistogram:
    def test_bucket_edges_are_upper_bounds(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_sizes", buckets=(1, 10, 100))
        for value in (0.5, 1, 2, 10, 99, 1000):
            histogram.observe(value)
        merged = histogram.merged()
        # le=1: {0.5, 1}; le=10: {2, 10}; le=100: {99}; +Inf: {1000}
        assert merged.bucket_counts == [2, 2, 1, 1]
        assert merged.count == 6
        assert merged.minimum == 0.5
        assert merged.maximum == 1000

    def test_snapshot_per_label_set(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_sizes", buckets=COUNT_BUCKETS)
        histogram.observe(3, node="a")
        histogram.observe(5, node="b")
        assert histogram.snapshot(node="a").count == 1
        assert histogram.snapshot(node="c") is None
        assert histogram.merged().count == 2

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_test_sizes", buckets=(5, 1))


class TestQuantiles:
    """Bucket-interpolated quantile estimation (golden values)."""

    def _uniform_histogram(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(10, 20, 30, 40))
        for value in range(1, 41):  # 1..40, 10 per bucket
            histogram.observe(value)
        return histogram

    def test_uniform_spread_golden_values(self):
        histogram = self._uniform_histogram()
        # 40 uniform observations over 4 equal buckets: the estimate
        # interpolates linearly, anchored at the series minimum.
        assert histogram.quantile(0.25) == pytest.approx(10.0)
        assert histogram.quantile(0.5) == pytest.approx(20.0)
        assert histogram.quantile(0.75) == pytest.approx(30.0)
        assert histogram.quantile(1.0) == pytest.approx(40.0)

    def test_first_bucket_anchored_at_minimum(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(10,))
        histogram.observe(4.0)
        histogram.observe(8.0)
        # Both in the first bucket: lo = min = 4, hi = edge = 10.
        assert histogram.quantile(0.5) == pytest.approx(7.0)

    def test_overflow_bucket_capped_at_maximum(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(1,))
        histogram.observe(0.5)
        histogram.observe(100.0)
        # Targets in the +Inf bucket interpolate between its lower
        # edge and the observed maximum, never beyond it.
        assert histogram.quantile(0.99) == pytest.approx(98.02)
        assert histogram.quantile(1.0) == pytest.approx(100.0)

    def test_empty_histogram_returns_none(self):
        histogram = MetricsRegistry().histogram("repro_test_seconds")
        assert histogram.quantile(0.5) is None
        assert histogram.quantiles() == {q: None for q in QUANTILES}

    def test_quantiles_batch_matches_singles(self):
        histogram = self._uniform_histogram()
        batch = histogram.quantiles()
        assert set(batch) == set(QUANTILES)
        for q, value in batch.items():
            assert value == histogram.quantile(q)

    def test_labelled_series_quantile(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(10, 20))
        histogram.observe(5, node="a")
        histogram.observe(15, node="b")
        assert histogram.quantile(1.0, node="a") == pytest.approx(5.0)
        assert histogram.quantile(1.0, node="b") == pytest.approx(15.0)
        assert histogram.quantile(0.5, node="missing") is None

    def test_out_of_range_q_rejected(self):
        histogram = self._uniform_histogram()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                histogram.quantile(bad)

    def test_bucket_quantile_clamps_to_observed_range(self):
        histogram = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(10, 20))
        histogram.observe(12.0)
        merged = histogram.merged()
        # A single observation: every quantile is that observation.
        for q in (0.01, 0.5, 0.99):
            assert bucket_quantile((10, 20), merged, q) == pytest.approx(12.0)

    def test_null_instrument_quantiles(self):
        histogram = NULL_REGISTRY.histogram("repro_test_seconds")
        assert histogram.quantile(0.5) is None
        assert histogram.quantiles() == {q: None for q in QUANTILES}


class TestConstruction:
    @pytest.mark.parametrize("keyword", ["clock", "record_events",
                                         "max_events"])
    def test_takes_no_keywords(self, keyword):
        with pytest.raises(TypeError):
            MetricsRegistry(**{keyword: None})

    def test_takes_no_clock(self):
        """Aggregates carry no timestamps, so there is no clock to
        read: a registry is the same wherever time comes from."""
        with pytest.raises(TypeError):
            MetricsRegistry(object())


class TestMemoryBound:
    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_one_aggregate_per_label_set(self, kind):
        registry = MetricsRegistry()
        instrument = getattr(registry, kind)(f"repro_test_{kind}")
        record = getattr(instrument, {"counter": "inc", "gauge": "set",
                                      "histogram": "observe"}[kind])
        for i in range(3000):
            record(float(i % 5), node="abc"[i % 3])
        assert sorted(instrument.series()) == [
            (("node", node),) for node in "abc"]

    def test_traffic_on_a_seen_label_set_allocates_nothing(self):
        """A registry holds one aggregate per label set and nothing per
        observation: 100 000 more observations on a series that already
        exists leave the traced heap where it was."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total")
        gauge = registry.gauge("repro_test_depth")
        histogram = registry.histogram("repro_test_seconds")

        def drive(count):
            for i in range(count):
                counter.inc(node="a")
                gauge.set(i % 7, node="a")
                histogram.observe(0.25, node="a")

        drive(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            drive(100_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert counter.value(node="a") == 100_001
        assert histogram.snapshot(node="a").count == 100_001
        assert grown < 4096


class TestCoverage:
    def test_unobserved_lists_idle_instruments(self):
        registry = MetricsRegistry()
        registry.counter("repro_idle_total")
        active = registry.counter("repro_active_total")
        active.inc()
        assert registry.unobserved() == ["repro_idle_total"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(2, node="a")
        registry.histogram("repro_test_sizes", buckets=(1, 2)).observe(1.5)
        snap = registry.snapshot()
        assert snap["repro_test_total"]["series"] == {"node=a": 2.0}
        assert snap["repro_test_sizes"]["count"] == 1
        assert snap["repro_test_sizes"]["mean"] == 1.5


class TestNullRegistry:
    def test_coerce(self):
        assert coerce_registry(None) is NULL_REGISTRY
        registry = MetricsRegistry()
        assert coerce_registry(registry) is registry

    def test_null_absorbs_everything(self):
        registry = NullRegistry()
        counter = registry.counter("repro_test_total")
        counter.inc(5, node="a")
        registry.gauge("repro_test_depth").set(3)
        registry.histogram("repro_test_sizes").observe(1.0)
        assert counter.value() == 0.0
        assert registry.snapshot() == {}
        assert registry.unobserved() == []
        assert not registry.enabled

    def test_null_and_real_share_call_surface(self):
        """Instrumented code must run identically against either
        registry: same factories, same instrument methods."""
        for registry in (MetricsRegistry(), NullRegistry()):
            counter = registry.counter("repro_test_total", "help")
            counter.inc()
            counter.inc(2, node="x")
            gauge = registry.gauge("repro_test_depth")
            gauge.set(1)
            gauge.inc()
            gauge.dec()
            registry.histogram(
                "repro_test_sizes", buckets=(1, 2)).observe(1.5, node="x")
