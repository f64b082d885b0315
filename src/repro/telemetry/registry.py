"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` serves a whole deployment.  Subsystems ask
it for named instruments once (at construction time) and then drive
them on their hot paths; the registry keeps one aggregated series per
label set and nothing per observation, so its memory is bounded by the
series it holds, not by the traffic it counts.

Metric names follow the ``repro_<subsystem>_<name>`` scheme (see
``docs/TELEMETRY.md``); the registry enforces the character set and
rejects re-registration under a different kind or help string.

Disabling telemetry must cost nothing.  :class:`NullRegistry` hands out
singleton null instruments whose methods are empty one-liners, so an
instrumented hot path pays one attribute load and one no-op call —
there is no branching, no label hashing, no allocation.  Tier-1 tests
prove null-vs-absent equivalence (``tests/telemetry``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SECONDS_BUCKETS",
    "COUNT_BUCKETS",
    "BYTES_BUCKETS",
    "DIFFICULTY_BUCKETS",
    "QUANTILES",
    "bucket_quantile",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
)
"""Default edges for simulated-seconds histograms (latency, PoW time)."""

COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)
"""Default edges for size/length histograms (batches, walk lengths)."""

BYTES_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)
"""Edges for on-the-wire sizes (``repro_transport_frame_bytes``)."""

DIFFICULTY_BUCKETS: Tuple[float, ...] = (2, 4, 6, 8, 10, 12, 16, 20, 24)
"""Edges matching the PoW difficulty range [1, 24]."""

QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)
"""The quantiles surfaced by the summary renderer and the Prometheus
exporter (as ``_quantile``-suffixed gauges)."""

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelSet:
    if not labels:
        return ()
    if len(labels) == 1:  # nothing to sort: the hot paths' one label
        (item,) = labels.items()
        return (item,) if type(item[1]) is str else ((item[0], str(item[1])),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Base class: a named metric with one series per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.observed = False

    def _record(self, labels: Dict[str, str]) -> LabelSet:
        self.observed = True
        return _label_key(labels) if labels else ()

    def series(self) -> Dict[LabelSet, object]:
        """Label set -> current value (shape depends on the kind)."""
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name, help):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._record(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def series(self) -> Dict[LabelSet, float]:
        return dict(self._values)


class Gauge(Instrument):
    """A value that can move both ways (queue depths, pool sizes)."""

    kind = "gauge"

    def __init__(self, name, help):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._record(labels)
        self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._record(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelSet, float]:
        return dict(self._values)


@dataclass
class HistogramSeries:
    """Per-label-set histogram state: fixed cumulative-style buckets."""

    bucket_counts: List[int]
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def bucket_quantile(edges: Sequence[float],
                    series: Optional[HistogramSeries],
                    q: float) -> Optional[float]:
    """Estimate the *q*-quantile of a fixed-bucket series.

    Linear interpolation within the bucket that crosses the target
    rank; the first bucket is anchored at the observed minimum and the
    overflow bucket at the observed maximum, and the estimate is always
    clamped into ``[minimum, maximum]``.  Returns ``None`` for an empty
    series.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    if series is None or series.count == 0:
        return None
    target = q * series.count
    cumulative = 0.0
    for i, count in enumerate(series.bucket_counts):
        if count and cumulative + count >= target:
            lo = edges[i - 1] if i > 0 else series.minimum
            hi = edges[i] if i < len(edges) else series.maximum
            fraction = (target - cumulative) / count
            value = lo + (hi - lo) * fraction
            return min(max(value, series.minimum), series.maximum)
        cumulative += count
    return series.maximum


class Histogram(Instrument):
    """Fixed-bucket distribution; edges are upper bounds, +Inf implied."""

    kind = "histogram"

    def __init__(self, name, help,
                 buckets: Sequence[float] = SECONDS_BUCKETS):
        super().__init__(name, help)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self.buckets = edges
        self._series: Dict[LabelSet, HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._record(labels)
        series = self._series.get(key)
        if series is None:
            series = HistogramSeries(bucket_counts=[0] * (len(self.buckets) + 1))
            self._series[key] = series
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.count += 1
        series.total += value
        series.minimum = min(series.minimum, value)
        series.maximum = max(series.maximum, value)

    def snapshot(self, **labels: str) -> Optional[HistogramSeries]:
        return self._series.get(_label_key(labels))

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Estimated *q*-quantile; the merged distribution when no
        labels are given, the matching series otherwise."""
        if labels:
            series = self._series.get(_label_key(labels))
        else:
            series = self.merged()
        return bucket_quantile(self.buckets, series, q)

    def quantiles(self, qs: Sequence[float] = QUANTILES,
                  **labels: str) -> Dict[float, Optional[float]]:
        return {q: self.quantile(q, **labels) for q in qs}

    def merged(self) -> HistogramSeries:
        """All label sets folded into one distribution."""
        merged = HistogramSeries(bucket_counts=[0] * (len(self.buckets) + 1))
        for series in self._series.values():
            for i, c in enumerate(series.bucket_counts):
                merged.bucket_counts[i] += c
            merged.count += series.count
            merged.total += series.total
            merged.minimum = min(merged.minimum, series.minimum)
            merged.maximum = max(merged.maximum, series.maximum)
        return merged

    def series(self) -> Dict[LabelSet, HistogramSeries]:
        return dict(self._series)


class MetricsRegistry:
    """Creates and owns instruments; the single telemetry sink."""

    enabled = True

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    # -- instrument creation ---------------------------------------------

    def _register(self, cls, name: str, help: str, **kwargs) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"bad metric name {name!r} (want lowercase_snake_case)"
            )
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name} already registered as a {existing.kind}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name* (idempotent)."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = SECONDS_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    # -- introspection ----------------------------------------------------

    def instruments(self) -> List[Instrument]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[n] for n in sorted(self._instruments)]

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def unobserved(self) -> List[str]:
        """Names of instruments registered but never driven — the CI
        coverage check: an instrument nothing emits to is dead code or
        a scenario gap."""
        return sorted(
            name for name, inst in self._instruments.items()
            if not inst.observed
        )

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every series (the summary() payload)."""
        out: Dict[str, object] = {}
        for inst in self.instruments():
            if isinstance(inst, Histogram):
                merged = inst.merged()
                out[inst.name] = {
                    "kind": inst.kind,
                    "count": merged.count,
                    "sum": merged.total,
                    "mean": merged.mean,
                    "min": merged.minimum if merged.count else None,
                    "max": merged.maximum if merged.count else None,
                }
            else:
                out[inst.name] = {
                    "kind": inst.kind,
                    "series": {
                        ",".join(f"{k}={v}" for k, v in key) or "_": value
                        for key, value in inst.series().items()
                    },
                }
        return out


# -- the disabled path ------------------------------------------------------

class _NullInstrument:
    """Absorbs every instrument method as a no-op."""

    observed = False
    name = "null"
    help = ""
    kind = "null"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    def quantile(self, q: float, **labels: str) -> None:
        return None

    def quantiles(self, qs: Sequence[float] = QUANTILES,
                  **labels: str) -> Dict[float, None]:
        return {q: None for q in qs}

    def series(self) -> Dict[LabelSet, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The zero-overhead disabled registry.

    Every factory returns the same inert instrument; hot paths keep
    their instrument references and pay only an empty method call.
    ``enabled`` lets code skip *computing* expensive observations
    entirely (never required for correctness, only for speed).
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = ()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> List[Instrument]:
        return []

    def get(self, name: str) -> None:
        return None

    def unobserved(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_REGISTRY = NullRegistry()
"""Shared inert registry: the default for every ``telemetry=`` knob."""


def coerce_registry(telemetry: object) -> object:
    """Normalise a ``telemetry=`` argument: None -> NULL_REGISTRY."""
    return NULL_REGISTRY if telemetry is None else telemetry
