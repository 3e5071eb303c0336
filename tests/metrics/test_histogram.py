"""Tests for the log-bucketed latency histogram."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram


class TestBasics:
    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(99.0) == 0.0

    def test_single_sample_percentiles_are_exact(self):
        histogram = LatencyHistogram()
        histogram.record(123.0)
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert histogram.percentile(pct) == pytest.approx(123.0)

    def test_mean_is_exact(self):
        histogram = LatencyHistogram()
        for value in (10.0, 20.0, 30.0):
            histogram.record(value)
        assert histogram.mean == pytest.approx(20.0)

    def test_min_max_tracked_exactly(self):
        histogram = LatencyHistogram()
        for value in (5.0, 500.0, 50.0):
            histogram.record(value)
        assert histogram.min == 5.0
        assert histogram.max == 500.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_out_of_range_percentile_rejected(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(101.0)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)

    def test_invalid_configuration_rejected(self):
        """Every histogram shares one bucket table: none takes a shape."""
        for config in ({"min_value": 0.0}, {"max_value": 5.0}, {"growth": 1.0}):
            with pytest.raises(TypeError):
                LatencyHistogram(**config)


class TestAccuracy:
    def test_uniform_percentiles_within_tolerance(self):
        rng = random.Random(1)
        histogram = LatencyHistogram()
        samples = [rng.uniform(10.0, 10_000.0) for _ in range(20_000)]
        for sample in samples:
            histogram.record(sample)
        samples.sort()
        for pct in (50.0, 90.0, 99.0, 99.9):
            exact = samples[int(pct / 100.0 * len(samples)) - 1]
            estimate = histogram.percentile(pct)
            assert abs(estimate - exact) / exact < 0.05

    def test_values_above_range_clamped_but_counted(self):
        histogram = LatencyHistogram()
        histogram.record(1e9)
        assert histogram._counts[-1] == 1
        assert histogram.count == 1
        assert histogram.mean == pytest.approx(1e9)

    def test_summary_keys(self):
        histogram = LatencyHistogram()
        histogram.record(10.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p99", "p999", "max"}


class TestMerge:
    def test_merge_accumulates(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for value in (10.0, 20.0):
            a.record(value)
        for value in (30.0, 40.0):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.mean == pytest.approx(25.0)
        assert a.max == 40.0


class TestProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=300))
    def test_percentiles_monotonic(self, samples):
        """Property: percentile is non-decreasing in pct."""
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.record(sample)
        values = [histogram.percentile(pct) for pct in (1, 25, 50, 75, 99, 100)]
        assert values == sorted(values)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=300))
    def test_percentiles_within_observed_range(self, samples):
        """Property: every percentile lies within [min, max] of the data."""
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.record(sample)
        for pct in (0, 10, 50, 90, 100):
            value = histogram.percentile(pct)
            assert histogram.min <= value <= histogram.max


class TestMergeConfiguration:
    """Every histogram has the one bucket table, so any two merge."""

    def test_merge_accepts_identical_configuration(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        b.record(10.0)
        a.merge(b)
        assert a.count == 1


# ----------------------------------------------------------------------
# Reference: the configurable histogram this one replaced, at the only
# shape any caller built (min 1.0, max 1e7, growth 1.02).
# ----------------------------------------------------------------------
REF_MIN, REF_MAX, REF_GROWTH = 1.0, 1e7, 1.02
_REF_LOG_GROWTH = math.log(REF_GROWTH)
REF_BUCKETS = int(math.log(REF_MAX / REF_MIN) / _REF_LOG_GROWTH) + 2


def reference_index(value: float) -> int:
    """The bucket the configurable histogram gave ``value``."""
    if value <= REF_MIN:
        return 0
    index = int(math.log(value / REF_MIN) / _REF_LOG_GROWTH) + 1
    return min(index, REF_BUCKETS - 1)


class ReferenceHistogram:
    """``record``, ``percentile`` and ``summary`` as the configurable
    histogram computed them."""

    def __init__(self):
        self._counts = [0] * REF_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        return reference_index(value)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        self._counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _bucket_midpoint(self, index: int) -> float:
        if index == 0:
            return REF_MIN
        low = REF_MIN * math.exp(_REF_LOG_GROWTH * (index - 1))
        return low * math.sqrt(REF_GROWTH)

    def percentile(self, pct: float) -> float:
        if self.count == 0:
            return 0.0
        target = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                return min(max(self._bucket_midpoint(index), self.min), self.max)
        return self.max

    def merge(self, other: "ReferenceHistogram") -> None:
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self):
        return {
            "count": float(self.count),
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "max": self.max if self.count else 0.0,
        }


class MemoisedHistogram(ReferenceHistogram):
    """The reference with the value -> bucket-index memo ``record`` once
    kept: a bounded dict, dropped whole when full."""

    _INDEX_CACHE_CAP = 32768

    def __init__(self):
        super().__init__()
        self._index_cache = {}

    def _index(self, value: float) -> int:
        cache = self._index_cache
        index = cache.get(value)
        if index is None:
            index = reference_index(value)
            if len(cache) >= self._INDEX_CACHE_CAP:
                cache.clear()
            cache[value] = index
        return index


class TinyMemoHistogram(MemoisedHistogram):
    """The same reference with a memo small enough to overflow."""

    _INDEX_CACHE_CAP = 4


#: Every bucket boundary of the reference, ``REF_GROWTH**k``, past the top.
boundaries = st.integers(min_value=0, max_value=REF_BUCKETS + 2).map(
    lambda k: REF_MIN * REF_GROWTH**k
)
#: Latency-like values plus the awkward ones: each boundary and its
#: neighbours one ulp either side, 0, 1.0, 1e7 and values above 1e7.
values = st.one_of(
    st.floats(min_value=0.0, max_value=2e7),
    boundaries,
    boundaries.map(lambda v: math.nextafter(v, math.inf)),
    boundaries.map(lambda v: math.nextafter(v, 0.0)),
    st.sampled_from([0.0, REF_MIN, REF_MAX, 75.2, 91.0625]),
    st.floats(min_value=REF_MAX, max_value=1e12, exclude_min=True),
)


def observable(histogram):
    return (
        histogram._counts,
        histogram.count,
        histogram.total,
        histogram.min,
        histogram.max,
        histogram.summary(),
    )


class TestBinningMatchesReference:
    """The fixed bucket table bins, and summarises, exactly as the
    configurable histogram did at its default shape."""

    @settings(max_examples=300, deadline=None)
    @given(value=values)
    def test_record_picks_the_reference_bucket(self, value):
        histogram = LatencyHistogram()
        histogram.record(value)
        assert len(histogram._counts) == REF_BUCKETS
        assert histogram._counts.index(1) == reference_index(value)

    def test_summary_of_a_fixed_stream_matches(self):
        rng = random.Random(49)
        stream = [rng.lognormvariate(5.0, 1.5) for _ in range(5_000)]
        stream += [0.0, 0.5, REF_MIN, REF_MAX, 3e7, 1e9]
        stream += [REF_GROWTH**k for k in range(0, REF_BUCKETS + 2, 7)]
        live, model = LatencyHistogram(), ReferenceHistogram()
        for value in stream:
            live.record(value)
            model.record(value)
        assert observable(live) == observable(model)
        for pct in (0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            assert live.percentile(pct) == model.percentile(pct)


class TestMatchesMemoisedReference:
    """The inline index computation bins every sample exactly as the
    memoised ``record`` it replaced: identical buckets, count, total,
    min, max, percentiles -- before and after ``merge``."""

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(values, max_size=200),
        repeats=st.integers(min_value=1, max_value=4),
        second_seed=st.integers(0, 2**16),
    )
    @pytest.mark.parametrize("reference", [MemoisedHistogram, TinyMemoHistogram])
    def test_streams_bin_identically(self, reference, stream, repeats, second_seed):
        stream = stream * repeats
        live, model = LatencyHistogram(), reference()
        for value in stream:
            live.record(value)
            model.record(value)
        assert observable(live) == observable(model)
        # A second, shuffled pass through both, merged into the first.
        shuffled = list(stream)
        random.Random(second_seed).shuffle(shuffled)
        live_other, model_other = LatencyHistogram(), reference()
        for value in shuffled[: len(shuffled) // 2 + 1]:
            live_other.record(value)
            model_other.record(value)
        live.merge(live_other)
        model.merge(model_other)
        assert observable(live) == observable(model)

    def test_every_bucket_boundary(self):
        live, model = LatencyHistogram(), MemoisedHistogram()
        for k in range(REF_BUCKETS + 3):
            edge = REF_MIN * REF_GROWTH**k
            for value in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                live.record(value)
                model.record(value)
        assert observable(live) == observable(model)

    @pytest.mark.parametrize("factory", [LatencyHistogram, MemoisedHistogram])
    def test_negative_values_rejected_by_both(self, factory):
        histogram = factory()
        histogram.record(5.0)
        with pytest.raises(ValueError):
            histogram.record(-0.001)
        assert histogram.count == 1

    def test_no_memo_left_on_the_histogram(self):
        histogram = LatencyHistogram()
        histogram.record(12.5)
        assert not hasattr(histogram, "_index_cache")
        assert not hasattr(histogram, "_bucket_index")
