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
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=10.0, max_value=5.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)


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
        histogram = LatencyHistogram(min_value=1.0, max_value=100.0)
        histogram.record(1e9)
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

    def test_merge_rejects_mismatched_configuration(self):
        a = LatencyHistogram(min_value=1.0)
        b = LatencyHistogram(min_value=2.0)
        with pytest.raises(ValueError):
            a.merge(b)


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
    """Regression: merge() used to compare only bucket count and
    min_value, so differently-shaped histograms whose bucket counts
    coincided merged silently into nonsense percentiles."""

    def test_merge_rejects_same_bucket_count_different_growth(self):
        a = LatencyHistogram(min_value=1.0, max_value=1e7, growth=1.02)
        # Squaring the growth and the range keeps log(max/min)/log(growth)
        # identical, so the bucket counts collide while the bucket
        # boundaries differ everywhere.
        b = LatencyHistogram(min_value=1.0, max_value=1e14, growth=1.02**2)
        assert a._num_buckets == b._num_buckets
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_rejects_different_max_value(self):
        a = LatencyHistogram(min_value=1.0, max_value=1e7, growth=1.02)
        b = LatencyHistogram(min_value=1.0, max_value=2e7, growth=1.02)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_accepts_identical_configuration(self):
        a = LatencyHistogram(min_value=2.0, max_value=1e6, growth=1.05)
        b = LatencyHistogram(min_value=2.0, max_value=1e6, growth=1.05)
        b.record(10.0)
        a.merge(b)
        assert a.count == 1


class MemoisedHistogram(LatencyHistogram):
    """Reference model: ``record`` as it stood before the memo was
    removed -- a bounded value -> bucket-index dict in front of
    ``_bucket_index``, dropped whole when full."""

    _INDEX_CACHE_CAP = 32768

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index_cache = {}

    def _bucket_index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth) + 1
        return min(index, self._num_buckets - 1)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        cache = self._index_cache
        index = cache.get(value)
        if index is None:
            index = self._bucket_index(value)
            if len(cache) >= self._INDEX_CACHE_CAP:
                cache.clear()
            cache[value] = index
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class TinyMemoHistogram(MemoisedHistogram):
    """The same reference with a memo small enough to overflow."""

    _INDEX_CACHE_CAP = 4


CONFIGS = [
    {},
    {"min_value": 0.5, "max_value": 2e4, "growth": 1.1},
    {"min_value": 3.0, "max_value": 50.0, "growth": 1.005},
]


@st.composite
def sample_streams(draw):
    """A configuration plus a stream that leans on the awkward values:
    at or under ``min_value``, at or over ``max_value``, exact bucket
    boundaries ``min_value * growth**k``, and heavy repeats."""
    config = draw(st.sampled_from(CONFIGS))
    shape = LatencyHistogram(**config)
    low, high, growth = shape.min_value, shape.max_value, shape.growth
    boundary = st.integers(min_value=0, max_value=shape._num_buckets + 2).map(
        lambda k: low * growth**k
    )
    value = st.one_of(
        st.floats(min_value=0.0, max_value=low),
        st.floats(min_value=high, max_value=high * 1e3),
        st.floats(min_value=low, max_value=high),
        boundary,
        boundary.map(lambda v: math.nextafter(v, math.inf)),
        boundary.map(lambda v: math.nextafter(v, 0.0)),
        st.sampled_from([0.0, low, high, 75.2, 75.2, 75.2, 91.0625]),
    )
    stream = draw(st.lists(value, max_size=200))
    repeats = draw(st.integers(min_value=1, max_value=4))
    return config, stream * repeats


def observable(histogram):
    return (
        histogram._counts,
        histogram.count,
        histogram.total,
        histogram.min,
        histogram.max,
        histogram.summary(),
    )


class TestMatchesMemoisedReference:
    """The inline index computation bins every sample exactly as the
    memoised ``record`` it replaced: identical buckets, count, total,
    min, max, percentiles -- before and after ``merge``."""

    @settings(max_examples=150, deadline=None)
    @given(first=sample_streams(), second_seed=st.integers(0, 2**16))
    @pytest.mark.parametrize("reference", [MemoisedHistogram, TinyMemoHistogram])
    def test_streams_bin_identically(self, reference, first, second_seed):
        config, stream = first
        live, model = LatencyHistogram(**config), reference(**config)
        for value in stream:
            live.record(value)
            model.record(value)
        assert observable(live) == observable(model)
        # A second, shuffled pass through both, merged into the first.
        shuffled = list(stream)
        random.Random(second_seed).shuffle(shuffled)
        live_other, model_other = LatencyHistogram(**config), reference(**config)
        for value in shuffled[: len(shuffled) // 2 + 1]:
            live_other.record(value)
            model_other.record(value)
        live.merge(live_other)
        model.merge(model_other)
        assert observable(live) == observable(model)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_every_bucket_boundary(self, config):
        live, model = LatencyHistogram(**config), MemoisedHistogram(**config)
        for k in range(live._num_buckets + 3):
            edge = live.min_value * live.growth**k
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
