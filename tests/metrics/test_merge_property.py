"""Property tests for the metric merge operations.

The parallel sweep runner's determinism rests on one algebraic fact:
partitioning an observation stream into shards, aggregating each
shard, and merging the aggregates yields exactly the aggregate of the
concatenated stream.  Hypothesis searches for streams and partitions
that break it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.throughput import IntervalSeries

#: Latency-like values spanning the histograms' full dynamic range.
values = st.floats(min_value=0.0, max_value=2e7, allow_nan=False, allow_infinity=False)
#: (time, value) observations inside a few windows.
observations = st.tuples(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def partition(stream, n_shards, assignment):
    shards = [[] for _ in range(n_shards)]
    for index, item in enumerate(stream):
        shards[assignment[index % len(assignment)] % n_shards].append(item)
    return shards


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(values, min_size=1, max_size=200),
    n_shards=st.integers(min_value=1, max_value=5),
    assignment=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=16),
)
def test_histogram_shard_merge_equals_direct(stream, n_shards, assignment):
    direct = LatencyHistogram()
    for value in stream:
        direct.record(value)

    merged = LatencyHistogram()
    for shard in partition(stream, n_shards, assignment):
        histogram = LatencyHistogram()
        for value in shard:
            histogram.record(value)
        merged.merge(histogram)

    assert merged.count == direct.count
    assert merged.min == direct.min
    assert merged.max == direct.max
    assert merged._counts == direct._counts
    # Regrouping float additions may shift the running sum by an ulp,
    # so the mean is compared to near-machine precision, not exactly.
    assert merged.total == pytest.approx(direct.total, rel=1e-12)
    # Percentiles depend only on bucket counts and min/max -- exact.
    for pct in (0.0, 50.0, 99.0, 100.0):
        assert merged.percentile(pct) == direct.percentile(pct)


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(observations, min_size=1, max_size=200),
    n_shards=st.integers(min_value=1, max_value=5),
    assignment=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=16),
    mode=st.sampled_from(["sum", "mean"]),
)
def test_interval_series_shard_merge_equals_direct(stream, n_shards, assignment, mode):
    window_us = 100.0
    direct = IntervalSeries(window_us, mode)
    for when, value in stream:
        direct.record(when, value)

    merged = IntervalSeries(window_us, mode)
    for shard in partition(stream, n_shards, assignment):
        series = IntervalSeries(window_us, mode)
        for when, value in shard:
            series.record(when, value)
        merged.merge(series)

    # Sum mode reports interior idle windows as zeros; the merge must
    # reproduce those gap windows too, which is why the comparison is
    # on the emitted series rather than the internal dicts.  Window
    # starts and counts are exact; per-window float sums are compared
    # to near-machine precision (addition regrouping shifts ulps).
    merged_series = merged.series()
    direct_series = direct.series()
    assert [t for t, _ in merged_series] == [t for t, _ in direct_series]
    assert [v for _, v in merged_series] == pytest.approx(
        [v for _, v in direct_series], rel=1e-12, abs=1e-12
    )


def test_last_mode_merge_is_refused():
    a = IntervalSeries(10.0, "last")
    b = IntervalSeries(10.0, "last")
    a.record(1.0, 5.0)
    b.record(2.0, 6.0)
    with pytest.raises(ValueError, match="order-dependent"):
        a.merge(b)


def test_mismatched_configuration_merges_are_refused():
    with pytest.raises(ValueError):
        IntervalSeries(10.0, "sum").merge(IntervalSeries(20.0, "sum"))
    with pytest.raises(ValueError):
        IntervalSeries(10.0, "sum").merge(IntervalSeries(10.0, "mean"))
    with pytest.raises(ValueError):
        LatencyHistogram(1.0, 1e7).merge(LatencyHistogram(1.0, 1e6))
