"""Property tests for the latency histogram's merge.

Partitioning an observation stream into shards, aggregating each
shard, and merging the aggregates must yield exactly the aggregate of
the concatenated stream.  Hypothesis searches for streams and
partitions that break it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import LatencyHistogram

#: Latency-like values spanning the histograms' full dynamic range.
values = st.floats(min_value=0.0, max_value=2e7, allow_nan=False, allow_infinity=False)


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
