"""Tests for the ADMI write-cost estimator (Section 3.4)."""

from __future__ import annotations

import pytest

from repro.core.config import GimbalParams
from repro.core.write_cost import WriteCostEstimator


@pytest.fixture
def params():
    return GimbalParams(write_cost_worst=9.0, write_cost_delta=0.5, write_cost_period_us=1000.0)


@pytest.fixture
def estimator(params):
    return WriteCostEstimator(params)


class TestWriteCost:
    def test_starts_at_worst_case(self, estimator):
        assert estimator.cost == 9.0

    def test_fast_writes_decrease_additively(self, estimator):
        estimator.observe_write_latency(0.0, 50.0)
        assert estimator.cost == pytest.approx(8.5)

    def test_decreases_to_one_not_below(self, estimator):
        for i in range(100):
            estimator.observe_write_latency(i * 2000.0, 50.0)
        assert estimator.cost == 1.0

    def test_slow_writes_jump_to_midpoint_of_worst(self, estimator, params):
        # Decay the cost first.
        for i in range(10):
            estimator.observe_write_latency(i * 2000.0, 50.0)
        low = estimator.cost
        estimator.observe_write_latency(100_000.0, 5000.0)
        assert estimator.cost == pytest.approx((low + params.write_cost_worst) / 2.0)

    def test_converges_to_worst_quickly_under_pressure(self, estimator):
        for i in range(10):
            estimator.observe_write_latency(i * 2000.0, 50.0)
        for i in range(10):
            estimator.observe_write_latency(100_000.0 + i * 2000.0, 5000.0)
        assert estimator.cost > 8.9

    def test_updates_are_rate_limited(self, estimator, params):
        estimator.observe_write_latency(0.0, 50.0)
        cost_after_first = estimator.cost
        # Within the update period: no further change.
        estimator.observe_write_latency(params.write_cost_period_us / 2, 50.0)
        assert estimator.cost == cost_after_first
        assert estimator.updates == 1

    def test_threshold_boundary_uses_thresh_min(self, estimator, params):
        estimator.observe_write_latency(0.0, params.thresh_min_us - 1.0)
        assert estimator.cost < params.write_cost_worst
        fresh = WriteCostEstimator(params)
        fresh.observe_write_latency(0.0, params.thresh_min_us)
        assert fresh.cost == params.write_cost_worst  # midpoint of worst with worst

    def test_cost_stays_in_valid_band(self, estimator, params):
        import random

        rng = random.Random(0)
        for i in range(500):
            estimator.observe_write_latency(i * 2000.0, rng.uniform(10.0, 5000.0))
            assert 1.0 <= estimator.cost <= params.write_cost_worst
