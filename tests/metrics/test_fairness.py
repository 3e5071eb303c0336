"""Tests for the fairness metrics (f-Util, Jain's index)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.fairness import f_util, jain_index


class TestFUtil:
    def test_ideal_share_scores_one(self):
        # A worker achieving exactly 1/N of its standalone max has f-Util 1.
        assert f_util(per_worker_bw=100.0, standalone_max_bw=1600.0, total_workers=16) == 1.0

    def test_overshare_scores_above_one(self):
        assert f_util(300.0, 1600.0, 16) > 1.0

    def test_starved_worker_scores_below_one(self):
        assert f_util(10.0, 1600.0, 16) < 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            f_util(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            f_util(1.0, 100.0, 0)


class TestJainIndex:
    def test_equal_allocations_score_one(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    def test_denormal_squares_stay_in_range(self):
        """Regression (the hypothesis flake at the 1.27e-159 scale):
        squares near 1.6e-318 are denormal and lose bits; unclamped,
        this pair scored 1.0000008."""
        assert jain_index([1.2467063021822544e-159, 1.245386582305009e-159]) == 1.0

    def test_in_range_values_keep_their_bits(self):
        """The range clamp must not perturb ordinary results."""
        shares = [0.1, 0.2, 0.3]
        assert jain_index(shares) == sum(shares) ** 2 / (3 * sum(v * v for v in shares))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_bounded_between_one_over_n_and_one(self, allocations):
        """Property: 1/n <= Jain <= 1 for any non-negative allocation."""
        index = jain_index(allocations)
        assert 1.0 / len(allocations) - 1e-9 <= index <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariant(self, allocations, scale):
        """Property: Jain's index is invariant under scaling."""
        assert jain_index(allocations) == pytest.approx(
            jain_index([a * scale for a in allocations]), rel=1e-6
        )
