"""Tests for the EWMA smoother."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.ewma import Ewma


class TestEwma:
    def test_first_sample_initialises(self):
        ewma = Ewma(alpha=0.5)
        assert not ewma.initialized
        ewma.update(100.0)
        assert ewma.value == 100.0
        assert ewma.initialized

    def test_value_before_samples_is_zero(self):
        assert Ewma(alpha=0.5).value == 0.0

    def test_update_formula(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(100.0)
        assert ewma.update(200.0) == pytest.approx(150.0)
        assert ewma.update(150.0) == pytest.approx(150.0)

    def test_alpha_weights_new_sample(self):
        fast = Ewma(alpha=0.9)
        slow = Ewma(alpha=0.1)
        for ewma in (fast, slow):
            ewma.update(0.0)
        fast.update(100.0)
        slow.update(100.0)
        assert fast.value > slow.value

    def test_constant_input_converges_to_constant(self):
        ewma = Ewma(alpha=0.3)
        for _ in range(200):
            ewma.update(42.0)
        assert ewma.value == pytest.approx(42.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            Ewma(alpha=alpha)

    def test_alpha_one_tracks_latest_sample(self):
        ewma = Ewma(alpha=1.0)
        ewma.update(0.0)
        ewma.update(7.0)
        assert ewma.value == 7.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
    def test_value_bounded_by_sample_range(self, samples):
        """Property: an EWMA never escapes the [min, max] of its inputs."""
        ewma = Ewma(alpha=0.5)
        for sample in samples:
            ewma.update(sample)
        assert min(samples) - 1e-6 <= ewma.value <= max(samples) + 1e-6
