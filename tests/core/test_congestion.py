"""Tests for the delay-based congestion control (Algorithm 1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GimbalParams
from repro.core.congestion import CongestionState, LatencyMonitor


@pytest.fixture
def params():
    return GimbalParams(thresh_min_us=250.0, thresh_max_us=1500.0)


@pytest.fixture
def monitor(params):
    return LatencyMonitor(params)


class TestStates:
    def test_initial_threshold_is_midrange(self, monitor, params):
        expected = (params.thresh_min_us + params.thresh_max_us) / 2.0
        assert monitor.threshold == expected

    def test_low_latency_is_underutilized(self, monitor):
        assert monitor.observe(50.0) is CongestionState.UNDERUTILIZED

    def test_midband_latency_is_congestion_avoidance(self, monitor):
        assert monitor.observe(400.0) is CongestionState.CONGESTION_AVOIDANCE

    def test_latency_above_threshold_is_congested(self, monitor):
        assert monitor.observe(1100.0) is CongestionState.CONGESTED

    def test_latency_above_max_is_overloaded(self, monitor):
        assert monitor.observe(5000.0) is CongestionState.OVERLOADED

    def test_state_ordering_reflects_load(self):
        order = [
            CongestionState.UNDERUTILIZED,
            CongestionState.CONGESTION_AVOIDANCE,
            CongestionState.CONGESTED,
            CongestionState.OVERLOADED,
        ]
        assert [s.value for s in order] == sorted(s.value for s in order)


class TestThresholdDynamics:
    def test_threshold_decays_toward_ewma_in_avoidance(self, monitor):
        monitor.observe(400.0)
        before = monitor.threshold
        monitor.observe(400.0)
        after = monitor.threshold
        assert after < before
        assert after >= 400.0 * 0.5  # decays toward, never below min clamp

    def test_congested_raises_threshold_toward_max(self, monitor, params):
        monitor.observe(400.0)  # pull threshold down
        for _ in range(10):
            monitor.observe(400.0)
        low_threshold = monitor.threshold
        state = monitor.observe(3000.0)  # EWMA jumps above threshold
        assert state in (CongestionState.CONGESTED, CongestionState.OVERLOADED)
        assert monitor.threshold > low_threshold

    def test_overloaded_pins_threshold_at_max(self, monitor, params):
        monitor.observe(params.thresh_max_us * 4)
        assert monitor.threshold == params.thresh_max_us

    def test_threshold_clamped_to_min(self, monitor, params):
        for _ in range(100):
            monitor.observe(10.0)
        assert monitor.threshold >= params.thresh_min_us

    def test_threshold_never_exceeds_max(self, monitor, params):
        for _ in range(100):
            monitor.observe(10_000.0)
            assert monitor.threshold <= params.thresh_max_us

    def test_speculative_signal_on_slow_latency_creep(self, monitor):
        """The threshold chases the EWMA down, so even a slow upward
        creep in latency crosses it and fires a congested signal."""
        states = []
        latency = 600.0
        for _ in range(60):
            states.append(monitor.observe(latency))
            latency += 5.0
        assert CongestionState.CONGESTED in states

    def test_signal_counters(self, monitor):
        monitor.observe(50.0)
        monitor.observe(5000.0)
        assert monitor.signals[CongestionState.UNDERUTILIZED] >= 1
        assert sum(monitor.signals.values()) == 2


class TestEwmaSmoothing:
    def test_single_spike_is_tolerated(self, monitor):
        """alpha_D smooths isolated spikes (paper Section 4.2)."""
        for _ in range(20):
            monitor.observe(100.0)
        state = monitor.observe(1600.0)
        # EWMA = 0.5*100 + 0.5*1600 = 850 < thresh_max: not overloaded.
        assert state is not CongestionState.OVERLOADED

    def test_ewma_latency_exposed(self, monitor):
        monitor.observe(100.0)
        assert monitor.ewma_latency_us == pytest.approx(100.0)


class TestParams:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            GimbalParams(thresh_min_us=2000.0, thresh_max_us=1500.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            GimbalParams(alpha_d=0.0)
        with pytest.raises(ValueError):
            GimbalParams(alpha_t=1.5)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            GimbalParams(beta=0.5)

    def test_rate_band_validated(self):
        with pytest.raises(ValueError):
            GimbalParams(min_rate_bytes_per_us=10.0, initial_rate_bytes_per_us=1.0)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("write_cost_worst", math.inf),
            ("write_cost_worst", math.nan),
            ("beta", math.nan),
            ("thresh_max_us", math.inf),
            ("max_rate_bytes_per_us", math.inf),
            ("write_cost_delta", 0.0),
            ("write_cost_delta", -1.0),
            ("write_cost_period_us", -1.0),
            ("write_cost_period_us", math.nan),
            ("completion_headroom", 0.0),
            ("completion_headroom", 0.5),
            ("bucket_max_tokens", 0.0),
            ("bucket_max_tokens", -1.0),
            ("completion_rate_window_us", 0.0),
            ("initial_slot_io_count", 0),
        ],
    )
    def test_knobs_that_hang_or_starve_a_run_are_refused(self, knob, value):
        """A non-finite or out-of-range knob either stalls the pacing pump
        (an infinite worst write cost) or silently starves every tenant
        (NaN costs, an empty bucket, no completion headroom)."""
        with pytest.raises(ValueError, match=knob):
            GimbalParams(**{knob: value})

    def test_with_overrides(self):
        params = GimbalParams().with_overrides(thresh_max_us=3000.0)
        assert params.thresh_max_us == 3000.0

    def test_p3600_retuning(self):
        from repro.core.config import P3600_PARAMS

        assert P3600_PARAMS.thresh_max_us == 3000.0


class TestThresholdInvariants:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=500,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_stays_in_configured_band(self, latencies):
        """Property: no latency sequence can push the dynamic threshold
        outside [thresh_min_us, thresh_max_us] (Algorithm 1's clamp)."""
        params = GimbalParams()
        monitor = LatencyMonitor(params)
        for latency in latencies:
            monitor.observe(latency)
            assert params.thresh_min_us <= monitor.threshold <= params.thresh_max_us

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_signals_and_transitions_consistent(self, latencies):
        """Property: signal counts total the observations and transition
        count never exceeds observations."""
        monitor = LatencyMonitor(GimbalParams())
        for latency in latencies:
            monitor.observe(latency)
        assert sum(monitor.signals.values()) == len(latencies)
        assert 0 <= monitor.transitions <= len(latencies)
