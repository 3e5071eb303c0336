"""Tests for the rate controller and dual token bucket (Algorithms 1/4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GimbalParams
from repro.core.congestion import CongestionState, LatencyMonitor
from repro.core.rate_control import CompletionRateMeter, DualTokenBucket, RateController
from repro.ssd.commands import IoOp
from tests.core.reference import ReferenceLatencyMonitor, ReferenceRateController, meter_rate


@pytest.fixture
def params():
    return GimbalParams()


class TestCompletionRateMeter:
    def test_rate_over_window(self):
        meter = CompletionRateMeter(window_us=1000.0)
        meter.record(100.0, 4096)
        meter.record(200.0, 4096)
        assert meter_rate(meter, 500.0) == pytest.approx(8192 / 1000.0)

    def test_old_events_evicted(self):
        meter = CompletionRateMeter(window_us=1000.0)
        meter.record(0.0, 4096)
        assert meter_rate(meter, 2000.0) == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            CompletionRateMeter(window_us=0.0)


class TestDualTokenBucket:
    def test_split_follows_write_cost(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        bucket.update(100.0, target_rate=100.0, write_cost=9.0)
        # 10000 tokens split 9:1.
        assert bucket.read_tokens == pytest.approx(9000.0)
        assert bucket.write_tokens == pytest.approx(1000.0)

    def test_cost_one_splits_evenly(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        bucket.update(100.0, target_rate=100.0, write_cost=1.0)
        assert bucket.read_tokens == pytest.approx(bucket.write_tokens)

    def test_overflow_spills_to_sibling(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        bucket.write_tokens = 0.0
        # Enough tokens that the read bucket overflows its cap.
        bucket.update(1_000_000.0, target_rate=10.0, write_cost=9.0)
        assert bucket.read_tokens == bucket.max_tokens
        assert bucket.write_tokens > 0.0

    def test_both_buckets_capped(self, params):
        bucket = DualTokenBucket(params)
        bucket.update(10_000_000.0, target_rate=1000.0, write_cost=2.0)
        assert bucket.read_tokens <= bucket.max_tokens
        assert bucket.write_tokens <= bucket.max_tokens

    def test_consume_decrements_right_bucket(self, params):
        bucket = DualTokenBucket(params)
        read_before = bucket.read_tokens
        write_before = bucket.write_tokens
        bucket.consume(IoOp.READ, 4096)
        assert bucket.read_tokens == read_before - 4096
        assert bucket.write_tokens == write_before

    def test_consume_without_tokens_rejected(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        with pytest.raises(ValueError):
            bucket.consume(IoOp.WRITE, 4096)

    def test_discard_zeroes_both(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        assert bucket.read_tokens == 0.0
        assert bucket.write_tokens == 0.0

    def test_no_time_passed_no_tokens(self, params):
        bucket = DualTokenBucket(params)
        bucket.discard()
        bucket.update(0.0, target_rate=1000.0, write_cost=1.0)
        assert bucket.read_tokens == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10_000.0),
        st.floats(min_value=1.0, max_value=9.0),
        st.floats(min_value=0.1, max_value=1_000.0),
    )
    def test_token_generation_conserved_until_caps(self, rate, write_cost, elapsed):
        """Property: generated tokens = rate x time when below the caps."""
        params = GimbalParams()
        bucket = DualTokenBucket(params)
        bucket.discard()
        bucket.update(elapsed, target_rate=rate, write_cost=write_cost)
        produced = bucket.read_tokens + bucket.write_tokens
        expected = min(rate * elapsed, 2 * bucket.max_tokens)
        assert produced <= expected + 1e-6
        if rate * elapsed <= bucket.max_tokens:
            assert produced == pytest.approx(rate * elapsed)


class TestRateController:
    def _controller(self, params=None):
        return RateController(params or GimbalParams())

    def test_congestion_avoidance_probes_up(self):
        controller = self._controller()
        before = controller.target_rate
        # Prime both meters so the completion clamp is generous.
        for t in range(10):
            controller.meter.record(float(t), 10_000_000)
            controller.clamp_meter.record(float(t), 10_000_000)
        controller.on_completion(10.0, IoOp.READ, 131072, CongestionState.CONGESTION_AVOIDANCE)
        assert controller.target_rate > before

    def test_congested_backs_off(self):
        controller = self._controller()
        before = controller.target_rate
        controller.on_completion(10.0, IoOp.READ, 131072, CongestionState.CONGESTED)
        assert controller.target_rate < before

    def test_underutilized_probes_faster_than_avoidance(self):
        params = GimbalParams()
        fast = self._controller(params)
        slow = self._controller(params)
        for t in range(10):
            fast.meter.record(float(t), 10_000_000)
            slow.meter.record(float(t), 10_000_000)
        fast.on_completion(10.0, IoOp.READ, 131072, CongestionState.UNDERUTILIZED)
        slow.on_completion(10.0, IoOp.READ, 131072, CongestionState.CONGESTION_AVOIDANCE)
        assert fast.target_rate > slow.target_rate

    def test_overloaded_snaps_to_completion_rate_and_discards(self):
        params = GimbalParams()
        controller = self._controller(params)
        # 100 MB over 10ms window = 10 bytes/us completion rate.
        controller.meter.record(0.0, 10_000_000)
        controller.on_completion(100.0, IoOp.WRITE, 131072, CongestionState.OVERLOADED)
        assert controller.bucket.read_tokens == 0.0
        assert controller.bucket.write_tokens == 0.0
        assert controller.target_rate <= 10_000_000 / params.completion_rate_window_us

    def test_rate_clamped_to_band(self):
        params = GimbalParams()
        controller = self._controller(params)
        for _ in range(10_000):
            controller.on_completion(0.0, IoOp.READ, 131072, CongestionState.CONGESTED)
        assert controller.target_rate >= params.min_rate_bytes_per_us

    def test_completion_headroom_clamp_under_pressure(self):
        """Once any IO type shows congestion pressure, the target is
        capped at headroom x the (long-window) completion rate."""
        params = GimbalParams(completion_headroom=1.5)
        controller = self._controller(params)
        for _ in range(1000):
            controller.on_completion(
                1.0,
                IoOp.READ,
                4096,
                CongestionState.CONGESTION_AVOIDANCE,
                overall_state=CongestionState.CONGESTION_AVOIDANCE,
            )
        measured = meter_rate(controller.clamp_meter, 1.0)
        assert controller.target_rate <= measured * params.completion_headroom + 1e-6

    def test_no_clamp_while_underutilized(self):
        """While everything is under-utilised the probe runs free --
        the paper's fast convergence after a workload shift."""
        controller = self._controller()
        before = controller.target_rate
        for t in range(200):
            controller.on_completion(
                float(t), IoOp.READ, 131072, CongestionState.UNDERUTILIZED
            )
        assert controller.target_rate > before


# ----------------------------------------------------------------------
# The flattened completion path against its reference model
# ----------------------------------------------------------------------
_WINDOW_US = GimbalParams().completion_rate_window_us  # the clamp meter's is 4x
_COMPLETION = st.tuples(
    # Bursts at one instant, ordinary spacing, and gaps that empty the
    # snap window only, then both windows.
    st.one_of(
        st.just(0.0),
        st.floats(0.01, 500.0),
        st.floats(_WINDOW_US, 4.0 * _WINDOW_US),
        st.floats(4.0 * _WINDOW_US, 20.0 * _WINDOW_US),
    ),
    # Latencies on both sides of thresh_min (250), the moving threshold
    # and thresh_max (1500).
    st.one_of(
        st.floats(1.0, 250.0),
        st.floats(250.0, 1500.0),
        st.floats(1500.0, 50_000.0),
    ),
    st.sampled_from([1, 2, 4, 8, 16, 32]),  # 4 KiB - 128 KiB
    st.sampled_from([IoOp.READ, IoOp.WRITE]),
)


class _CompletionPath:
    """Monitors + controller wired as ``GimbalScheduler.notify_completion``
    wires them."""

    def __init__(self, monitor_type, controller_type):
        params = GimbalParams()
        self.monitors = {IoOp.READ: monitor_type(params), IoOp.WRITE: monitor_type(params)}
        self.controller = controller_type(params)

    def complete(self, now_us, latency_us, npages, op):
        monitor = self.monitors[op]
        other = self.monitors[IoOp.WRITE if op is IoOp.READ else IoOp.READ]
        state = monitor.observe(latency_us)
        self.controller.on_completion(now_us, op, npages * 4096, state, max(state, other.state))
        return state

    def fingerprint(self):
        controller = self.controller
        return (
            controller.target_rate,
            controller.meter._bytes_in_window,
            controller.clamp_meter._bytes_in_window,
            len(controller.meter._events),
            len(controller.clamp_meter._events),
            controller.bucket.discards,
            controller.bucket.read_tokens,
            controller.bucket.write_tokens,
        ) + tuple(
            (m.threshold, m.ewma.value, m.ewma.initialized, m.state, m.transitions, m.signals)
            for m in self.monitors.values()
        )


class TestCompletionPathMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_COMPLETION, max_size=150))
    def test_bit_identical_after_every_completion(self, completions):
        live = _CompletionPath(LatencyMonitor, RateController)
        reference = _CompletionPath(ReferenceLatencyMonitor, ReferenceRateController)
        now_us = 0.0
        for gap_us, latency_us, npages, op in completions:
            now_us += gap_us
            assert live.complete(now_us, latency_us, npages, op) is reference.complete(
                now_us, latency_us, npages, op
            )
            assert live.fingerprint() == reference.fingerprint()

    def test_a_stream_through_all_four_states(self):
        """The property above is only as good as the states its streams
        reach; this fixed one provably visits all four, the headroom
        clamp, the overload snap and both rate bounds."""
        live = _CompletionPath(LatencyMonitor, RateController)
        reference = _CompletionPath(ReferenceLatencyMonitor, ReferenceRateController)
        params = live.controller.params
        seen, rates = set(), set()
        now_us = 0.0
        latencies = [60.0] * 300 + [400.0] * 40 + [900.0, 1400.0] * 20 + [5000.0] * 60 + [30.0] * 4000
        for index, latency_us in enumerate(latencies):
            if latency_us == 5000.0 and index % 2:
                now_us += 1.5 * _WINDOW_US  # a trickle: the snap lands on the floor
            else:
                now_us += 0.0 if index % 7 == 0 else 35.0
            op = IoOp.WRITE if index % 3 == 0 else IoOp.READ
            state = live.complete(now_us, latency_us, 1 + index % 32, op)
            assert state is reference.complete(now_us, latency_us, 1 + index % 32, op)
            assert live.fingerprint() == reference.fingerprint()
            seen.add(state)
            rates.add(live.controller.target_rate)
        assert seen == set(CongestionState)
        assert live.controller.bucket.discards > 0
        assert params.min_rate_bytes_per_us in rates and params.max_rate_bytes_per_us in rates
