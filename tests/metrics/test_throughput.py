"""Tests for throughput accounting."""

from __future__ import annotations

import pytest

from repro.metrics.throughput import IntervalSeries, ThroughputMonitor
from repro.sim.units import MB, SEC


class TestThroughputMonitor:
    def test_zero_before_start(self):
        monitor = ThroughputMonitor()
        monitor.record(10.0, 4096)
        assert monitor.bandwidth_mbps(20.0) == 0.0
        assert monitor.iops(20.0) == 0.0

    def test_bandwidth_computation(self):
        monitor = ThroughputMonitor()
        monitor.start(0.0)
        monitor.record(1.0, 100 * MB)
        assert monitor.bandwidth_mbps(1.0 * SEC) == pytest.approx(100.0)

    def test_iops_computation(self):
        monitor = ThroughputMonitor()
        monitor.start(0.0)
        for i in range(500):
            monitor.record(float(i), 4096)
        assert monitor.iops(0.5 * SEC) == pytest.approx(1000.0)

    def test_records_before_window_discarded(self):
        monitor = ThroughputMonitor()
        monitor.start(100.0)
        monitor.record(50.0, MB)
        monitor.record(150.0, MB)
        assert monitor.ops == 1

    def test_restart_clears_counters(self):
        monitor = ThroughputMonitor()
        monitor.start(0.0)
        monitor.record(1.0, MB)
        monitor.start(10.0)
        assert monitor.bytes == 0
        assert monitor.ops == 0

    def test_zero_elapsed_returns_zero(self):
        monitor = ThroughputMonitor()
        monitor.start(5.0)
        monitor.record(5.0, MB)
        assert monitor.bandwidth_mbps(5.0) == 0.0


class TestIntervalSeries:
    def test_sum_mode(self):
        series = IntervalSeries(window_us=10.0, mode="sum")
        series.record(1.0, 5.0)
        series.record(2.0, 5.0)
        series.record(15.0, 3.0)
        assert series.series() == [(0.0, 10.0), (10.0, 3.0)]

    def test_mean_mode(self):
        series = IntervalSeries(window_us=10.0, mode="mean")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.series() == [(0.0, 15.0)]

    def test_last_mode(self):
        series = IntervalSeries(window_us=10.0, mode="last")
        series.record(1.0, 10.0)
        series.record(9.0, 99.0)
        assert series.series() == [(0.0, 99.0)]

    def test_windows_sorted_even_when_recorded_out_of_order(self):
        series = IntervalSeries(window_us=10.0)
        series.record(25.0, 1.0)
        series.record(5.0, 2.0)
        starts = [t for t, _ in series.series()]
        assert starts == sorted(starts)

    def test_bandwidth_series(self):
        series = IntervalSeries(window_us=1.0 * SEC, mode="sum")
        series.record(0.5 * SEC, 100 * MB)
        points = series.bandwidth_series_mbps()
        assert points[0][1] == pytest.approx(100.0)

    def test_bandwidth_series_requires_sum_mode(self):
        series = IntervalSeries(window_us=10.0, mode="mean")
        with pytest.raises(ValueError):
            series.bandwidth_series_mbps()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            IntervalSeries(window_us=0.0)
        with pytest.raises(ValueError):
            IntervalSeries(window_us=1.0, mode="median")


class TestInteriorGaps:
    """Regression: sum-mode series used to splice out idle windows,
    so an idle second silently vanished from bandwidth timelines."""

    def test_sum_mode_emits_zero_for_interior_gap(self):
        series = IntervalSeries(window_us=10.0, mode="sum")
        series.record(5.0, 7.0)
        series.record(35.0, 3.0)
        assert series.series() == [
            (0.0, 7.0),
            (10.0, 0.0),
            (20.0, 0.0),
            (30.0, 3.0),
        ]

    def test_sum_mode_no_padding_outside_observed_range(self):
        series = IntervalSeries(window_us=10.0, mode="sum")
        series.record(25.0, 1.0)
        assert series.series() == [(20.0, 1.0)]

    def test_bandwidth_series_reads_zero_during_idle(self):
        series = IntervalSeries(window_us=1.0 * SEC, mode="sum")
        series.record(0.5 * SEC, 100 * MB)
        series.record(2.5 * SEC, 100 * MB)
        points = series.bandwidth_series_mbps()
        assert [t for t, _ in points] == [0.0, 1.0 * SEC, 2.0 * SEC]
        assert points[1][1] == 0.0

    def test_mean_mode_still_skips_empty_windows(self):
        series = IntervalSeries(window_us=10.0, mode="mean")
        series.record(5.0, 4.0)
        series.record(35.0, 8.0)
        assert series.series() == [(0.0, 4.0), (30.0, 8.0)]

    def test_last_mode_still_skips_empty_windows(self):
        series = IntervalSeries(window_us=10.0, mode="last")
        series.record(5.0, 4.0)
        series.record(35.0, 8.0)
        assert series.series() == [(0.0, 4.0), (30.0, 8.0)]
