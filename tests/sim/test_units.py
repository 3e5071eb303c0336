"""Tests for unit constants and conversions."""

from __future__ import annotations

import pytest

from repro.sim.units import GB, GBPS, KB, MB, MBPS, MS, SEC, US, mbps


class TestUnits:
    def test_size_ladder(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_time_ladder(self):
        assert US == 1.0
        assert MS == 1000.0
        assert SEC == 1_000_000.0

    def test_rate_constants(self):
        assert MBPS == pytest.approx(MB / SEC)
        assert GBPS == pytest.approx(GB / SEC)

    def test_mbps_round_trip(self):
        rate = mbps(1600.0)
        # 1600 MB/s moves 1600 MiB in one simulated second.
        assert rate * SEC == pytest.approx(1600 * MB)
