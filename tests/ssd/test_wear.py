"""Tests for wear levelling in the FTL."""

from __future__ import annotations

import random

from repro.ssd.ftl import Ftl, WearStats
from repro.ssd.geometry import SsdGeometry


def churn(ftl, geometry, passes=6, seed=0):
    rng = random.Random(seed)
    for lpn in range(geometry.exported_pages):
        ftl.write_page(lpn)
    for _ in range(geometry.exported_pages * passes):
        ftl.write_page(rng.randrange(geometry.exported_pages))


class TestWearLevelling:
    def test_erase_counts_accumulate(self):
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=10, pages_per_block=32,
                               overprovision=0.4)
        ftl = Ftl(geometry)
        churn(ftl, geometry, passes=3)
        stats = ftl.wear_stats()
        assert stats.mean_erases > 0
        assert stats.max_erases >= stats.min_erases

    def test_wear_spread_stays_bounded_under_uniform_churn(self):
        """Least-worn-first free-block selection keeps the erase-count
        gap small relative to the mean."""
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=12, pages_per_block=32,
                               overprovision=0.35)
        ftl = Ftl(geometry)
        churn(ftl, geometry, passes=10)
        stats = ftl.wear_stats()
        assert stats.mean_erases > 3
        # Hot GC blocks inevitably cycle more, but the spread must not
        # dwarf the mean (no block left permanently cold).
        assert stats.spread <= max(6.0, 2.0 * stats.mean_erases)

    def test_wear_survives_snapshot_restore(self):
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=10, pages_per_block=32,
                               overprovision=0.4)
        source = Ftl(geometry)
        churn(source, geometry, passes=3)
        target = Ftl(geometry)
        target.restore(source.snapshot())
        assert target.wear_stats() == source.wear_stats()

    def test_wear_stats_shape(self):
        stats = WearStats(min_erases=1, max_erases=5, mean_erases=2.5)
        assert stats.spread == 4
