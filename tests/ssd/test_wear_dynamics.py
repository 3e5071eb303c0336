"""Tests for the wear-dynamics layer: endurance retirement, static
wear levelling, and fast-forwarded aging."""

from __future__ import annotations

import random

import pytest

from repro.ssd.ftl import Ftl, FtlError, WearConfig
from repro.ssd.geometry import SsdGeometry

#: Enough spare blocks above the viability floor for retirement to
#: actually happen (see the budget maths in Ftl._retirable_free_count).
ROOMY = SsdGeometry(
    num_channels=2, blocks_per_channel=16, pages_per_block=32, overprovision=0.4
)
#: No headroom: the viability floor equals the channel size.
TIGHT = SsdGeometry(
    num_channels=2, blocks_per_channel=12, pages_per_block=32, overprovision=0.35
)


def churn(ftl, geometry, passes=4, seed=0):
    rng = random.Random(seed)
    for lpn in range(geometry.exported_pages):
        ftl.write_page(lpn)
    for _ in range(geometry.exported_pages * passes):
        ftl.write_page(rng.randrange(geometry.exported_pages))


class TestWearConfig:
    def test_rejects_non_positive_knobs(self):
        with pytest.raises(ValueError):
            WearConfig(endurance_cycles=0)
        with pytest.raises(ValueError):
            WearConfig(static_wear_threshold=-1)

    def test_default_is_reference_behaviour(self):
        config = WearConfig()
        assert config.endurance_cycles is None
        assert config.static_wear_threshold is None


class TestRetirement:
    def test_worn_blocks_retire_under_churn(self):
        ftl = Ftl(ROOMY, wear=WearConfig(endurance_cycles=5))
        churn(ftl, ROOMY, passes=8)
        ftl.check_invariants()
        assert ftl.retired_blocks > 0
        stats = ftl.wear_stats()
        assert stats.retired_blocks == ftl.retired_blocks
        # In-service distribution excludes the dead blocks, so the max
        # can legitimately sit at/above the limit only for blocks the
        # viability floor kept in rotation.
        assert stats.total_erases > 0

    def test_viability_floor_blocks_retirement(self):
        """With no spare blocks above the floor, endurance death must
        not shrink the pool below what GC needs: the device keeps
        running on over-endurance blocks instead of deadlocking."""
        ftl = Ftl(TIGHT, wear=WearConfig(endurance_cycles=3))
        churn(ftl, TIGHT, passes=10)
        ftl.check_invariants()
        assert ftl.retired_blocks == 0
        assert ftl.wear_stats().max_erases >= 3  # wear really did exceed the limit

    def test_retirement_keeps_gc_runway(self):
        """Sustained churn far past the endurance limit must never
        exhaust a channel: the free pool floor in the retirement pass
        guarantees GC forward progress."""
        ftl = Ftl(ROOMY, wear=WearConfig(endurance_cycles=4))
        try:
            churn(ftl, ROOMY, passes=20, seed=3)
        except FtlError as error:  # pragma: no cover - the bug under test
            pytest.fail(f"GC starved by retirement: {error}")
        ftl.check_invariants()
        assert ftl.retired_blocks > 0
        for channel in range(ROOMY.num_channels):
            assert ftl.free_blocks_on_channel(channel) >= 1

    def test_retired_blocks_never_reused(self):
        ftl = Ftl(ROOMY, wear=WearConfig(endurance_cycles=5))
        churn(ftl, ROOMY, passes=8)
        retired = [b for b, flag in enumerate(ftl._retired) if flag]
        assert retired
        frozen = {b: ftl._erase_counts[b] for b in retired}
        churn(ftl, ROOMY, passes=4, seed=9)
        for block_id, count in frozen.items():
            assert ftl._erase_counts[block_id] == count, "retired block erased again"


class TestStaticWearLevelling:
    def test_cold_block_migrates_when_spread_exceeds_threshold(self):
        ftl = Ftl(ROOMY, wear=WearConfig(static_wear_threshold=4))
        # Park cold data: write the whole space once (cold blocks form),
        # then hammer a small hot region so the spread grows.
        for lpn in range(ROOMY.exported_pages):
            ftl.write_page(lpn)
        rng = random.Random(1)
        hot = ROOMY.exported_pages // 8
        for _ in range(ROOMY.exported_pages * 12):
            ftl.write_page(rng.randrange(hot))
        ftl.check_invariants()
        assert ftl.stats.wl_migrations > 0
        assert ftl.stats.wl_programs > 0

    def test_wl_work_counts_toward_write_amplification(self):
        ftl = Ftl(ROOMY, wear=WearConfig(static_wear_threshold=4))
        for lpn in range(ROOMY.exported_pages):
            ftl.write_page(lpn)
        rng = random.Random(1)
        hot = ROOMY.exported_pages // 8
        for _ in range(ROOMY.exported_pages * 12):
            ftl.write_page(rng.randrange(hot))
        stats = ftl.stats
        expected = (stats.host_programs + stats.gc_programs + stats.wl_programs) / stats.host_programs
        assert stats.write_amplification == pytest.approx(expected)

    def test_no_migration_without_threshold(self):
        ftl = Ftl(ROOMY)  # wear=None: reference behaviour
        churn(ftl, ROOMY, passes=8)
        assert ftl.stats.wl_migrations == 0
        assert ftl.stats.wl_programs == 0


class TestAgedSnapshotContinuation:
    def test_restore_continues_byte_identically(self):
        """An aged snapshot is not just equal at rest: the restored
        FTL must make the exact same decisions (GC victims, wear-level
        migrations, retirements, map traffic) under a continued
        workload."""
        from repro.ssd.mapping_cache import MappingCache

        def build():
            return Ftl(
                ROOMY,
                mapping_cache=MappingCache(
                    ROOMY.exported_pages, capacity_pages=2, entries_per_page=64
                ),
                wear=WearConfig(endurance_cycles=8, static_wear_threshold=4),
            )

        original = build()
        churn(original, ROOMY, passes=5, seed=7)
        original.advance_wear([2] * ROOMY.total_blocks)
        clone = build()
        clone.restore(original.snapshot())

        rng = random.Random(11)
        ops = [rng.randrange(ROOMY.exported_pages) for _ in range(ROOMY.exported_pages * 3)]
        for ftl in (original, clone):
            for lpn in ops:
                ftl.write_page(lpn)
                ftl.lookup(lpn)
        assert clone.page_map == original.page_map
        assert clone.stats == original.stats
        assert clone._erase_counts == original._erase_counts
        assert clone.retired_blocks == original.retired_blocks
        assert clone.take_map_traffic() == original.take_map_traffic()
        assert clone.map_cache.snapshot() == original.map_cache.snapshot()
        clone.check_invariants()


class TestAdvanceWear:
    def test_adds_cycles(self):
        ftl = Ftl(ROOMY)
        ftl.advance_wear([3] * ROOMY.total_blocks)
        stats = ftl.wear_stats()
        assert stats.min_erases == stats.max_erases == 3
        assert stats.total_erases == 3 * ROOMY.total_blocks

    def test_validates_input(self):
        ftl = Ftl(ROOMY)
        with pytest.raises(ValueError):
            ftl.advance_wear([1])
        with pytest.raises(ValueError):
            ftl.advance_wear([-1] * ROOMY.total_blocks)

    def test_clamps_one_short_of_endurance(self):
        """An aged device must boot alive: fast-forwarded wear stops
        one cycle short of the limit so retirement happens during the
        run, not at time zero."""
        ftl = Ftl(ROOMY, wear=WearConfig(endurance_cycles=10))
        ftl.advance_wear([50] * ROOMY.total_blocks)
        assert ftl.wear_stats().max_erases == 9
        assert ftl.retired_blocks == 0

    def test_aged_device_still_writable(self):
        ftl = Ftl(ROOMY, wear=WearConfig(endurance_cycles=10))
        ftl.advance_wear([50] * ROOMY.total_blocks)
        churn(ftl, ROOMY, passes=3)
        ftl.check_invariants()
        assert ftl.retired_blocks > 0  # limit crossed during the run
