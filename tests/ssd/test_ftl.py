"""Tests for the page-mapped FTL and its garbage collector."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.ftl import Ftl
from repro.ssd.geometry import SsdGeometry


@pytest.fixture
def geometry():
    return SsdGeometry(num_channels=4, blocks_per_channel=10, pages_per_block=32, overprovision=0.4)


@pytest.fixture
def ftl(geometry):
    return Ftl(geometry)


class TestMapping:
    def test_unwritten_lpn_is_unmapped(self, ftl):
        assert ftl.lookup(0) == -1

    def test_write_maps_lpn(self, ftl):
        ppn, _ = ftl.write_page(5)
        assert ftl.lookup(5) == ppn

    def test_overwrite_remaps(self, ftl):
        first, _ = ftl.write_page(5)
        second, _ = ftl.write_page(5)
        assert first != second
        assert ftl.lookup(5) == second

    def test_out_of_range_lpn_rejected(self, ftl, geometry):
        with pytest.raises(ValueError):
            ftl.write_page(geometry.exported_pages)
        with pytest.raises(ValueError):
            ftl.write_page(-1)

    def test_trim_unmaps(self, ftl):
        ftl.write_page(7)
        ftl.trim_page(7)
        assert ftl.lookup(7) == -1

    def test_trim_unwritten_is_noop(self, ftl):
        ftl.trim_page(3)
        assert ftl.lookup(3) == -1

    def test_sequential_writes_stripe_across_channels(self, ftl, geometry):
        channels = set()
        for lpn in range(geometry.num_channels):
            ppn, _ = ftl.write_page(lpn)
            channels.add(geometry.channel_of_page(ppn))
        assert channels == set(range(geometry.num_channels))

    def test_channel_of_unmapped_lpn_is_stable(self, ftl):
        assert ftl.channel_of_lpn(11) == ftl.channel_of_lpn(11)

    def test_no_two_lpns_share_a_physical_page(self, ftl, geometry):
        rng = random.Random(0)
        for _ in range(geometry.exported_pages * 2):
            ftl.write_page(rng.randrange(geometry.exported_pages))
        seen = {}
        for lpn in range(geometry.exported_pages):
            ppn = ftl.lookup(lpn)
            if ppn != -1:
                assert ppn not in seen, f"LPNs {seen[ppn]} and {lpn} share PPN {ppn}"
                seen[ppn] = lpn


class TestGarbageCollection:
    def test_fill_entire_device_succeeds(self, ftl, geometry):
        for lpn in range(geometry.exported_pages):
            ftl.write_page(lpn)
        assert ftl.mapped_pages == geometry.exported_pages

    def test_sustained_overwrite_never_exhausts(self, ftl, geometry):
        rng = random.Random(1)
        for lpn in range(geometry.exported_pages):
            ftl.write_page(lpn)
        for _ in range(geometry.exported_pages * 3):
            ftl.write_page(rng.randrange(geometry.exported_pages))
        ftl.check_invariants()

    def test_sequential_overwrite_has_low_write_amplification(self, ftl, geometry):
        for _ in range(2):
            for lpn in range(geometry.exported_pages):
                ftl.write_page(lpn)
        ftl.stats.host_programs = ftl.stats.gc_programs = 0
        for lpn in range(geometry.exported_pages):
            ftl.write_page(lpn)
        assert ftl.stats.write_amplification < 1.3

    def test_random_overwrite_amplifies_more_than_sequential(self):
        """Random overwrites fragment blocks and force valid-page relocation."""
        # Tighter overprovisioning than the fixture so fragmentation bites.
        geometry = SsdGeometry(
            num_channels=4, blocks_per_channel=20, pages_per_block=32, overprovision=0.2
        )

        def steady_state_wa(random_pattern):
            ftl = Ftl(geometry)
            rng = random.Random(2)
            for lpn in range(geometry.exported_pages):
                ftl.write_page(lpn)
            for _ in range(geometry.exported_pages * 2):
                if random_pattern:
                    ftl.write_page(rng.randrange(geometry.exported_pages))
                else:
                    pass
            if not random_pattern:
                for lpn in range(geometry.exported_pages):
                    ftl.write_page(lpn)
            ftl.stats.host_programs = ftl.stats.gc_programs = 0
            for i in range(geometry.exported_pages):
                if random_pattern:
                    ftl.write_page(rng.randrange(geometry.exported_pages))
                else:
                    ftl.write_page(i)
            return ftl.stats.write_amplification

        random_wa = steady_state_wa(random_pattern=True)
        sequential_wa = steady_state_wa(random_pattern=False)
        assert random_wa > 1.8
        assert random_wa > 1.5 * sequential_wa

    def test_gc_preserves_all_mappings(self, ftl, geometry):
        """GC relocation must never lose or corrupt a logical page."""
        rng = random.Random(3)
        shadow = {}
        for _ in range(geometry.exported_pages * 4):
            lpn = rng.randrange(geometry.exported_pages)
            ppn, _ = ftl.write_page(lpn)
            shadow[lpn] = True
        for lpn in shadow:
            assert ftl.lookup(lpn) != -1
        ftl.check_invariants()

    def test_gc_work_reported(self, ftl, geometry):
        rng = random.Random(4)
        for lpn in range(geometry.exported_pages):
            ftl.write_page(lpn)
        total_relocations = 0
        for _ in range(geometry.exported_pages):
            _, work = ftl.write_page(rng.randrange(geometry.exported_pages))
            assert work.relocation_reads == work.relocation_programs
            total_relocations += work.relocation_programs
        assert total_relocations > 0
        assert ftl.stats.gc_programs == total_relocations

    def test_erases_counted(self, ftl, geometry):
        for _ in range(3):
            for lpn in range(geometry.exported_pages):
                ftl.write_page(lpn)
        assert ftl.stats.erases > 0

    def test_free_blocks_stay_above_zero(self, ftl, geometry):
        rng = random.Random(5)
        for _ in range(geometry.exported_pages * 3):
            ftl.write_page(rng.randrange(geometry.exported_pages))
            for channel in range(geometry.num_channels):
                assert ftl.free_blocks_on_channel(channel) >= 0


class TestSnapshotRestore:
    def test_restore_reproduces_mappings(self, geometry):
        source = Ftl(geometry)
        rng = random.Random(6)
        for _ in range(geometry.exported_pages * 2):
            source.write_page(rng.randrange(geometry.exported_pages))
        snap = source.snapshot()
        target = Ftl(geometry)
        target.restore(snap)
        assert target.page_map == source.page_map
        target.check_invariants()

    def test_restored_ftl_keeps_working(self, geometry):
        source = Ftl(geometry)
        for lpn in range(geometry.exported_pages):
            source.write_page(lpn)
        target = Ftl(geometry)
        target.restore(source.snapshot())
        rng = random.Random(7)
        for _ in range(geometry.exported_pages):
            target.write_page(rng.randrange(geometry.exported_pages))
        target.check_invariants()

    def test_snapshot_is_isolated_from_source_mutation(self, geometry):
        source = Ftl(geometry)
        source.write_page(0)
        snap = source.snapshot()
        source.write_page(1)
        target = Ftl(geometry)
        target.restore(snap)
        assert target.lookup(1) == -1

    def test_restore_round_trips_stats(self, geometry):
        """Stats survive a snapshot/restore (they used to be dropped)."""
        source = Ftl(geometry)
        for lpn in range(geometry.exported_pages):
            source.write_page(lpn)
        target = Ftl(geometry)
        target.restore(source.snapshot())
        assert target.stats == source.stats
        # Measurement resets are explicit now, not a restore side effect.
        target.reset_measurement()
        assert target.stats.host_programs == 0


def _churn(ftl, geometry, passes, seed=0):
    """Fill the device, then ``passes`` capacities of uniform overwrites."""
    rng = random.Random(seed)
    for lpn in range(geometry.exported_pages):
        ftl.write_page(lpn)
    for _ in range(geometry.exported_pages * passes):
        ftl.write_page(rng.randrange(geometry.exported_pages))


class TestWearLevelling:
    """Least-worn-first free-block choice, the FTL's one wear mechanism."""

    def test_erase_counts_accumulate(self):
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=10, pages_per_block=32,
                               overprovision=0.4)
        ftl = Ftl(geometry)
        _churn(ftl, geometry, passes=3)
        assert sum(ftl._erase_counts) == ftl.stats.erases > 0

    def test_wear_spread_stays_bounded_under_uniform_churn(self):
        """Least-worn-first free-block selection keeps the erase-count
        gap small relative to the mean."""
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=12, pages_per_block=32,
                               overprovision=0.35)
        ftl = Ftl(geometry)
        _churn(ftl, geometry, passes=10)
        counts = ftl._erase_counts
        mean = sum(counts) / len(counts)
        assert mean > 3
        # Hot GC blocks inevitably cycle more, but the spread must not
        # dwarf the mean (no block left permanently cold).
        assert max(counts) - min(counts) <= max(6.0, 2.0 * mean)

    def test_host_block_is_the_least_worn_free_block(self, ftl):
        free = list(ftl._free[0])
        for wear, block_id in enumerate(reversed(free)):
            ftl._erase_counts[block_id] = 10 + wear
        coldest = free[len(free) // 2]
        ftl._erase_counts[coldest] = 1
        ppn, _ = ftl.write_page(0)  # the first write opens channel 0's host block
        assert ftl.geometry.block_of_page(ppn) == coldest

    def test_wear_survives_snapshot_restore(self):
        geometry = SsdGeometry(num_channels=2, blocks_per_channel=10, pages_per_block=32,
                               overprovision=0.4)
        source = Ftl(geometry)
        _churn(source, geometry, passes=3)
        target = Ftl(geometry)
        target.restore(source.snapshot())
        assert target._erase_counts == source._erase_counts


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=400))
    def test_arbitrary_write_sequences_keep_invariants(self, lpns):
        """Property: any in-range write sequence leaves the FTL consistent."""
        geometry = SsdGeometry(
            num_channels=2, blocks_per_channel=8, pages_per_block=16, overprovision=0.4
        )
        ftl = Ftl(geometry, gc_low_water=0, gc_high_water=1)
        for lpn in lpns:
            ftl.write_page(lpn % geometry.exported_pages)
        ftl.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=300,
        )
    )
    def test_interleaved_write_trim_keeps_invariants(self, ops):
        """Property: interleaved writes and trims never corrupt the maps."""
        geometry = SsdGeometry(
            num_channels=2, blocks_per_channel=8, pages_per_block=16, overprovision=0.4
        )
        ftl = Ftl(geometry, gc_low_water=0, gc_high_water=1)
        live = set()
        for is_write, raw in ops:
            lpn = raw % geometry.exported_pages
            if is_write:
                ftl.write_page(lpn)
                live.add(lpn)
            else:
                ftl.trim_page(lpn)
                live.discard(lpn)
        ftl.check_invariants()
        for lpn in live:
            assert ftl.lookup(lpn) != -1
