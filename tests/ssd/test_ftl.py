"""Tests for the page-mapped FTL and its garbage collector."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.ssd.commands import DeviceCommand, IoOp
from repro.ssd.device import SsdDevice
from repro.ssd.ftl import Ftl
from repro.ssd.geometry import SsdGeometry
from tests.ssd.invariants import check_invariants


@pytest.fixture
def geometry():
    return SsdGeometry(num_channels=4, blocks_per_channel=10, pages_per_block=32, overprovision=0.4)


@pytest.fixture
def ftl(geometry):
    return Ftl(geometry)


class TestMapping:
    def test_unwritten_lpn_is_unmapped(self, ftl):
        assert ftl.lookup(0) == -1

    def test_write_maps_lpn(self, ftl, geometry):
        assert ftl.write_pages([5]) == []
        assert 0 <= ftl.lookup(5) < geometry.total_pages

    def test_overwrite_remaps(self, ftl):
        ftl.write_pages([5])
        first = ftl.lookup(5)
        ftl.write_pages([5])
        assert ftl.lookup(5) not in (first, -1)

    def test_out_of_range_lpn_rejected(self, ftl, geometry):
        with pytest.raises(ValueError):
            ftl.write_pages([geometry.exported_pages])
        with pytest.raises(ValueError):
            ftl.write_pages([-1])

    def test_trim_unmaps(self, ftl):
        ftl.write_pages([7])
        ftl.trim_page(7)
        assert ftl.lookup(7) == -1

    def test_trim_unwritten_is_noop(self, ftl):
        ftl.trim_page(3)
        assert ftl.lookup(3) == -1

    def test_sequential_writes_stripe_across_channels(self, ftl, geometry):
        ftl.write_pages(range(geometry.num_channels))
        channels = {
            ftl.lookup(lpn) // geometry.pages_per_block % geometry.num_channels
            for lpn in range(geometry.num_channels)
        }
        assert channels == set(range(geometry.num_channels))

    def test_channel_of_unmapped_lpn_is_stable(self, geometry):
        """A read of a never-written page books channel ``lpn % num_channels``,
        in a single-page command and in a multi-page one alike."""
        for lpn, npages in ((11, 1), (11, 2), (10, 3)):
            device = SsdDevice(Simulator(), geometry=geometry)
            device.submit(DeviceCommand(IoOp.READ, lpn, npages), lambda cmd: None)
            touched = {ch for ch, horizon in enumerate(device._fg_horizon) if horizon > 0}
            assert touched == {page % geometry.num_channels for page in range(lpn, lpn + npages)}

    def test_no_two_lpns_share_a_physical_page(self, ftl, geometry):
        rng = random.Random(0)
        for _ in range(geometry.exported_pages * 2):
            ftl.write_pages([rng.randrange(geometry.exported_pages)])
        seen = {}
        for lpn in range(geometry.exported_pages):
            ppn = ftl.lookup(lpn)
            if ppn != -1:
                assert ppn not in seen, f"LPNs {seen[ppn]} and {lpn} share PPN {ppn}"
                seen[ppn] = lpn


class TestGarbageCollection:
    def test_fill_entire_device_succeeds(self, ftl, geometry):
        ftl.write_pages(range(geometry.exported_pages))
        assert -1 not in ftl.page_map

    def test_sustained_overwrite_never_exhausts(self, ftl, geometry):
        rng = random.Random(1)
        ftl.write_pages(range(geometry.exported_pages))
        ftl.write_pages(
            rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages * 3)
        )
        check_invariants(ftl)

    def test_sequential_overwrite_has_low_write_amplification(self, ftl, geometry):
        for _ in range(2):
            ftl.write_pages(range(geometry.exported_pages))
        ftl.stats.host_programs = ftl.stats.gc_programs = 0
        ftl.write_pages(range(geometry.exported_pages))
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
            ftl.write_pages(range(geometry.exported_pages))
            if random_pattern:
                ftl.write_pages(
                    rng.randrange(geometry.exported_pages)
                    for _ in range(geometry.exported_pages * 2)
                )
            else:
                ftl.write_pages(range(geometry.exported_pages))
            ftl.stats.host_programs = ftl.stats.gc_programs = 0
            if random_pattern:
                ftl.write_pages(
                    rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages)
                )
            else:
                ftl.write_pages(range(geometry.exported_pages))
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
            ftl.write_pages([lpn])
            shadow[lpn] = True
        for lpn in shadow:
            assert ftl.lookup(lpn) != -1
        check_invariants(ftl)

    def test_gc_work_reported(self, ftl, geometry):
        rng = random.Random(4)
        ftl.write_pages(range(geometry.exported_pages))
        total_relocations = 0
        draws = [rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages)]
        for index, work in ftl.write_pages(draws):
            assert 0 <= index < len(draws) and not work.empty
            assert work.relocation_reads == work.relocation_programs
            total_relocations += work.relocation_programs
        assert total_relocations > 0
        assert ftl.stats.gc_programs == total_relocations

    def test_erases_counted(self, ftl, geometry):
        for _ in range(3):
            ftl.write_pages(range(geometry.exported_pages))
        assert ftl.stats.erases > 0

    def test_free_blocks_stay_above_zero(self, ftl, geometry):
        rng = random.Random(5)
        for _ in range(geometry.exported_pages * 3):
            ftl.write_pages([rng.randrange(geometry.exported_pages)])
        check_invariants(ftl)


class TestSnapshotRestore:
    def test_restore_reproduces_mappings(self, geometry):
        source = Ftl(geometry)
        rng = random.Random(6)
        source.write_pages(
            rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages * 2)
        )
        snap = source.snapshot()
        target = Ftl(geometry)
        target.restore(snap)
        assert target.page_map == source.page_map
        check_invariants(target)

    def test_restored_ftl_keeps_working(self, geometry):
        source = Ftl(geometry)
        source.write_pages(range(geometry.exported_pages))
        target = Ftl(geometry)
        target.restore(source.snapshot())
        rng = random.Random(7)
        target.write_pages(
            rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages)
        )
        check_invariants(target)

    def test_snapshot_is_isolated_from_source_mutation(self, geometry):
        source = Ftl(geometry)
        source.write_pages([0])
        snap = source.snapshot()
        source.write_pages([1])
        target = Ftl(geometry)
        target.restore(snap)
        assert target.lookup(1) == -1

    def test_restore_round_trips_stats(self, geometry):
        """Stats survive a snapshot/restore (they used to be dropped)."""
        source = Ftl(geometry)
        source.write_pages(range(geometry.exported_pages))
        target = Ftl(geometry)
        target.restore(source.snapshot())
        assert target.stats == source.stats
        # Measurement resets are explicit now, not a restore side effect.
        target.reset_measurement()
        assert target.stats.host_programs == 0


def _churn(ftl, geometry, passes, seed=0):
    """Fill the device, then ``passes`` capacities of uniform overwrites."""
    rng = random.Random(seed)
    ftl.write_pages(range(geometry.exported_pages))
    ftl.write_pages(
        rng.randrange(geometry.exported_pages) for _ in range(geometry.exported_pages * passes)
    )


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
        ftl.write_pages([0])  # the first write opens channel 0's host block
        assert ftl.lookup(0) // ftl.geometry.pages_per_block == coldest

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
        ftl.write_pages(lpn % geometry.exported_pages for lpn in lpns)
        check_invariants(ftl)

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
                ftl.write_pages([lpn])
                live.add(lpn)
            else:
                ftl.trim_page(lpn)
                live.discard(lpn)
        check_invariants(ftl)
        for lpn in live:
            assert ftl.lookup(lpn) != -1
