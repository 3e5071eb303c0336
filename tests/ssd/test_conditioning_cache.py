"""Conditioning-cache keying: distinct targets must never share state.

The conditioning snapshot cache turns "multiple hours" of
preconditioning into a dict lookup, which makes its *key* a
correctness surface: if two different conditioning targets collide,
one experiment silently runs on another experiment's device.  These
tests pin the key down across every axis -- kind, parameters, seed,
geometry and the GC watermarks.
"""

from __future__ import annotations

import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.sim.engine import Simulator
from repro.ssd.conditioning import (
    _MAX_SNAPSHOTS,
    _snapshot_cache,
    clear_conditioning_cache,
    precondition_clean,
    precondition_fragmented,
)
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry
from repro.ssd.profiles import profile_by_name

GEOMETRY = SsdGeometry(
    num_channels=2, blocks_per_channel=14, pages_per_block=32, overprovision=0.4
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_conditioning_cache()
    yield
    clear_conditioning_cache()


def make_device(geometry=GEOMETRY, **overrides):
    profile = replace(profile_by_name("dct983"), **overrides)
    return SsdDevice(Simulator(), profile=profile, geometry=geometry)


class TestKeySeparation:
    def test_kinds_never_collide(self):
        precondition_clean(make_device())
        precondition_fragmented(make_device())
        assert len(_snapshot_cache) == 2

    def test_fragmented_seed_and_factor_are_distinct(self):
        precondition_fragmented(make_device(), seed=1)
        precondition_fragmented(make_device(), seed=2)
        precondition_fragmented(make_device(), overwrite_factor=1.0)
        assert len(_snapshot_cache) == 3

    def test_geometry_is_part_of_the_key(self):
        other = SsdGeometry(
            num_channels=2, blocks_per_channel=16, pages_per_block=32, overprovision=0.4
        )
        precondition_fragmented(make_device())
        precondition_fragmented(make_device(geometry=other))
        assert len(_snapshot_cache) == 2

    def test_gc_watermarks_are_part_of_the_key(self):
        """The watermarks decide when GC runs, so a device with others
        must condition afresh rather than restore this layout."""
        precondition_clean(make_device())
        restored = make_device(gc_low_water_blocks=0)
        precondition_clean(restored)
        assert len(_snapshot_cache) == 2
        clear_conditioning_cache()
        fresh = make_device(gc_low_water_blocks=0)
        precondition_clean(fresh)
        assert restored.ftl.snapshot() == fresh.ftl.snapshot()

    def test_two_devices_same_params_share_one_entry(self):
        first = make_device()
        precondition_fragmented(first, seed=3)
        second = make_device()
        precondition_fragmented(second, seed=3)
        assert len(_snapshot_cache) == 1
        assert second.ftl.page_map == first.ftl.page_map
        assert second.ftl._erase_counts == first.ftl._erase_counts


class TestCacheIsBounded:
    def test_per_point_keys_do_not_accumulate(self):
        """A sweep that fragments every point with its own seed stores
        snapshots it never reads back; only the newest few may stay."""
        for seed in range(_MAX_SNAPSHOTS + 3):
            precondition_fragmented(make_device(), seed=seed)
        assert len(_snapshot_cache) == _MAX_SNAPSHOTS
        newest = {key[-1] for key in _snapshot_cache}
        assert newest == set(range(3, _MAX_SNAPSHOTS + 3))

    def test_entries_in_use_survive_a_stream_of_one_shot_keys(self):
        """Eviction is by recency of *use*: the clean and fragmented
        states every other point restores outlive the one-off seeds."""
        precondition_clean(make_device())
        precondition_fragmented(make_device())
        stored = dict(_snapshot_cache)
        for seed in range(100, 100 + 3 * _MAX_SNAPSHOTS):
            precondition_fragmented(make_device(), seed=seed)
            precondition_clean(make_device())
            precondition_fragmented(make_device())
        assert len(_snapshot_cache) == _MAX_SNAPSHOTS
        # The very snapshots stored at the start: never evicted, never rebuilt.
        for key, snap in stored.items():
            assert _snapshot_cache[key] is snap


class TestRestoredStateIsIsolated:
    def test_restore_does_not_alias_cached_snapshot(self):
        """Mutating a restored device must not corrupt the cache entry
        the next device will restore from."""
        first = make_device()
        precondition_fragmented(first)
        for lpn in range(64):
            first.ftl.write_page(lpn)
        second = make_device()
        precondition_fragmented(second)
        assert second.ftl.page_map != first.ftl.page_map or first.ftl.stats != second.ftl.stats
        second.ftl.check_invariants()

    def test_warm_restore_matches_cold_conditioning(self):
        cold = make_device()
        precondition_fragmented(cold)
        warm = make_device()
        precondition_fragmented(warm)
        assert warm.ftl.snapshot() == cold.ftl.snapshot()

    def test_settle_resets_measurement_not_layout(self):
        device = make_device()
        precondition_fragmented(device)
        ftl = device.ftl
        assert ftl.stats.host_programs == 0  # conditioning traffic scrubbed
        assert ftl.stats.erases == 0
        assert ftl.mapped_pages > 0          # ...but the layout survived
        assert sum(ftl._erase_counts) > 0


class TestFootprint:
    def test_page_maps_are_flat_and_small(self):
        """The two page maps are 4-byte machine ints, not boxed-int lists:
        four clean devices (one build, three restores) and a fragmented
        one, default geometry, stay under 5 MiB (boxed ints took 15)."""
        profile = profile_by_name("dct983")
        tracemalloc.start()
        try:
            devices = []
            for condition in [precondition_clean] * 4 + [precondition_fragmented]:
                devices.append(SsdDevice(Simulator(), profile=profile))
                condition(devices[-1])
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for device in devices:
            for pages in (device.ftl.page_map, device.ftl._rmap):
                assert isinstance(pages, array) and pages.itemsize == 4
        assert traced < 5 * 2**20
