"""Conditioning-cache keying: distinct targets must never share state.

The conditioning snapshot cache turns "multiple hours" of
preconditioning into a dict lookup, which makes its *key* a
correctness surface: if two different conditioning targets collide,
one experiment silently runs on another experiment's device.  These
tests pin the key down across every axis -- condition, geometry and
the GC watermarks.
"""

from __future__ import annotations

import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.sim.engine import Simulator
from repro.ssd.conditioning import _snapshot_cache, clear_conditioning_cache, condition_device
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry
from repro.ssd.profiles import profile_by_name
from tests.ssd.invariants import check_invariants

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
        condition_device(make_device(), "clean")
        condition_device(make_device(), "fragmented")
        assert len(_snapshot_cache) == 2

    def test_geometry_is_part_of_the_key(self):
        other = SsdGeometry(
            num_channels=2, blocks_per_channel=16, pages_per_block=32, overprovision=0.4
        )
        condition_device(make_device(), "fragmented")
        condition_device(make_device(geometry=other), "fragmented")
        assert len(_snapshot_cache) == 2

    def test_gc_watermarks_are_part_of_the_key(self):
        """The watermarks decide when GC runs, so a device with others
        must condition afresh rather than restore this layout."""
        condition_device(make_device(), "clean")
        restored = make_device(gc_low_water_blocks=0)
        condition_device(restored, "clean")
        assert len(_snapshot_cache) == 2
        clear_conditioning_cache()
        fresh = make_device(gc_low_water_blocks=0)
        condition_device(fresh, "clean")
        assert restored.ftl.snapshot() == fresh.ftl.snapshot()

    def test_two_devices_same_params_share_one_entry(self):
        first = make_device()
        condition_device(first, "fragmented")
        second = make_device()
        condition_device(second, "fragmented")
        assert len(_snapshot_cache) == 1
        assert second.ftl.page_map == first.ftl.page_map
        assert second.ftl._erase_counts == first.ftl._erase_counts


class TestRestoredStateIsIsolated:
    def test_restore_does_not_alias_cached_snapshot(self):
        """Mutating a restored device must not corrupt the cache entry
        the next device will restore from."""
        first = make_device()
        condition_device(first, "fragmented")
        first.ftl.write_pages(range(64))
        second = make_device()
        condition_device(second, "fragmented")
        assert second.ftl.page_map != first.ftl.page_map or first.ftl.stats != second.ftl.stats
        check_invariants(second.ftl)

    def test_warm_restore_matches_cold_conditioning(self):
        cold = make_device()
        condition_device(cold, "fragmented")
        warm = make_device()
        condition_device(warm, "fragmented")
        assert warm.ftl.snapshot() == cold.ftl.snapshot()

    def test_settle_resets_measurement_not_layout(self):
        device = make_device()
        condition_device(device, "fragmented")
        ftl = device.ftl
        assert ftl.stats.host_programs == 0  # conditioning traffic scrubbed
        assert ftl.stats.erases == 0
        assert max(ftl.page_map) >= 0        # ...but the layout survived
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
            for condition in ["clean"] * 4 + ["fragmented"]:
                devices.append(SsdDevice(Simulator(), profile=profile))
                condition_device(devices[-1], condition)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for device in devices:
            for pages in (device.ftl.page_map, device.ftl._rmap):
                assert isinstance(pages, array) and pages.itemsize == 4
        assert traced < 5 * 2**20
