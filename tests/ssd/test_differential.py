"""Differential tests: fidelity layers must be strictly additive.

The reference device (idealized page-mapped FTL, no wear dynamics) is
the behaviour every paper figure was validated against.  The DFTL
mapping cache and the wear machinery are *fidelity layers* on top of
it; their contract is that with the layer neutralized -- an infinite
cache, no endurance limit, no static wear-levelling trigger -- the
device is byte-identical to the reference: same completion times,
same counters, same final mapping, same erase counts.

Any regression in that contract silently shifts every figure, so the
comparison here is ``==``, not a tolerance.
"""

from __future__ import annotations

import pytest

from tests.ssd.diffkit import DIFF_GEOMETRY, generate_workload, replay

#: A cache big enough to hold every translation page of any geometry
#: used in these tests -- "infinite" in DFTL terms.
INFINITE_CACHE = 1 << 20

SEEDS = (0, 7, 1234)


def _assert_identical(reference, candidate):
    differences = reference.diff(candidate)
    assert not differences, "\n".join(differences)


class TestDftlInfiniteCacheIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fragmented_device(self, seed):
        schedule = generate_workload(seed=seed)
        reference = replay(schedule)
        candidate = replay(schedule, profile_overrides={"map_cache_pages": INFINITE_CACHE})
        _assert_identical(reference, candidate)

    def test_clean_device(self):
        schedule = generate_workload(seed=3, ops=250)
        reference = replay(schedule, condition="clean")
        candidate = replay(
            schedule,
            condition="clean",
            profile_overrides={"map_cache_pages": INFINITE_CACHE},
        )
        _assert_identical(reference, candidate)

    def test_write_heavy_gc_pressure(self):
        """GC-dominated run: relocations drive map accesses on the
        DFTL side; with the cache infinite they must all hit."""
        schedule = generate_workload(seed=11, ops=600, read_fraction=0.1, trim_fraction=0.1)
        reference = replay(schedule)
        candidate = replay(schedule, profile_overrides={"map_cache_pages": INFINITE_CACHE})
        _assert_identical(reference, candidate)

    def test_infinite_cache_records_hits_without_traffic(self):
        from repro.sim.engine import Simulator
        from repro.ssd.commands import DeviceCommand, IoOp
        from repro.ssd.device import SsdDevice
        from repro.ssd.profiles import profile_by_name

        sim = Simulator()
        profile = profile_by_name("dct983").with_overrides(map_cache_pages=INFINITE_CACHE)
        device = SsdDevice(sim, profile=profile, geometry=DIFF_GEOMETRY)
        device.submit(DeviceCommand(IoOp.WRITE, 0, 1), lambda cmd: None)
        device.submit(DeviceCommand(IoOp.READ, 0, 1), lambda cmd: None)
        sim.run()
        cache = device.ftl.map_cache
        assert cache.hits > 0
        assert cache.misses == 0
        assert cache.writebacks == 0
        assert device.ftl.take_map_traffic() == (0, 0)


class TestWearMachineryOffIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_wear_disabled_matches_reference(self, seed):
        """A WearConfig with both knobs off is wiring, not behaviour."""
        schedule = generate_workload(seed=seed)
        reference = replay(schedule)
        candidate = replay(
            schedule,
            profile_overrides={
                "endurance_cycles": 1_000_000_000,
                "static_wear_threshold": 1_000_000_000,
            },
        )
        _assert_identical(reference, candidate)

    def test_all_fidelity_layers_neutralized(self):
        """Cache infinite + wear limits unreachable == reference."""
        schedule = generate_workload(seed=5, ops=500)
        reference = replay(schedule)
        candidate = replay(
            schedule,
            profile_overrides={
                "map_cache_pages": INFINITE_CACHE,
                "endurance_cycles": 1_000_000_000,
                "static_wear_threshold": 1_000_000_000,
            },
        )
        _assert_identical(reference, candidate)


class TestFidelityLayersChangeBehaviour:
    """Sanity inversions: a *small* cache must diverge (else the
    differential tests above prove nothing)."""

    def test_tiny_cache_diverges_and_slows(self):
        schedule = generate_workload(seed=2, ops=400)
        reference = replay(schedule)
        candidate = replay(schedule, profile_overrides={"map_cache_pages": 1})
        assert candidate.diff(reference), "1-page cache produced zero divergence"
        # Misses serialize translation reads ahead of data reads: the
        # run as a whole must not finish earlier than the reference.
        assert candidate.final_time_us >= reference.final_time_us

    def test_tight_endurance_retires_blocks(self):
        from repro.ssd.geometry import SsdGeometry

        # DIFF_GEOMETRY has no spare blocks above the viability floor;
        # retirement needs real headroom to be observable.
        geometry = SsdGeometry(
            num_channels=4, blocks_per_channel=16, pages_per_block=64, overprovision=0.4
        )
        schedule = generate_workload(geometry, seed=2, ops=600, read_fraction=0.1)
        candidate = replay(
            schedule,
            geometry=geometry,
            profile_overrides={"endurance_cycles": 3, "static_wear_threshold": 1_000_000},
        )
        assert candidate.wear.retired_blocks > 0
