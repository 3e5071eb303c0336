"""Tests for the hierarchical blob allocator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.allocator import BlobAddress, GlobalBlobAllocator, LocalBlobAllocator
from repro.workloads.patterns import AddressRegion


def make_global(backends=2, megas_per_backend=4, mega_pages=256, load_of=None):
    allocator = GlobalBlobAllocator(mega_pages=mega_pages, load_of=load_of)
    for index in range(backends):
        allocator.register_backend(
            f"b{index}", AddressRegion(0, megas_per_backend * mega_pages)
        )
    return allocator


def free_micros(local):
    """Micro blobs waiting in ``local``'s free pools for ``allocate_micro``."""
    return sum(len(pool) for pool in local._free.values())


class TestBlobAddress:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            BlobAddress("b", -1, 10)
        with pytest.raises(ValueError):
            BlobAddress("b", 0, 0)


class TestGlobalAllocator:
    def test_allocates_mega_sized_blobs(self):
        allocator = make_global()
        mega = allocator.allocate_mega()
        assert mega.npages == 256
        assert mega.backend in ("b0", "b1")

    def test_allocations_are_disjoint(self):
        allocator = make_global()
        seen = set()
        for _ in range(8):
            mega = allocator.allocate_mega()
            key = (mega.backend, mega.lba)
            assert key not in seen
            seen.add(key)

    def test_exhaustion_raises(self):
        allocator = make_global(backends=1, megas_per_backend=2)
        allocator.allocate_mega()
        allocator.allocate_mega()
        with pytest.raises(RuntimeError):
            allocator.allocate_mega()

    def test_free_allows_reuse(self):
        allocator = make_global(backends=1, megas_per_backend=1)
        mega = allocator.allocate_mega()
        allocator.free_mega(mega)
        again = allocator.allocate_mega()
        assert again.lba == mega.lba

    def test_double_free_rejected(self):
        allocator = make_global(backends=1)
        mega = allocator.allocate_mega()
        allocator.free_mega(mega)
        with pytest.raises(ValueError):
            allocator.free_mega(mega)

    def test_load_aware_choice(self):
        loads = {"b0": 10.0, "b1": 1.0}
        allocator = make_global(load_of=lambda name: loads[name])
        assert allocator.allocate_mega().backend == "b1"

    def test_exclude_set_respected(self):
        allocator = make_global()
        mega = allocator.allocate_mega(exclude={"b0"})
        assert mega.backend == "b1"

    def test_duplicate_backend_rejected(self):
        allocator = make_global()
        with pytest.raises(ValueError):
            allocator.register_backend("b0", AddressRegion(0, 256))

    def test_region_smaller_than_mega_rejected(self):
        allocator = GlobalBlobAllocator(mega_pages=256)
        with pytest.raises(ValueError):
            allocator.register_backend("tiny", AddressRegion(0, 100))


class TestLocalAllocator:
    def test_micro_blobs_carved_from_mega(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micro = local.allocate_micro()
        assert micro.npages == 64
        # One mega consumed, rest in the free pool.
        assert free_micros(local) == 256 // 64 - 1

    def test_micro_size_must_divide_mega(self):
        global_allocator = make_global()
        with pytest.raises(ValueError):
            LocalBlobAllocator(global_allocator, micro_pages=100)

    def test_refill_on_exhaustion(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micros = [local.allocate_micro() for _ in range(10)]
        assert len(micros) == 10
        assert len({(m.backend, m.lba) for m in micros}) == 10

    def test_exclude_backend_for_replicas(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        primary = local.allocate_micro()
        shadow = local.allocate_micro(exclude_backends={primary.backend})
        assert shadow.backend != primary.backend

    def test_free_returns_to_pool(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        first = local.allocate_micro()
        second = local.allocate_micro()
        before = free_micros(local)
        local.free_micro(first)
        # One micro still live in the mega: the free stays local.
        assert free_micros(local) == before + 1
        assert second.backend == first.backend

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    def test_allocate_free_interleaving_never_double_allocates(self, ops):
        """Property: live micro blobs are always mutually disjoint."""
        global_allocator = make_global(backends=2, megas_per_backend=3, mega_pages=256)
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        live = []
        for is_alloc in ops:
            if is_alloc:
                try:
                    micro = local.allocate_micro()
                except RuntimeError:
                    continue
                live.append(micro)
            elif live:
                local.free_micro(live.pop())
            spans = sorted(
                (m.backend, m.lba, m.lba + m.npages) for m in live
            )
            for (b1, s1, e1), (b2, s2, e2) in zip(spans, spans[1:]):
                if b1 == b2:
                    assert e1 <= s2, "overlapping live blobs"


class TestReclamation:
    """Churn-path regression tests: megas must flow back to the rack."""

    def test_wholly_free_mega_returns_to_global(self):
        global_allocator = make_global(backends=2, megas_per_backend=4)
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micros = [local.allocate_micro() for _ in range(4)]  # drains one mega
        assert global_allocator.total_available_megas == 2 * 4 - 1
        for micro in micros:
            local.free_micro(micro)
        # The mega coalesced and left the local pool entirely.
        assert global_allocator.total_available_megas == 2 * 4
        assert free_micros(local) == 0
        assert local.held_megas == 0
        assert local.megas_released == 1

    def test_partial_free_keeps_mega_held(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micros = [local.allocate_micro() for _ in range(4)]
        for micro in micros[:-1]:
            local.free_micro(micro)
        assert local.held_megas == 1
        assert free_micros(local) == 3
        assert global_allocator.megas_freed == 0

    def test_double_free_of_micro_rejected(self):
        global_allocator = make_global()
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        first = local.allocate_micro()
        second = local.allocate_micro()  # keeps the mega held
        local.free_micro(first)
        with pytest.raises(ValueError):
            local.free_micro(first)
        local.free_micro(second)

    def test_release_all_on_departure(self):
        global_allocator = make_global(backends=2, megas_per_backend=4)
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micros = [local.allocate_micro() for _ in range(6)]  # spans two megas
        for micro in micros[:-1]:
            local.free_micro(micro)
        with pytest.raises(RuntimeError):
            local.release_all()  # one micro still live
        local.free_micro(micros[-1])
        local.release_all()
        assert local.held_megas == 0
        assert global_allocator.total_available_megas == global_allocator.total_megas

    def test_released_mega_reusable_by_other_instance(self):
        global_allocator = make_global(backends=1, megas_per_backend=1)
        first = LocalBlobAllocator(global_allocator, micro_pages=64)
        micro = first.allocate_micro()
        first.free_micro(micro)  # coalesces: the only mega goes back
        second = LocalBlobAllocator(global_allocator, micro_pages=64)
        again = second.allocate_micro()  # would raise before reclamation
        assert again.backend == micro.backend

    def test_reallocation_after_coalesce_tracks_new_mega(self):
        global_allocator = make_global(backends=1, megas_per_backend=2)
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        micros = [local.allocate_micro() for _ in range(4)]
        for micro in micros:
            local.free_micro(micro)
        assert local.held_megas == 0
        fresh = local.allocate_micro()
        local.free_micro(fresh)
        assert local.held_megas == 0
        assert global_allocator.total_available_megas == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=200))
    def test_churn_conserves_the_global_pool(self, ops):
        """Property: megas are conserved -- every mega is either free in
        the global pool or held by the local allocator, and releasing
        everything restores the pre-churn availability exactly."""
        global_allocator = make_global(backends=2, megas_per_backend=3, mega_pages=256)
        total = global_allocator.total_megas
        local = LocalBlobAllocator(global_allocator, micro_pages=64)
        live = []
        for op in ops:
            if op == 0:
                try:
                    live.append(local.allocate_micro())
                except RuntimeError:
                    continue
            elif op == 1 and live:
                local.free_micro(live.pop(0))
            elif op == 2 and live:
                local.free_micro(live.pop())
            assert global_allocator.total_available_megas + local.held_megas == total
            assert local.live_micros == len(live)
        for micro in live:
            local.free_micro(micro)
        local.release_all()
        assert global_allocator.total_available_megas == total
        assert global_allocator.megas_allocated == global_allocator.megas_freed


class TestAlignmentValidation:
    def test_misaligned_mega_free_rejected(self):
        allocator = make_global(backends=1, megas_per_backend=2, mega_pages=256)
        mega = allocator.allocate_mega()
        with pytest.raises(ValueError, match="misaligned"):
            allocator.free_mega(BlobAddress(mega.backend, mega.lba + 64, mega.npages))
        # The aligned free still works afterwards: the bitmap is intact.
        allocator.free_mega(mega)

    def test_misaligned_free_does_not_corrupt_neighbor_slot(self):
        allocator = make_global(backends=1, megas_per_backend=2, mega_pages=256)
        first = allocator.allocate_mega()
        second = allocator.allocate_mega()
        with pytest.raises(ValueError):
            allocator.free_mega(BlobAddress(first.backend, second.lba + 1, 256))
        # Neither slot was freed by the bad call.
        assert allocator.total_available_megas == 0
        allocator.free_mega(first)
        allocator.free_mega(second)
