"""Hierarchical blob allocator (paper Section 4.3).

Two levels:

* the **global allocator** owns each backend's storage region, divides
  it into *mega blobs* (large contiguous chunks; 4 GB in the paper,
  scaled down here with the device), and tracks availability with a
  bitmap;
* each DB instance runs a **local allocator** that carves mega blobs
  into *micro blobs* (256 KiB) and maintains a free list, only calling
  into the global allocator when its local pool runs dry.

Both levels are load-aware: given a choice of backends, they pick the
one whose SSD currently advertises the most credit (the least load).

Reclamation closes the loop rack-wide: the local allocator tracks
which mega every micro blob was carved from, and the moment a mega's
micros are all free again it is *coalesced* -- pulled out of the local
free pool and handed back to the global allocator -- so file churn
(LSM compaction deletes, tenant departure) returns capacity to the
rack instead of pinning every instance at its high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.workloads.patterns import AddressRegion


@dataclass(frozen=True)
class BlobAddress:
    """<NVMe transport identifier, start LBA, LBA count> of one blob."""

    backend: str
    lba: int
    npages: int

    def __post_init__(self) -> None:
        if self.lba < 0 or self.npages <= 0:
            raise ValueError("invalid blob address")


class _BackendPool:
    """Bitmap of mega-blob slots within one backend's region."""

    def __init__(self, region: AddressRegion, mega_pages: int):
        self.region = region
        self.mega_pages = mega_pages
        self.slots = region.npages // mega_pages
        if self.slots == 0:
            raise ValueError("region smaller than one mega blob")
        self.free = [True] * self.slots

    def allocate(self) -> Optional[int]:
        for index, available in enumerate(self.free):
            if available:
                self.free[index] = False
                return self.region.start + index * self.mega_pages
        return None

    def release(self, lba: int) -> None:
        index, misalignment = divmod(lba - self.region.start, self.mega_pages)
        if misalignment:
            # A misaligned free would flip a *neighboring* slot's bit
            # (integer division rounds toward the slot below), silently
            # corrupting the bitmap; reject it at the boundary instead.
            raise ValueError(
                f"misaligned mega blob free at lba {lba}: "
                f"{misalignment} pages past a {self.mega_pages}-page slot boundary"
            )
        if not 0 <= index < self.slots or self.free[index]:
            raise ValueError(f"bad mega blob free at lba {lba}")
        self.free[index] = True

    @property
    def available(self) -> int:
        return sum(self.free)


class GlobalBlobAllocator:
    """Rack-scale mega-blob allocation across a pool of backends."""

    def __init__(self, mega_pages: int = 2048, load_of: Optional[Callable[[str], float]] = None):
        """``load_of(backend)`` returns a load score (lower = less
        loaded); defaults to round-robin-ish zero load."""
        if mega_pages <= 0:
            raise ValueError("mega blob size must be positive")
        self.mega_pages = mega_pages
        self.load_of = load_of or (lambda backend: 0.0)
        self._pools: Dict[str, _BackendPool] = {}
        #: Lifetime counters (reclamation observability).
        self.megas_allocated = 0
        self.megas_freed = 0

    def register_backend(self, name: str, region: AddressRegion) -> None:
        if name in self._pools:
            raise ValueError(f"backend {name!r} already registered")
        self._pools[name] = _BackendPool(region, self.mega_pages)

    @property
    def backends(self) -> List[str]:
        return list(self._pools)

    def allocate_mega(self, exclude: Optional[set] = None) -> BlobAddress:
        """Allocate one mega blob from the least-loaded backend."""
        candidates = [
            name
            for name, pool in self._pools.items()
            if pool.available > 0 and (exclude is None or name not in exclude)
        ]
        if not candidates:
            raise RuntimeError("global blob pool exhausted")
        best = min(candidates, key=self.load_of)
        lba = self._pools[best].allocate()
        assert lba is not None
        self.megas_allocated += 1
        return BlobAddress(best, lba, self.mega_pages)

    def free_mega(self, address: BlobAddress) -> None:
        self._pools[address.backend].release(address.lba)
        self.megas_freed += 1

    @property
    def total_available_megas(self) -> int:
        """Rack-wide mega blobs still unallocated (occupancy gauge)."""
        return sum(pool.available for pool in self._pools.values())

    @property
    def total_megas(self) -> int:
        return sum(pool.slots for pool in self._pools.values())


class LocalBlobAllocator:
    """Per-DB micro-blob allocation over locally held mega blobs."""

    def __init__(self, global_allocator: GlobalBlobAllocator, micro_pages: int = 64):
        if micro_pages <= 0:
            raise ValueError("micro blob size must be positive")
        if global_allocator.mega_pages % micro_pages != 0:
            raise ValueError("mega blob size must be a multiple of the micro blob size")
        self.global_allocator = global_allocator
        self.micro_pages = micro_pages
        self.micros_per_mega = global_allocator.mega_pages // micro_pages
        #: Free micro blobs, grouped per backend for placement control.
        self._free: Dict[str, List[BlobAddress]] = {}
        #: (backend, mega lba) -> the held mega's address.
        self._held: Dict[Tuple[str, int], BlobAddress] = {}
        #: (backend, mega lba) -> lbas of that mega's *free* micros.
        self._free_in_mega: Dict[Tuple[str, int], Set[int]] = {}
        #: (backend, micro lba) -> owning mega key, for every micro
        #: (free or live) carved from a currently held mega.
        self._mega_of: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: Lifetime counters (reclamation observability).
        self.megas_acquired = 0
        self.megas_released = 0

    def _refill(self, exclude: Optional[set] = None) -> None:
        mega = self.global_allocator.allocate_mega(exclude)
        key = (mega.backend, mega.lba)
        self._held[key] = mega
        self.megas_acquired += 1
        free_lbas = self._free_in_mega[key] = set()
        pieces = self._free.setdefault(mega.backend, [])
        for offset in range(0, mega.npages, self.micro_pages):
            lba = mega.lba + offset
            pieces.append(BlobAddress(mega.backend, lba, self.micro_pages))
            free_lbas.add(lba)
            self._mega_of[(mega.backend, lba)] = key

    def allocate_micro(self, exclude_backends: Optional[set] = None) -> BlobAddress:
        """One micro blob, optionally avoiding some backends (replica
        placement needs two *different* backends)."""
        exclude = exclude_backends or set()
        candidates = [name for name, pool in self._free.items() if pool and name not in exclude]
        if not candidates:
            self._refill(exclude)
            candidates = [
                name for name, pool in self._free.items() if pool and name not in exclude
            ]
        best = min(candidates, key=self.global_allocator.load_of)
        micro = self._free[best].pop()
        self._free_in_mega[self._mega_of[(micro.backend, micro.lba)]].discard(micro.lba)
        return micro

    def free_micro(self, address: BlobAddress) -> None:
        key = self._mega_of.get((address.backend, address.lba))
        if key is None:
            raise ValueError(
                f"{address} is not a live micro blob of this allocator "
                "(double free, or its mega was already reclaimed)"
            )
        free_lbas = self._free_in_mega[key]
        if address.lba in free_lbas:
            raise ValueError(f"double free of micro blob {address}")
        free_lbas.add(address.lba)
        if len(free_lbas) == self.micros_per_mega:
            self._release_mega(key)
        else:
            self._free.setdefault(address.backend, []).append(address)

    def _release_mega(self, key: Tuple[str, int]) -> None:
        """Coalesce a wholly-free mega and hand it back to the rack."""
        backend, _ = key
        free_lbas = self._free_in_mega.pop(key)
        mega = self._held.pop(key)
        pool = self._free.get(backend)
        if pool:
            self._free[backend] = [
                micro for micro in pool if self._mega_of.get((backend, micro.lba)) != key
            ]
        for lba in free_lbas:
            del self._mega_of[(backend, lba)]
        self.global_allocator.free_mega(mega)
        self.megas_released += 1

    def release_all(self) -> int:
        """Return every held mega to the global allocator.

        Called when a DB instance departs.  All of its micro blobs must
        have been freed first (file deletion does that); a live micro
        means a leak in the caller, so it raises rather than silently
        recycling storage that is still referenced.
        """
        live = self.live_micros
        if live:
            raise RuntimeError(
                f"cannot release mega blobs: {live} micro blobs still live"
            )
        released = 0
        for key in sorted(self._held):
            self._release_mega(key)
            released += 1
        return released

    @property
    def held_megas(self) -> int:
        return len(self._held)

    @property
    def live_micros(self) -> int:
        """Micro blobs handed out and not yet freed."""
        return self.held_megas * self.micros_per_mega - sum(
            len(lbas) for lbas in self._free_in_mega.values()
        )
