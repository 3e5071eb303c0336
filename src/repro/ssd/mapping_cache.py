"""DFTL-style cached mapping table (translation-page granularity).

A page-mapped FTL's full logical-to-physical map does not fit in
controller SRAM on real devices: DFTL keeps the map itself on flash in
*translation pages* and caches the hot subset in a small LRU cache
(the wiscsee simulator calls this the cached mapping table).  A lookup
that misses must first *read* one translation page off NAND; if the
cache is full and the evicted victim page holds updated mappings, the
eviction additionally *writes* the dirty translation page back.  Both
are real NAND operations that the device model charges to channel
time -- the translation-cache thrashing signal that aged multi-tenant
devices exhibit.

The cache is purely a *traffic* model: :class:`~repro.ssd.ftl.Ftl`
stays authoritative for the mapping content (its ``page_map`` array,
4-byte physical page numbers like a translation page's, is the
translation table), and the cache only decides whether touching a
mapping costs NAND work.  That separation is what makes the
differential-testing invariant cheap to state: with the whole table
resident the cache can never emit traffic, so device-visible behaviour
is byte-identical to the reference full-map FTL
(``tests/ssd/test_differential.py`` gates exactly that).

Capacity semantics:

* ``capacity_pages=None`` or ``capacity_pages >= total translation
  pages`` -- the table is fully resident (preloaded clean at boot, the
  way a DRAM-backed controller would load it); accesses still run the
  LRU bookkeeping but can never miss.
* smaller values -- a cold LRU cache; conditioning warms it.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Logical map entries packed into one 4 KiB translation page
#: (4-byte physical page numbers).
DEFAULT_ENTRIES_PER_PAGE = 1024

#: Access outcomes (returned by :meth:`MappingCache.access`).
MAP_HIT = 0
#: Miss filled from a free cache slot: one translation-page read.
MAP_MISS = 1
#: Miss that evicted a clean victim: still one read, no writeback.
MAP_MISS_EVICT = 2
#: Miss that evicted a dirty victim: one read plus one writeback
#: program of the victim translation page.
MAP_MISS_WRITEBACK = 3


class MappingCache:
    """LRU cache of translation pages in front of the FTL's map."""

    def __init__(
        self,
        total_entries: int,
        capacity_pages: Optional[int] = None,
        entries_per_page: int = DEFAULT_ENTRIES_PER_PAGE,
    ):
        if total_entries <= 0:
            raise ValueError("total_entries must be positive")
        if entries_per_page <= 0:
            raise ValueError("entries_per_page must be positive")
        if capacity_pages is not None and capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive (or None for resident)")
        self.entries_per_page = entries_per_page
        self.total_pages = -(-total_entries // entries_per_page)  # ceil div
        self.capacity_pages = (
            capacity_pages if capacity_pages is not None else self.total_pages
        )
        #: tpn -> dirty flag; insertion order is LRU order (oldest first).
        self._resident: Dict[int, bool] = {}
        if self.resident_table:
            # Whole table fits: preloaded clean at "boot", like a
            # DRAM-backed map.  Accesses keep the LRU bookkeeping hot
            # but can never generate NAND traffic.
            for tpn in range(self.total_pages):
                self._resident[tpn] = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def resident_table(self) -> bool:
        """True when every translation page fits (no traffic possible)."""
        return self.capacity_pages >= self.total_pages

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 1.0

    def translation_page_of(self, lpn: int) -> int:
        return lpn // self.entries_per_page

    # ------------------------------------------------------------------
    # The one operation
    # ------------------------------------------------------------------
    def access(self, lpn: int, dirty: bool) -> int:
        """Touch the translation entry of ``lpn``; return the outcome.

        ``dirty`` marks the translation page as updated (a mapping
        write); a later eviction of that page costs a writeback.
        Returns one of :data:`MAP_HIT`, :data:`MAP_MISS`,
        :data:`MAP_MISS_EVICT`, :data:`MAP_MISS_WRITEBACK`.
        """
        tpn = lpn // self.entries_per_page
        resident = self._resident
        was_dirty = resident.pop(tpn, None)
        if was_dirty is not None:
            # Hit: re-insert at the MRU end, keeping any earlier dirt.
            resident[tpn] = was_dirty or dirty
            self.hits += 1
            return MAP_HIT
        self.misses += 1
        outcome = MAP_MISS
        if len(resident) >= self.capacity_pages:
            victim_tpn = next(iter(resident))
            victim_dirty = resident.pop(victim_tpn)
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
                outcome = MAP_MISS_WRITEBACK
            else:
                outcome = MAP_MISS_EVICT
        resident[tpn] = dirty
        return outcome

    # ------------------------------------------------------------------
    # Measurement and snapshot plumbing
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the hit/miss counters; residency is preserved."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def snapshot(self) -> dict:
        """Residency (in LRU order) plus counters."""
        return {
            "resident": dict(self._resident),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
        }

    def restore(self, snap: dict) -> None:
        self._resident = dict(snap["resident"])
        self.hits = snap["hits"]
        self.misses = snap["misses"]
        self.evictions = snap["evictions"]
        self.writebacks = snap["writebacks"]

    def check_invariants(self) -> None:
        """Residency within capacity and translation-page range."""
        if len(self._resident) > self.capacity_pages:
            raise AssertionError(
                f"cache holds {len(self._resident)} pages, capacity {self.capacity_pages}"
            )
        for tpn in self._resident:
            if not 0 <= tpn < self.total_pages:
                raise AssertionError(f"resident translation page {tpn} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingCache({self.resident_pages}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate:.3f})"
        )
