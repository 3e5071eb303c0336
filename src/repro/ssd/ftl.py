"""Page-mapped flash translation layer with greedy garbage collection.

The FTL is the mechanism behind the paper's "SSD condition" issue
(Section 2.3, Appendix A): the cost of a host write depends on how
fragmented previously written blocks are, because garbage collection
must relocate every still-valid page of a victim block before erasing
it.  Sequentially written data dies together (victims are empty, write
amplification ~1); randomly overwritten data leaves victims mostly
valid (write amplification of 5-8 with ~10% overprovisioning), which
is the paper's clean/fragmented dichotomy.

Blocks are partitioned across channels; host writes stripe round-robin
across one open block per channel, and GC relocates within a channel.
The FTL is purely logical -- it returns the *work* GC performed
(:class:`GcWork`) and the device model converts that into channel busy
time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.ssd.geometry import SsdGeometry


@dataclass
class GcWork:
    """NAND operations performed by garbage collection during one allocation."""

    relocation_reads: int = 0
    relocation_programs: int = 0
    erases: int = 0

    @property
    def empty(self) -> bool:
        return not (self.relocation_reads or self.relocation_programs or self.erases)


class _NoGcWork(GcWork):
    """What a write that took no new block returns: shared, so read-only."""

    empty = True

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("the shared empty GcWork is read-only")


_NO_GC_WORK = object.__new__(_NoGcWork)  # not __init__, which assigns: fields read the defaults


@dataclass
class FtlStats:
    """Lifetime program/erase accounting; write amplification derives from it."""

    host_programs: int = 0
    gc_programs: int = 0
    erases: int = 0
    #: Always zero: nothing issues wear-levelling programs.  Kept because
    #: ``benchmarks/ledger/workloads.py:99`` reads it.
    wl_programs: int = 0

    @property
    def write_amplification(self) -> float:
        """(host + GC programs) / host programs."""
        if self.host_programs == 0:
            return 1.0
        return (self.host_programs + self.gc_programs) / self.host_programs


class FtlError(RuntimeError):
    """Raised when the FTL cannot make progress (device genuinely full)."""


_UNMAPPED = -1
#: Streams a channel can be appending to: host writes vs GC relocation.
_HOST_STREAM = 0
_GC_STREAM = 1

#: ``array('i', range(n))`` for the largest ``n`` asked so far.  Shared
#: and read-only: callers slice it, never store into it.
_IDENTITY = array("i")


def _identity(n: int) -> array:
    """An identity array of at least ``n`` entries (``_IDENTITY[i] == i``).

    Slicing it gives the runs of page numbers ``write_run`` stores as
    C-level copies, without creating an int object per page.
    """
    global _IDENTITY
    if len(_IDENTITY) < n:
        _IDENTITY = array("i", range(n))
    return _IDENTITY


class Ftl:
    """Page-mapped FTL over the geometry's block/channel layout.

    ``gc_low_water``/``gc_high_water`` are the free-block pool
    thresholds per channel: collection starts when the pool drops to
    the low mark and refills it to the high mark.  The geometry must
    overprovision at least ``gc_high_water + 2`` blocks per channel
    (the pool target plus the host and GC open blocks), otherwise
    steady-state operation would deadlock; the constructor enforces
    this.
    """

    def __init__(
        self,
        geometry: SsdGeometry,
        gc_low_water: int = 1,
        gc_high_water: int = 2,
    ):
        if gc_low_water < 0 or gc_high_water < gc_low_water:
            raise ValueError("invalid GC watermarks")
        slack_blocks = geometry.overprovision * geometry.blocks_per_channel
        needed = gc_high_water + 2
        if slack_blocks < needed:
            raise ValueError(
                f"geometry overprovisions {slack_blocks:.2f} blocks/channel but the "
                f"GC watermarks need at least {needed}; increase overprovision or "
                f"blocks_per_channel, or lower the watermarks"
            )
        self.gc_low_water = gc_low_water
        self.gc_high_water = gc_high_water
        self.geometry = geometry
        g = geometry
        self._pages_per_block = g.pages_per_block
        self._num_channels = g.num_channels
        # One 4-byte machine int per page (-1: unmapped) rather than a
        # boxed int; per-block state below stays in lists.
        self.page_map = array("i", [_UNMAPPED]) * g.exported_pages
        self._rmap = array("i", [_UNMAPPED]) * g.total_pages
        #: ``pages_per_block`` unmapped entries: what a GC victim's reverse map becomes.
        self._blank_block = array("i", [_UNMAPPED]) * g.pages_per_block
        self._valid_count: List[int] = [0] * g.total_blocks
        # Per-channel block pools.  Free lists are stacks; closed lists
        # are scanned for the min-valid victim (tens of entries).
        self._free: List[List[int]] = [[] for _ in range(g.num_channels)]
        self._closed: List[List[int]] = [[] for _ in range(g.num_channels)]
        # (block_id, next_offset) per channel per stream, or None.
        self._open: List[List[Optional[Tuple[int, int]]]] = [
            [None, None] for _ in range(g.num_channels)
        ]
        for block_id in range(g.total_blocks):
            self._free[g.channel_of_block(block_id)].append(block_id)
        self._next_host_channel = 0
        #: Program/erase cycles per block, for wear levelling.
        self._erase_counts: List[int] = [0] * g.total_blocks
        self.stats = FtlStats()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> int:
        """Physical page of ``lpn``, or -1 if never written."""
        return self.page_map[lpn]

    def channel_of_lpn(self, lpn: int) -> int:
        """Channel holding ``lpn``; unmapped pages hash to a stable channel."""
        ppn = self.page_map[lpn]
        if ppn == _UNMAPPED:
            return lpn % self.geometry.num_channels
        return self.geometry.channel_of_page(ppn)

    def free_blocks_on_channel(self, channel: int) -> int:
        return len(self._free[channel])

    @property
    def mapped_pages(self) -> int:
        return len(self.page_map) - self.page_map.count(_UNMAPPED)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_page(self, lpn: int) -> Tuple[int, GcWork]:
        """Map ``lpn`` to a fresh physical page.

        Returns the new PPN and the garbage-collection work (if any)
        that had to run on the destination channel to make room.  The
        caller charges that work to the channel's timeline.
        """
        page_map = self.page_map
        if not 0 <= lpn < len(page_map):
            raise ValueError(f"LPN {lpn} outside exported range")
        pages_per_block = self._pages_per_block
        # The old copy dies before GC can run, or GC would relocate it.
        old_ppn = page_map[lpn]
        if old_ppn != _UNMAPPED:
            page_map[lpn] = _UNMAPPED
            self._rmap[old_ppn] = _UNMAPPED
            self._valid_count[old_ppn // pages_per_block] -= 1
        channel = self._next_host_channel
        self._next_host_channel = (channel + 1) % self._num_channels
        slots = self._open[channel]
        slot = slots[_HOST_STREAM]
        work = _NO_GC_WORK
        if slot is None:
            work = GcWork()
            slot = (self._take_free_block(channel, work, allow_gc=True), 0)
        block_id, offset = slot
        ppn = block_id * pages_per_block + offset
        offset += 1
        if offset == pages_per_block:
            self._closed[channel].append(block_id)
            slots[_HOST_STREAM] = None
        else:
            slots[_HOST_STREAM] = (block_id, offset)
        page_map[lpn] = ppn
        self._rmap[ppn] = lpn
        self._valid_count[block_id] += 1
        self.stats.host_programs += 1
        return ppn, work

    def write_run(self, first_lpn: int, count: int) -> None:
        """Write the ``count`` LPNs from ``first_lpn`` on, in order.

        Leaves exactly the state that ``write_page`` called once per LPN
        leaves, but works once per open-block segment rather than once
        per page.  Pages take channels round-robin, so the next page
        that finds its channel's host slot empty -- a block-open event,
        the only place GC can run -- is known in advance.  At an event
        the head page's old copy dies before ``_take_free_block`` runs,
        as in ``write_page``.  Up to the next event no GC runs and no
        LPN repeats, so the
        segment's old copies die in one loop (read from ``page_map``
        only now: GC may have moved them) and each channel's share lands
        with one extended-slice store per map, copied from slices of the
        shared identity array.  Preconditioning uses
        this; ``SsdDevice`` keeps ``write_page``, whose per-page PPN and
        ``GcWork`` it charges to channel time.
        """
        page_map = self.page_map
        stop_lpn = first_lpn + count
        if count < 0 or first_lpn < 0 or stop_lpn > len(page_map):
            raise ValueError(f"run of {count} pages from LPN {first_lpn} outside exported range")
        rmap = self._rmap
        ident = _identity(len(rmap))
        valid_count = self._valid_count
        pages_per_block = self._pages_per_block
        num_channels = self._num_channels
        open_slots = self._open
        lpn = first_lpn
        while lpn < stop_lpn:
            head = self._next_host_channel
            start = lpn
            if open_slots[head][_HOST_STREAM] is None:
                old_ppn = page_map[lpn]
                if old_ppn != _UNMAPPED:
                    page_map[lpn] = _UNMAPPED
                    rmap[old_ppn] = _UNMAPPED
                    valid_count[old_ppn // pages_per_block] -= 1
                # Advanced first, as in write_page, should the channel be exhausted.
                self._next_host_channel = (head + 1) % num_channels
                block_id = self._take_free_block(head, GcWork(), allow_gc=True)
                open_slots[head][_HOST_STREAM] = (block_id, 0)
                start += 1
            # The segment ends at the next page that finds its slot empty.
            stop = stop_lpn
            for step in range(num_channels):
                slot = open_slots[(head + step) % num_channels][_HOST_STREAM]
                event = lpn + step
                if slot is not None:
                    event += (pages_per_block - slot[1]) * num_channels
                if event < stop:
                    stop = event
            old_ppns = page_map[start:stop]
            if old_ppns.count(_UNMAPPED) != len(old_ppns):
                for old_ppn in old_ppns:
                    if old_ppn != _UNMAPPED:
                        rmap[old_ppn] = _UNMAPPED
                        valid_count[old_ppn // pages_per_block] -= 1
            for step in range(min(num_channels, stop - lpn)):
                channel = (head + step) % num_channels
                slots = open_slots[channel]
                block_id, offset = slots[_HOST_STREAM]
                lpns = ident[lpn + step : stop : num_channels]
                ppn = block_id * pages_per_block + offset
                taken = len(lpns)
                page_map[lpn + step : stop : num_channels] = ident[ppn : ppn + taken]
                rmap[ppn : ppn + taken] = lpns
                valid_count[block_id] += taken
                offset += taken
                if offset == pages_per_block:
                    self._closed[channel].append(block_id)
                    slots[_HOST_STREAM] = None
                else:
                    slots[_HOST_STREAM] = (block_id, offset)
            self.stats.host_programs += stop - lpn
            self._next_host_channel = (head + stop - lpn) % num_channels
            lpn = stop

    def trim_page(self, lpn: int) -> None:
        """Discard the mapping for ``lpn`` (dataset delete / blob free)."""
        if not 0 <= lpn < len(self.page_map):
            raise ValueError(f"LPN {lpn} outside exported range")
        old_ppn = self.page_map[lpn]
        if old_ppn != _UNMAPPED:
            self.page_map[lpn] = _UNMAPPED
            self._rmap[old_ppn] = _UNMAPPED
            self._valid_count[old_ppn // self._pages_per_block] -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take_free_block(self, channel: int, work: GcWork, allow_gc: bool) -> int:
        free = self._free[channel]
        if allow_gc and len(free) <= self.gc_low_water:
            self._collect(channel, work)
        if not free:
            if allow_gc:
                raise FtlError(f"channel {channel} exhausted: GC made no progress")
            raise FtlError(f"channel {channel} exhausted during GC relocation")
        # Wear levelling: program into the least-worn free block so
        # erase cycles stay balanced across the channel's blocks.
        best_index = 0
        best_erases = self._erase_counts[free[0]]
        for index in range(1, len(free)):
            erases = self._erase_counts[free[index]]
            if erases < best_erases:
                best_index, best_erases = index, erases
        block_id = free[best_index]
        free[best_index] = free[-1]
        free.pop()
        return block_id

    def _pick_victim(self, channel: int) -> Optional[int]:
        closed = self._closed[channel]
        if not closed:
            return None
        best_index = 0
        best_valid = self._valid_count[closed[0]]
        for index in range(1, len(closed)):
            valid = self._valid_count[closed[index]]
            if valid < best_valid:
                best_index, best_valid = index, valid
        if best_valid >= self.geometry.pages_per_block:
            # Every closed block is fully valid: erasing buys nothing.
            return None
        victim = closed[best_index]
        closed[best_index] = closed[-1]
        closed.pop()
        return victim

    def _collect(self, channel: int, work: GcWork) -> None:
        """Greedy GC: relocate min-valid victims until the free pool refills."""
        free = self._free[channel]
        while len(free) < self.gc_high_water:
            victim = self._pick_victim(channel)
            if victim is None:
                break
            self._relocate_block(victim, channel, work)
            free.append(victim)

    def _relocate_block(self, victim: int, channel: int, work: GcWork) -> None:
        """Relocate every valid page off ``victim`` and erase it.

        The live LPNs move, in victim order, one slice per destination
        block.
        """
        pages_per_block = self._pages_per_block
        rmap = self._rmap
        page_map = self.page_map
        base = victim * pages_per_block
        lpns = array("i", [lpn for lpn in rmap[base : base + pages_per_block] if lpn != _UNMAPPED])
        rmap[base : base + pages_per_block] = self._blank_block
        moved = len(lpns)
        self._valid_count[victim] -= moved
        slots = self._open[channel]
        start = 0
        while start < moved:
            slot = slots[_GC_STREAM]
            if slot is None:
                slot = (self._take_free_block(channel, work, allow_gc=False), 0)
            block_id, offset = slot
            chunk = lpns[start : start + pages_per_block - offset]
            count = len(chunk)
            ppn = block_id * pages_per_block + offset
            rmap[ppn : ppn + count] = chunk
            for ppn, lpn in enumerate(chunk, ppn):
                page_map[lpn] = ppn
            self._valid_count[block_id] += count
            offset += count
            if offset == pages_per_block:
                self._closed[channel].append(block_id)
                slots[_GC_STREAM] = None
            else:
                slots[_GC_STREAM] = (block_id, offset)
            start += count
        work.relocation_reads += moved
        work.relocation_programs += moved
        self.stats.gc_programs += moved
        assert self._valid_count[victim] == 0, "victim still holds valid pages"
        work.erases += 1
        self.stats.erases += 1
        self._erase_counts[victim] += 1

    # ------------------------------------------------------------------
    # Snapshot / restore (conditioning cache)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the full mapping state (cheap: the two page maps are
        ``array('i')`` memcpys, 4 bytes a page; the rest is per block).

        Used by :mod:`repro.ssd.conditioning` so that expensive
        preconditioning runs once per (geometry, condition) and later
        devices start from a restored copy.
        """
        return {
            "page_map": array("i", self.page_map),
            "rmap": array("i", self._rmap),
            "valid_count": self._valid_count.copy(),
            "free": [pool.copy() for pool in self._free],
            "closed": [pool.copy() for pool in self._closed],
            "open": [slots.copy() for slots in self._open],
            "next_host_channel": self._next_host_channel,
            "erase_counts": self._erase_counts.copy(),
            "stats": replace(self.stats),
        }

    def restore(self, snap: dict) -> None:
        """Install a state previously captured by :meth:`snapshot`.

        Byte-exact round trip, stats and erase counts included.
        """
        self.page_map = array("i", snap["page_map"])
        self._rmap = array("i", snap["rmap"])
        self._valid_count = snap["valid_count"].copy()
        self._free = [pool.copy() for pool in snap["free"]]
        self._closed = [pool.copy() for pool in snap["closed"]]
        self._open = [slots.copy() for slots in snap["open"]]
        self._next_host_channel = snap["next_host_channel"]
        self._erase_counts = snap["erase_counts"].copy()
        self.stats = replace(snap["stats"])

    def reset_measurement(self) -> None:
        """Zero measurement counters; the mapping and erase counts stay.

        Conditioning calls this after warming a device so measured
        runs report only their own programs and erases.
        """
        self.stats = FtlStats()

    # ------------------------------------------------------------------
    # Integrity checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify map/reverse-map/valid-count consistency.  O(total pages)."""
        for lpn, ppn in enumerate(self.page_map):
            if ppn != _UNMAPPED and self._rmap[ppn] != lpn:
                raise AssertionError(f"map mismatch: lpn={lpn} ppn={ppn} rmap={self._rmap[ppn]}")
        counted = [0] * self.geometry.total_blocks
        for ppn, lpn in enumerate(self._rmap):
            if lpn != _UNMAPPED:
                if self.page_map[lpn] != ppn:
                    raise AssertionError(f"rmap mismatch: ppn={ppn} lpn={lpn}")
                counted[ppn // self._pages_per_block] += 1
        if counted != self._valid_count:
            raise AssertionError("valid counts inconsistent with reverse map")
        # Pool accounting: every block is in exactly one of the
        # free/closed/open pools.
        seen = [0] * self.geometry.total_blocks
        for pool in self._free:
            for block_id in pool:
                seen[block_id] += 1
        for pool in self._closed:
            for block_id in pool:
                seen[block_id] += 1
        for slots in self._open:
            for slot in slots:
                if slot is not None:
                    seen[slot[0]] += 1
        for block_id, count in enumerate(seen):
            if count != 1:
                raise AssertionError(
                    f"block {block_id} appears {count} times across free/closed/open pools"
                )
        if any(count < 0 for count in self._erase_counts):
            raise AssertionError("negative erase count")
