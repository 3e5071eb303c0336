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

import sys
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

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
        # Built from its little-endian bytes rather than from
        # ``range(n)``, which would box every int: byte plane ``shift``
        # holds each value of ``(i >> 8 * shift) & 0xff`` for ``run``
        # entries in a row, one extended-slice store per plane.
        raw = bytearray(4 * n)
        for shift in range(4):
            run = 1 << (8 * shift)
            if run >= n:
                break  # this plane and the ones above stay zero
            count = -(-n // run)
            plane = b"".join(bytes((value,)) * run for value in range(min(count, 256)))
            if count > 256:
                plane *= -(-count // 256)
            raw[shift::4] = plane[:n]
        _IDENTITY = array("i", raw)
        if sys.byteorder == "big":
            _IDENTITY.byteswap()
    return _IDENTITY


def _live_lpns(entries: array) -> array:
    """The live entries of a reverse-map slice (the caller's copy), in order.

    One C-level pass drops every aligned all-``0xff`` int32 (-1).  A
    live entry's most significant byte is at most ``0x7f``; in
    little-endian order every unaligned window covers one, so the
    left-to-right scan meets a dead entry's aligned window first.
    """
    swap = sys.byteorder == "big"
    if swap:
        entries.byteswap()
    live = array("i", entries.tobytes().replace(b"\xff\xff\xff\xff", b""))
    if swap:
        live.byteswap()
    return live


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

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_pages(self, lpns: Iterable[int]) -> List[Tuple[int, GcWork]]:
        """Map each LPN of ``lpns`` to a fresh physical page, in order.

        Channels go round-robin; only a page that finds its channel's
        host block full opens another, and only there can GC run.
        Returns the GC work as ``(index in lpns, work)`` pairs, one per
        page whose block-open collected.  An LPN out of range raises
        where it stands, after the pages before it were written.
        """
        page_map = self.page_map
        exported = len(page_map)
        rmap = self._rmap
        valid_count = self._valid_count
        pages_per_block = self._pages_per_block
        num_channels = self._num_channels
        open_slots = self._open
        closed = self._closed
        channel = self._next_host_channel
        gc_work: List[Tuple[int, GcWork]] = []
        written = 0
        try:
            for lpn in lpns:
                if not 0 <= lpn < exported:
                    raise ValueError(f"LPN {lpn} outside exported range")
                # Advanced first, should the channel be exhausted.
                host = channel
                channel = (channel + 1) % num_channels
                slots = open_slots[host]
                slot = slots[_HOST_STREAM]
                if slot is None:
                    work = GcWork()
                    self._open_host_block(lpn, host, work)
                    if not work.empty:
                        gc_work.append((written, work))
                    written += 1
                    continue
                old_ppn = page_map[lpn]
                if old_ppn >= 0:
                    rmap[old_ppn] = _UNMAPPED
                    valid_count[old_ppn // pages_per_block] -= 1
                block_id, offset = slot
                ppn = block_id * pages_per_block + offset
                offset += 1
                if offset == pages_per_block:
                    closed[host].append(block_id)
                    slots[_HOST_STREAM] = None
                else:
                    slots[_HOST_STREAM] = (block_id, offset)
                page_map[lpn] = ppn
                rmap[ppn] = lpn
                valid_count[block_id] += 1
                written += 1
        finally:
            self._next_host_channel = channel
            self.stats.host_programs += written
        return gc_work

    def write_run(self, first_lpn: int, count: int) -> None:
        """Write the ``count`` LPNs from ``first_lpn`` on, in order.

        Leaves exactly the state that ``write_pages(range(first_lpn,
        first_lpn + count))`` leaves, but works once per open-block
        segment rather than once per page.  Pages take channels
        round-robin, so each channel's next block-open event -- the
        next of its pages to find its host slot empty, the only place
        GC can run -- is an LPN known in advance.  The run keeps one
        per channel; the page at an event goes through
        ``_open_host_block``, the block-open step ``write_pages`` uses,
        and moves only its own channel's event one block of pages on
        (GC never touches a host slot).  Between events no GC runs and
        no LPN repeats, so each channel's lane of the segment reads its
        old copies once, hands them to ``_retire`` only when any is
        mapped, and lands with one extended-slice store per map, copied
        from slices of the shared identity array.  Preconditioning's
        sequential passes use this.
        """
        page_map = self.page_map
        stop_lpn = first_lpn + count
        if count < 0 or first_lpn < 0 or stop_lpn > len(page_map):
            raise ValueError(f"run of {count} pages from LPN {first_lpn} outside exported range")
        rmap = self._rmap
        ident = _identity(len(rmap))
        blank = self._blank_block
        valid_count = self._valid_count
        pages_per_block = self._pages_per_block
        num_channels = self._num_channels
        open_slots = self._open
        closed = self._closed
        stats = self.stats
        work = GcWork()  # the block-opens' GC work, which no caller reads
        lpn = first_lpn
        head = self._next_host_channel
        # ``events[channel]``: the LPN of the channel's next block-open.
        events = [0] * num_channels
        stride = pages_per_block * num_channels  # between a channel's block-opens
        for step in range(num_channels):
            channel = (head + step) % num_channels
            slot = open_slots[channel][_HOST_STREAM]
            events[channel] = lpn + step
            if slot is not None:
                events[channel] += stride - slot[1] * num_channels
        while lpn < stop_lpn:
            stop = min(events)
            if stop == lpn:  # only the head channel's event can be here
                self._open_host_block(lpn, head, work)
                stats.host_programs += 1
                events[head] += stride
                head = self._next_host_channel
                lpn += 1
                continue
            if stop > stop_lpn:
                stop = stop_lpn
            for step in range(min(num_channels, stop - lpn)):
                channel = (head + step) % num_channels
                lane = slice(lpn + step, stop, num_channels)
                lpns = ident[lane]
                taken = len(lpns)
                # Read from page_map only now: GC may have moved them.
                old_ppns = page_map[lane]
                if old_ppns != blank[:taken]:  # no lane outgrows a block
                    self._retire(old_ppns, ident)
                slots = open_slots[channel]
                block_id, offset = slots[_HOST_STREAM]
                ppn = block_id * pages_per_block + offset
                page_map[lane] = ident[ppn : ppn + taken]
                rmap[ppn : ppn + taken] = lpns
                valid_count[block_id] += taken
                offset += taken
                if offset == pages_per_block:
                    closed[channel].append(block_id)
                    slots[_HOST_STREAM] = None
                else:
                    slots[_HOST_STREAM] = (block_id, offset)
            stats.host_programs += stop - lpn
            head = (head + stop - lpn) % num_channels
            self._next_host_channel = head
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
    def _retire(self, old_ppns: array, ident: array) -> None:
        """Kill ``old_ppns``, one lane's old copies in a ``write_run`` segment.

        Walked a block-piece at a time: a piece that is one run of PPNs
        (a C-level compare with the identity slice) dies with one
        blank-slice store and one valid-count subtraction, any other
        piece page by page.  A clean device's second pass is all runs.
        ``write_run`` skips the call for a lane that was never mapped.
        """
        count = len(old_ppns)
        blank = self._blank_block
        rmap = self._rmap
        valid_count = self._valid_count
        pages_per_block = self._pages_per_block
        index = 0
        while index < count:
            first = old_ppns[index]
            # An unmapped entry (-1) is a piece of one that is not a run.
            end = min(count, index + pages_per_block - first % pages_per_block)
            piece = old_ppns[index:end]
            taken = end - index
            if piece == ident[first : first + taken]:
                rmap[first : first + taken] = blank[:taken]
                valid_count[first // pages_per_block] -= taken
            else:
                for old_ppn in piece:
                    if old_ppn >= 0:
                        rmap[old_ppn] = _UNMAPPED
                        valid_count[old_ppn // pages_per_block] -= 1
            index = end

    def _open_host_block(self, lpn: int, channel: int, work: GcWork) -> None:
        """Write ``lpn`` as the first page of a new host block on ``channel``.

        The block-open step of ``write_pages`` and ``write_run``, the
        only place a host write can collect; the GC work of the take is
        added to ``work``.  ``lpn``'s old copy dies before GC can run
        (or GC would relocate it), and ``page_map`` leaves it unmapped,
        which is what an exhausted channel leaves; the host cursor moves
        past ``channel`` before the block is taken.  The caller counts
        the host program.
        """
        page_map = self.page_map
        old_ppn = page_map[lpn]
        if old_ppn >= 0:
            page_map[lpn] = _UNMAPPED
            self._rmap[old_ppn] = _UNMAPPED
            self._valid_count[old_ppn // self._pages_per_block] -= 1
        self._next_host_channel = (channel + 1) % self._num_channels
        block_id = self._take_free_block(channel, work, allow_gc=True)
        pages_per_block = self._pages_per_block
        ppn = block_id * pages_per_block
        page_map[lpn] = ppn
        self._rmap[ppn] = lpn
        self._valid_count[block_id] += 1
        if pages_per_block == 1:
            self._closed[channel].append(block_id)
        else:
            self._open[channel][_HOST_STREAM] = (block_id, 1)

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
        # Two C passes; of equally worn blocks the earliest in the pool
        # wins (``index`` finds the first minimum).
        erases = list(map(self._erase_counts.__getitem__, free))
        best_index = erases.index(min(erases))
        block_id = free[best_index]
        free[best_index] = free[-1]
        free.pop()
        return block_id

    def _pick_victim(self, channel: int) -> Optional[int]:
        closed = self._closed[channel]
        if not closed:
            return None
        valid = list(map(self._valid_count.__getitem__, closed))
        best_valid = min(valid)
        if best_valid >= self._pages_per_block:
            # Every closed block is fully valid: erasing buys nothing.
            return None
        best_index = valid.index(best_valid)  # the first minimum
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
        block.  A victim with no valid page has a blank reverse map
        already, so it is only erased, without reading it.
        """
        if self._valid_count[victim]:
            pages_per_block = self._pages_per_block
            rmap = self._rmap
            page_map = self.page_map
            base = victim * pages_per_block
            lpns = _live_lpns(rmap[base : base + pages_per_block])
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
