"""The flattened FTL against its per-page reference model.

``Ftl.write_pages`` runs the host write over a whole sequence of LPNs
on hoisted locals, ``Ftl.write_run`` lands a sequential run one
open-block segment at a time and retires the old copies a block-run at
a time, both opening blocks through one shared step
(``Ftl._open_host_block``), and ``Ftl._relocate_block`` erases a
victim with nothing live without reading it, and otherwise reads its
live LPNs in one C-level pass (``_live_lpns``) and moves them with a
few slice operations.  :class:`ReferenceFtl` below keeps the algorithm they
replaced -- a ``write_page`` of one ``_invalidate`` / ``_append`` /
``_map`` per page, a 256-slot walk per victim -- on top of the *same*
block pools, victim selection and least-worn-first block choice, so
the two can only differ where the flattening went wrong.

Hypothesis drives both with the same write/trim sequences over the
configurations of ``test_ftl_property.py``, plus an uneven-stripe and
a one-page-per-block geometry.  ``write_pages`` must report GC work at
exactly the page indexes where the reference's ``write_page`` loop
returned non-empty work, with the same counts, and raise where the
loop raises; after every call the complete state must be equal:
mapping, reverse map, valid counts, block pools, open slots, erase
counts and stats (``Ftl.snapshot()``).  ``write_run``, the
segment-at-a-time sequential write that conditioning uses, is held to
the reference's per-page loop the same way, also over runs that begin
with block-opens on several channels in a row and passes whose
block-opens collect victims with and without live pages; an empty
victim's erase is held to the reference's slot-by-slot scan, and a
call census pins that a clean build opens its blocks without
``write_pages`` and scans no victim.  ``_live_lpns`` is held to the
list comprehension it replaced, and ``_identity``, the shared
page-number array ``write_run`` copies from, to ``array("i",
range(n))``.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ssd import ftl as ftl_module
from repro.ssd.conditioning import _clean
from repro.ssd.ftl import _GC_STREAM, _HOST_STREAM, _UNMAPPED, Ftl, FtlError, GcWork, _live_lpns
from repro.ssd.geometry import SsdGeometry
from tests.ssd.invariants import check_invariants
from tests.ssd.test_ftl_property import CONFIGS, EXPORTED, GEOMETRY, SETTINGS


class ReferenceFtl(Ftl):
    """The per-page write and relocation path as of commit 99b8e82."""

    def write_page(self, lpn):
        if not 0 <= lpn < len(self.page_map):
            raise ValueError(f"LPN {lpn} outside exported range")
        work = GcWork()
        self._invalidate(lpn)
        channel = self._next_host_channel
        self._next_host_channel = (channel + 1) % self.geometry.num_channels
        ppn = self._append(channel, _HOST_STREAM, work)
        self._map(lpn, ppn)
        self.stats.host_programs += 1
        return ppn, work

    def trim_page(self, lpn):
        self._invalidate(lpn)

    def _map(self, lpn, ppn):
        self.page_map[lpn] = ppn
        self._rmap[ppn] = lpn
        self._valid_count[ppn // self.geometry.pages_per_block] += 1

    def _invalidate(self, lpn):
        old_ppn = self.page_map[lpn]
        if old_ppn == _UNMAPPED:
            return
        self.page_map[lpn] = _UNMAPPED
        self._rmap[old_ppn] = _UNMAPPED
        self._valid_count[old_ppn // self.geometry.pages_per_block] -= 1

    def _append(self, channel, stream, work):
        slot = self._open[channel][stream]
        if slot is None:
            block_id = self._take_free_block(channel, work, allow_gc=stream == _HOST_STREAM)
            slot = (block_id, 0)
        block_id, offset = slot
        ppn = block_id * self.geometry.pages_per_block + offset
        offset += 1
        if offset == self.geometry.pages_per_block:
            self._closed[channel].append(block_id)
            self._open[channel][stream] = None
        else:
            self._open[channel][stream] = (block_id, offset)
        return ppn

    def _relocate_block(self, victim, channel, work):
        base = victim * self.geometry.pages_per_block
        for offset in range(self.geometry.pages_per_block):
            ppn = base + offset
            lpn = self._rmap[ppn]
            if lpn == _UNMAPPED:
                continue
            new_ppn = self._append(channel, _GC_STREAM, work)
            self._rmap[ppn] = _UNMAPPED
            self._valid_count[victim] -= 1
            self.page_map[lpn] = new_ppn
            self._rmap[new_ppn] = lpn
            self._valid_count[new_ppn // self.geometry.pages_per_block] += 1
            work.relocation_reads += 1
            work.relocation_programs += 1
            self.stats.gc_programs += 1
        assert self._valid_count[victim] == 0, "victim still holds valid pages"
        work.erases += 1
        self.stats.erases += 1
        self._erase_counts[victim] += 1


def _pair(factory):
    """The flattened FTL and the reference, identically configured."""
    ftl = factory()
    return ftl, ReferenceFtl(ftl.geometry)


def _work(work):
    return (work.relocation_reads, work.relocation_programs, work.erases)


def _loop(reference, lpns):
    """The reference's per-page loop, its GC work listed as ``write_pages``
    reports it: ``(index, counts)`` wherever a write returned work."""
    reported = []
    for index, lpn in enumerate(lpns):
        _, work = reference.write_page(lpn)
        if not work.empty:
            reported.append((index, _work(work)))
    return reported


def _write_both(ftl, reference, lpns):
    """``write_pages`` and the reference loop over ``lpns``: the same GC
    work at the same page indexes."""
    reported = [(index, _work(work)) for index, work in ftl.write_pages(iter(lpns))]
    assert reported == _loop(reference, lpns)
    return reported


def _churn(ftl, reference, writes):
    """Fixed overwrite traffic (a hot half plus a cold stripe)."""
    exported = len(ftl.page_map)
    lpns = []
    lpn = 0
    for step in range(writes):
        lpn = (lpn * 5 + 3) % (exported // 2) if step % 7 else step % exported
        lpns.append(lpn)
    _write_both(ftl, reference, lpns)


ops_strategy = st.lists(
    st.tuples(
        # Writes dominate so every sequence keeps the collector busy.
        st.sampled_from(["write", "write", "write", "trim"]),
        st.integers(min_value=0, max_value=EXPORTED - 1),
    ),
    min_size=1,
    max_size=400,
)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@given(ops=ops_strategy)
@SETTINGS
def test_every_call_and_every_state_match(config, ops):
    ftl, reference = _pair(CONFIGS[config])
    # Start full and already collecting, so the drawn operations land
    # on GC.
    _churn(ftl, reference, 2 * EXPORTED)
    assert ftl.snapshot() == reference.snapshot()
    for op, lpn in ops:
        if op == "write":
            _write_both(ftl, reference, [lpn])
        else:
            ftl.trim_page(lpn)
            reference.trim_page(lpn)
        assert ftl.snapshot() == reference.snapshot()
    check_invariants(ftl)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_sustained_overwrite_matches_through_gc_and_levelling(config):
    ftl, reference = _pair(CONFIGS[config])
    _churn(ftl, reference, 12 * len(ftl.page_map))
    assert ftl.stats.gc_programs > 0 and ftl.stats.erases > 0
    # Least-worn-first block choice spread the erases over the blocks.
    assert min(ftl._erase_counts) > 0
    assert ftl.snapshot() == reference.snapshot()
    check_invariants(ftl)


#: ``write_run`` also runs where the channels do not divide the exported
#: pages (118 over 5) and where every page opens a block.
UNEVEN_GEOMETRY = SsdGeometry(
    num_channels=5, blocks_per_channel=10, pages_per_block=4, overprovision=0.41
)
SINGLE_PAGE_GEOMETRY = SsdGeometry(
    num_channels=3, blocks_per_channel=16, pages_per_block=1, overprovision=0.3
)
RUN_CONFIGS = dict(
    CONFIGS,
    uneven=lambda: Ftl(UNEVEN_GEOMETRY),
    single_page=lambda: Ftl(SINGLE_PAGE_GEOMETRY),
)


def _lanes_of_a_full_pass(ftl):
    """The old-copy lanes ``_retire`` gets when ``write_run`` rewrites
    every LPN of a copy of ``ftl``."""
    copy = Ftl(ftl.geometry, ftl.gc_low_water, ftl.gc_high_water)
    copy.restore(ftl.snapshot())
    lanes = []
    retire = copy._retire

    def spy(old_ppns, ident):
        lanes.append(old_ppns.tolist())
        retire(old_ppns, ident)

    copy._retire = spy
    copy.write_run(0, len(copy.page_map))
    return lanes


@pytest.mark.parametrize("churned", [False, True], ids=["empty", "churned"])
@pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
@given(data=st.data())
@SETTINGS
def test_write_run_matches_a_write_page_loop(config, churned, data):
    """``write_run(first, count)`` against the reference's per-page loop,
    between single writes and trims that leave the map partly mapped."""
    ftl, reference = _pair(RUN_CONFIGS[config])
    exported = len(ftl.page_map)
    if churned:
        _churn(ftl, reference, 2 * exported)
    pages_per_block = ftl.geometry.pages_per_block
    if churned and pages_per_block > 1:
        # A full pass over the churned layout retires lanes both ways:
        # some straddle a block boundary, some are not one run of PPNs.
        # (With one page a block, every page is its own segment.)
        lanes = [[ppn for ppn in lane if ppn >= 0] for lane in _lanes_of_a_full_pass(ftl)]
        assert any(len({ppn // pages_per_block for ppn in lane}) > 1 for lane in lanes)
        assert any(lane != list(range(lane[0], lane[0] + len(lane))) for lane in lanes if lane)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="calls")):
        op = data.draw(st.sampled_from(["run", "run", "write", "trim"]), label="op")
        first = data.draw(st.integers(min_value=0, max_value=exported - 1), label="first")
        if op == "run":
            count = data.draw(
                st.one_of(st.just(exported - first), st.integers(0, exported - first)),
                label="count",
            )
            ftl.write_run(first, count)
            for lpn in range(first, first + count):
                reference.write_page(lpn)
        elif op == "write":
            _write_both(ftl, reference, [first])
        else:
            ftl.trim_page(first)
            reference.trim_page(first)
        assert ftl.snapshot() == reference.snapshot()
    check_invariants(ftl)


def test_write_run_splits_a_lane_at_a_block_boundary():
    """A lane whose old copies are consecutive PPNs across a block
    boundary dies as two block-runs, one valid-count subtraction per
    block.  Writes alternate between the two channels, so LPN 0 lands
    on block 0's last page and LPN 2 on block 1's first; rewriting LPNs
    0-2 retires both in lane 0 of one segment."""
    ftl, reference = _pair(CONFIGS["reference"])
    pages_per_block = GEOMETRY.pages_per_block
    assert GEOMETRY.num_channels == 2
    # Two full blocks, then one page on each channel's next block.
    lpns = [10 + index for index in range(2 * pages_per_block + 2)]
    lpns[2 * pages_per_block - 2] = 0
    lpns[1] = 2
    _write_both(ftl, reference, lpns)
    assert (ftl.lookup(0), ftl.lookup(2)) == (pages_per_block - 1, pages_per_block)
    ftl.write_run(0, 3)
    _loop(reference, range(3))
    assert ftl.snapshot() == reference.snapshot()


def _spy_opens(ftl):
    """Record ``(lpn, channel)`` for every block-open ``ftl`` makes."""
    opens = []
    open_host_block = ftl._open_host_block

    def spy(lpn, channel, work):
        opens.append((lpn, channel))
        open_host_block(lpn, channel, work)

    ftl._open_host_block = spy
    return opens


@pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
def test_write_run_opens_blocks_on_several_channels_in_a_row(config):
    """Runs that begin where every channel's host slot is empty (a fresh
    FTL; every block exactly full) or all but the first one's, so their
    first pages are block-opens on consecutive channels; later passes
    open blocks through GC.  Held to the reference's per-page loop on
    every state field after every call."""
    ftl, reference = _pair(RUN_CONFIGS[config])
    num_channels = ftl.geometry.num_channels
    stripe = num_channels * ftl.geometry.pages_per_block
    exported = len(ftl.page_map)
    opens = _spy_opens(ftl)
    # (first, count, block-opens the run must begin with)
    runs = [
        (0, stripe, num_channels),
        (0, stripe + 1, num_channels),
        (stripe + 1, exported - stripe - 1, num_channels - 1),
        (0, exported, 0),
        (0, exported, 0),
        (3, exported - 3, 0),
    ]
    for first, count, leading in runs:
        head = ftl._next_host_channel
        before = len(opens)
        ftl.write_run(first, count)
        _loop(reference, range(first, first + count))
        assert ftl.snapshot() == reference.snapshot()
        expected = [(first + step, (head + step) % num_channels) for step in range(leading)]
        assert opens[before : before + leading] == expected
    assert ftl.stats.erases > 0
    check_invariants(ftl)


def _spy_victims(ftl):
    """Record the valid count of every victim ``ftl`` relocates."""
    victims = []
    relocate_block = ftl._relocate_block

    def spy(victim, channel, work):
        victims.append(ftl._valid_count[victim])
        relocate_block(victim, channel, work)

    ftl._relocate_block = spy
    return victims


@pytest.mark.parametrize("config", ["reference", "uneven"])
def test_write_run_block_opens_collect_empty_and_live_victims(config):
    """From a churned FTL, sequential passes whose block-opens collect:
    the first meets victims that still hold live pages, later ones
    victims with nothing live, which are erased without a scan."""
    ftl, reference = _pair(RUN_CONFIGS[config])
    exported = len(ftl.page_map)
    _churn(ftl, reference, 3 * exported)
    victims = _spy_victims(ftl)
    for _ in range(3):
        ftl.write_run(0, exported)
        _loop(reference, range(exported))
        assert ftl.snapshot() == reference.snapshot()
    assert 0 in victims and any(victims)
    check_invariants(ftl)


@pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
def test_relocating_an_empty_victim_matches_the_scan(monkeypatch, config):
    """A victim with no valid page is erased without reading its reverse
    map, with the counters, erase count and ``GcWork`` of the
    reference's slot-by-slot scan."""
    ftl, reference = _pair(RUN_CONFIGS[config])
    stripe = ftl.geometry.num_channels * ftl.geometry.pages_per_block
    # The second stripe kills the first: every channel closes a block
    # with nothing live.
    for _ in range(2):
        ftl.write_run(0, stripe)
        _loop(reference, range(stripe))
    scans = []
    monkeypatch.setattr(
        ftl_module, "_live_lpns", lambda entries: scans.append(entries) or _live_lpns(entries)
    )
    for channel in range(ftl.geometry.num_channels):
        victim = ftl._pick_victim(channel)
        assert victim == reference._pick_victim(channel) is not None
        assert ftl._valid_count[victim] == 0
        work, reference_work = GcWork(), GcWork()
        ftl._relocate_block(victim, channel, work)
        reference._relocate_block(victim, channel, reference_work)
        assert _work(work) == _work(reference_work) == (0, 0, 1)
        assert ftl.snapshot() == reference.snapshot()
    assert scans == []


def test_a_clean_build_opens_blocks_without_write_pages_and_scans_no_victim(monkeypatch):
    """Call census of one clean build on the default geometry: its
    512 block-opens go through ``_open_host_block``, never through
    ``write_pages``, and the 232 victims its second pass collects are
    empty, so no reverse map is read."""
    ftl = Ftl(SsdGeometry())
    calls = {"write_pages": 0, "_live_lpns": 0}
    write_pages, live_lpns = Ftl.write_pages, ftl_module._live_lpns

    def count_write_pages(self, lpns):
        calls["write_pages"] += 1
        return write_pages(self, lpns)

    def count_live_lpns(entries):
        calls["_live_lpns"] += 1
        return live_lpns(entries)

    monkeypatch.setattr(Ftl, "write_pages", count_write_pages)
    monkeypatch.setattr(ftl_module, "_live_lpns", count_live_lpns)
    opens = _spy_opens(ftl)
    victims = _spy_victims(ftl)
    _clean(ftl)
    assert calls == {"write_pages": 0, "_live_lpns": 0}
    assert (len(opens), len(victims), set(victims)) == (512, 232, {0})
    assert (ftl.stats.erases, ftl.stats.gc_programs) == (232, 0)


def test_write_run_checks_its_arguments():
    ftl = CONFIGS["reference"]()
    exported = len(ftl.page_map)
    ftl.write_run(0, exported // 2)
    before = ftl.snapshot()
    ftl.write_run(3, 0)
    ftl.write_run(exported, 0)
    assert ftl.snapshot() == before
    for first, count in ((0, -1), (-1, 2), (exported - 1, 2), (exported + 1, 0)):
        with pytest.raises(ValueError, match="outside exported range"):
            ftl.write_run(first, count)
        assert ftl.snapshot() == before


def test_write_run_fails_where_the_loop_fails_and_leaves_its_state():
    """With no GC watermark a second pass exhausts a channel; the run
    raises at the same page and leaves what the loop left."""
    ftl = Ftl(GEOMETRY, gc_low_water=0, gc_high_water=0)
    reference = ReferenceFtl(GEOMETRY, gc_low_water=0, gc_high_water=0)
    exported = len(ftl.page_map)
    with pytest.raises(FtlError):
        for _ in range(2):
            ftl.write_run(0, exported)
    with pytest.raises(FtlError):
        for _ in range(2):
            for lpn in range(exported):
                reference.write_page(lpn)
    assert ftl.snapshot() == reference.snapshot()


def test_write_pages_fails_where_the_loop_fails_and_leaves_its_state():
    """The same exhaustion through ``write_pages``: it raises at the same
    page, and the pages before it stay written and counted."""
    ftl = Ftl(GEOMETRY, gc_low_water=0, gc_high_water=0)
    reference = ReferenceFtl(GEOMETRY, gc_low_water=0, gc_high_water=0)
    lpns = list(range(len(ftl.page_map))) * 2
    with pytest.raises(FtlError):
        ftl.write_pages(lpns)
    with pytest.raises(FtlError):
        _loop(reference, lpns)
    assert ftl.snapshot() == reference.snapshot()
    assert 0 < ftl.stats.host_programs < len(lpns)


def test_no_gc_work_cannot_be_altered_through_a_caller():
    """Writes that collected nothing report nothing, and every reported
    ``GcWork`` is the caller's own: scribbling on one must not change
    what a later write reports."""
    fresh = CONFIGS["reference"]()
    # Opens every channel's host block from a full free pool: no GC.
    assert fresh.write_pages(range(fresh.geometry.num_channels)) == []
    assert fresh.write_pages([0, 1]) == []
    ftl, reference = _pair(CONFIGS["reference"])
    _churn(ftl, reference, 2 * len(ftl.page_map))
    lpns = list(range(0, len(ftl.page_map), 3)) * 2
    first = ftl.write_pages(lpns)
    assert [(index, _work(work)) for index, work in first] == _loop(reference, lpns) != []
    for _, work in first:
        work.relocation_reads = work.relocation_programs = work.erases = 99
    assert _write_both(ftl, reference, lpns) != []
    assert ftl.snapshot() == reference.snapshot()


@pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
@given(data=st.data())
@SETTINGS
def test_write_pages_matches_the_loop(config, data):
    """``write_pages`` over arbitrary LPN sequences -- a few hot LPNs
    repeat -- against the reference's per-page loop from a churned FTL
    that is already collecting.  An out-of-range LPN inside a sequence
    raises where the loop raises and leaves the loop's state."""
    ftl, reference = _pair(RUN_CONFIGS[config])
    exported = len(ftl.page_map)
    _churn(ftl, reference, 2 * exported)
    lpn = st.one_of(st.integers(0, exported - 1), st.integers(0, 3))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="calls")):
        lpns = data.draw(st.lists(lpn, max_size=3 * exported), label="lpns")
        bad = data.draw(
            st.none()
            | st.tuples(st.integers(0, len(lpns)), st.sampled_from([-1, exported, exported + 7])),
            label="bad",
        )
        if bad is None:
            _write_both(ftl, reference, lpns)
        else:
            at, value = bad
            lpns.insert(at, value)
            with pytest.raises(ValueError, match=f"LPN {value} outside exported range"):
                ftl.write_pages(iter(lpns))
            with pytest.raises(ValueError, match=f"LPN {value} outside exported range"):
                _loop(reference, lpns)
        assert ftl.snapshot() == reference.snapshot()
    check_invariants(ftl)


#: Live LPNs whose low bytes are ``0xff``: next to a dead slot, an
#: unaligned ``0xff`` window is four bytes away at most.
ADVERSARIAL_LPNS = (255, 0xFFFF, 0xFFFFFF, 2**31 - 1)
live_lpn = st.one_of(st.sampled_from(ADVERSARIAL_LPNS), st.integers(0, 2**31 - 1))


@given(
    entries=st.one_of(
        st.lists(st.one_of(st.just(_UNMAPPED), live_lpn), max_size=512),
        st.lists(st.just(_UNMAPPED), max_size=512),
        st.lists(live_lpn, max_size=512),
    )
)
@example(entries=[lpn for live in ADVERSARIAL_LPNS for lpn in (_UNMAPPED, live, _UNMAPPED)])
@example(entries=[_UNMAPPED, *ADVERSARIAL_LPNS, _UNMAPPED, _UNMAPPED, *reversed(ADVERSARIAL_LPNS)])
@example(entries=[_UNMAPPED] * 256)
@example(entries=list(ADVERSARIAL_LPNS) * 64)
@SETTINGS
def test_victim_filter_matches_the_comprehension(entries):
    """``_live_lpns`` drops exactly the unmapped slots, in order, on
    slices of dead slots next to live LPNs whose low bytes are
    ``0xff``, all-dead slices and all-live ones."""
    live = _live_lpns(array("i", entries))
    assert live.typecode == "i"
    assert live.tolist() == [lpn for lpn in entries if lpn != _UNMAPPED]


@pytest.mark.parametrize("n", [1, 255, 257, 65_537, 73_728])
def test_identity_matches_the_range_array(monkeypatch, n):
    """``_identity`` builds from byte planes the array ``range`` gives:
    sizes on both sides of a plane's 256- and 65,536-entry runs, and
    the default geometry's page count."""
    monkeypatch.setattr(ftl_module, "_IDENTITY", array("i"))
    built = ftl_module._identity(n)
    assert built.typecode == "i"
    assert built == array("i", range(n))
