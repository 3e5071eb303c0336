"""The flattened FTL against its per-page reference model.

``Ftl.write_page`` claims the next slot of the channel's open block on
locals, and ``Ftl._relocate_block`` moves a victim's live pages with a
few slice operations.  :class:`ReferenceFtl` below keeps the algorithm
they replaced -- one ``_invalidate`` / ``_append`` / ``_map`` per page,
a 256-slot walk per victim -- on top of the *same* block pools, victim
selection, wear levelling and retirement code, so the two can only
differ where the flattening went wrong.

Hypothesis drives both with the same write/trim sequences over the
four configurations of ``test_ftl_property.py``.  Every call must
return the same physical page and the same GC work, and after every
operation the complete state must be equal: mapping, reverse map,
valid counts, block pools, open slots, wear, retirement, stats, pending
translation traffic and the mapping cache (counters *and* LRU order).
``Ftl.write_run``, the segment-at-a-time sequential write that
conditioning uses, is held to the reference's per-page loop the same
way.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ssd.ftl import _GC_STREAM, _HOST_STREAM, _UNMAPPED, Ftl, FtlError, GcWork, WearConfig
from repro.ssd.geometry import SsdGeometry
from tests.ssd.test_ftl_property import CONFIGS, EXPORTED, GEOMETRY, SETTINGS


class ReferenceFtl(Ftl):
    """The per-page write and relocation path as of commit 99b8e82."""

    def write_page(self, lpn):
        if not 0 <= lpn < len(self.page_map):
            raise ValueError(f"LPN {lpn} outside exported range")
        work = GcWork()
        if self.map_cache is not None:
            self._map_access(lpn, dirty=True)
        self._invalidate(lpn)
        channel = self._next_host_channel
        self._next_host_channel = (channel + 1) % self.geometry.num_channels
        ppn = self._append(channel, _HOST_STREAM, work)
        self._map(lpn, ppn)
        self.stats.host_programs += 1
        return ppn, work

    def trim_page(self, lpn):
        if self.map_cache is not None:
            self._map_access(lpn, dirty=True)
        self._invalidate(lpn)

    def _map(self, lpn, ppn):
        self.page_map[lpn] = ppn
        self._rmap[ppn] = lpn
        self._valid_count[self.geometry.block_of_page(ppn)] += 1

    def _invalidate(self, lpn):
        old_ppn = self.page_map[lpn]
        if old_ppn == _UNMAPPED:
            return
        self.page_map[lpn] = _UNMAPPED
        self._rmap[old_ppn] = _UNMAPPED
        self._valid_count[self.geometry.block_of_page(old_ppn)] -= 1

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

    def _relocate_block(self, victim, channel, work, wl=False):
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
            self._valid_count[self.geometry.block_of_page(new_ppn)] += 1
            work.relocation_reads += 1
            work.relocation_programs += 1
            if wl:
                self.stats.wl_programs += 1
            else:
                self.stats.gc_programs += 1
            if self.map_cache is not None:
                self._map_access(lpn, dirty=True)
        assert self._valid_count[victim] == 0, "victim still holds valid pages"
        work.erases += 1
        self.stats.erases += 1
        self._erase_counts[victim] += 1


#: ``test_ftl_property``'s geometry keeps exactly the blocks its data
#: needs, so the retirement floor vetoes every endurance death there;
#: this one has two blocks per channel to lose.
ROOMY_GEOMETRY = SsdGeometry(
    num_channels=2, blocks_per_channel=14, pages_per_block=16, overprovision=0.45
)


def _retiring():
    return Ftl(ROOMY_GEOMETRY, wear=WearConfig(endurance_cycles=6, static_wear_threshold=3))


def _pair(factory):
    """The flattened FTL and the reference, identically configured."""
    ftl = factory()
    return ftl, ReferenceFtl(ftl.geometry, mapping_cache=factory().map_cache, wear=ftl.wear)


def _churn(ftl, reference, writes):
    """Fixed overwrite traffic (a hot half plus a cold stripe), checking
    every write's return value."""
    exported = len(ftl.page_map)
    lpn = 0
    for step in range(writes):
        lpn = (lpn * 5 + 3) % (exported // 2) if step % 7 else step % exported
        ppn, work = ftl.write_page(lpn)
        ref_ppn, ref_work = reference.write_page(lpn)
        assert ppn == ref_ppn and _work(work) == _work(ref_work)


def _state(ftl):
    """Everything the FTL holds, in directly comparable form."""
    state = ftl.snapshot()
    state["retired_on_channel"] = list(ftl._retired_on_channel)
    if ftl.map_cache is not None:
        # Dict equality ignores order, and residency order is the LRU.
        state["map_cache_lru"] = list(state["map_cache"]["resident"].items())
    return state


def _work(work):
    return (work.relocation_reads, work.relocation_programs, work.erases)


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
    # on GC (and, in the worn configuration, on wear levelling).
    _churn(ftl, reference, 2 * EXPORTED)
    assert _state(ftl) == _state(reference)
    for op, lpn in ops:
        if op == "write":
            ppn, work = ftl.write_page(lpn)
            ref_ppn, ref_work = reference.write_page(lpn)
            assert ppn == ref_ppn
            assert _work(work) == _work(ref_work)
            assert work.empty == ref_work.empty
        else:
            ftl.trim_page(lpn)
            reference.trim_page(lpn)
        assert _state(ftl) == _state(reference)
    ftl.check_invariants()


@pytest.mark.parametrize("config", sorted(CONFIGS) + ["retiring"])
def test_sustained_overwrite_matches_through_gc_levelling_and_retirement(config):
    ftl, reference = _pair(CONFIGS.get(config, _retiring))
    _churn(ftl, reference, 12 * len(ftl.page_map))
    assert ftl.stats.gc_programs > 0 and ftl.stats.erases > 0
    if config == "worn":
        assert ftl.stats.wl_migrations > 0
    if config == "retiring":
        assert ftl.retired_blocks > 0
    assert _state(ftl) == _state(reference)
    ftl.check_invariants()


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
    retiring=_retiring,
    uneven=lambda: Ftl(UNEVEN_GEOMETRY),
    single_page=lambda: Ftl(SINGLE_PAGE_GEOMETRY),
)


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
            ftl.write_page(first)
            reference.write_page(first)
        else:
            ftl.trim_page(first)
            reference.trim_page(first)
        assert _state(ftl) == _state(reference)
    ftl.check_invariants()


def test_write_run_checks_its_arguments():
    ftl = CONFIGS["dftl-tiny"]()
    exported = len(ftl.page_map)
    ftl.write_run(0, exported // 2)
    before = _state(ftl)
    ftl.write_run(3, 0)
    ftl.write_run(exported, 0)
    assert _state(ftl) == before
    for first, count in ((0, -1), (-1, 2), (exported - 1, 2), (exported + 1, 0)):
        with pytest.raises(ValueError, match="outside exported range"):
            ftl.write_run(first, count)
        assert _state(ftl) == before


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
    assert _state(ftl) == _state(reference)


def test_no_gc_work_cannot_be_altered_through_a_caller():
    """Writes that took no new block share one empty ``GcWork``; a caller
    scribbling on it must not change what a later write reports."""
    ftl = CONFIGS["reference"]()
    for lpn in range(ftl.geometry.num_channels):
        ftl.write_page(lpn)  # opens every channel's host block
    _, work = ftl.write_page(0)
    assert work.empty
    for field in ("relocation_reads", "relocation_programs", "erases"):
        with pytest.raises(AttributeError):
            setattr(work, field, 99)
    _, later = ftl.write_page(1)
    assert _work(later) == (0, 0, 0)
    assert later.empty
