"""Batch-advance event-kernel backend.

Drop-in :class:`~repro.sim.engine.Simulator` subclass that advances
*populations* of homogeneous timed completions with numpy instead of
individual heap entries.  Producers register populations through the
same :meth:`Simulator.population` API the reference backend serves
from its heap; everything else (``schedule``/``at``/``at_``,
processes, waiters, cancellation) still goes through the heap and is
merged back per event, so ``(time, seq)`` firing order is preserved
exactly for per-event populations.

How it works
------------
* ``add`` / ``add_many`` calls *stage* completions: scalar adds append
  to plain Python lists; bulk adds park whole ``(times, payloads)``
  arrays as chunks.  No sorting happens at add time.
* When the kernel needs batch work, staged entries are **grand-sorted**
  once into a flat pool (``np.lexsort`` by ``(time, seq)``), which is
  then consumed window by window (``_WINDOW`` entries at a time, never
  splitting a timestamp tie across windows).
* Each window becomes one or more *segments*: contiguous bulk-entry
  stretches are delivered as arrays (``fn(times, payloads)`` grouped
  per population, sliced below the next heap event with
  ``np.searchsorted``); everything else fires through a per-event
  merged loop identical in order to the reference kernel.
* The window's last timestamp is the **ceiling**: completions added at
  or above it stage for a later window; the rare add *below* it (an
  "undercut") is routed to the regular heap, whose head is compared
  against the run per event -- so undercuts cost speed, never
  correctness.
* An empty backlog costs nothing: populations with no pending entries
  contribute no heap entries and no window work, and when the heap is
  idle the clock jumps analytically to the next staged completion
  (``batch_idle_jumps`` / ``batch_idle_us`` count the skipped gaps).

Ordering contract
-----------------
Per-event populations (``bulk=False``) and all heap events fire in
exact ``(time, seq)`` order -- byte-identical to the reference
backend.  Bulk populations trade that exactness for throughput: within
one delivery region, groups belonging to *different* populations are
delivered in population-registration order rather than interleaved by
time, and the clock coarsens to the region's last timestamp.  Bulk
producers must honour the FCFS floor contract (completions registered
during a delivery land at or after the population's ``floor``); the
backend raises :class:`SimulationError` on violations.

numpy is an optional dependency (``pip install repro[fast]``); the
reference backend never imports this module.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Optional

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro.sim.batch needs numpy, which is an optional dependency of "
        "this package: install it with `pip install repro[fast]` (or plain "
        "`pip install numpy`).  The default pure-Python reference backend "
        "(REPRO_KERNEL_BACKEND=reference) works without it."
    ) from exc

from repro.sim.engine import _FREE_LIST_CAP, SimulationError, Simulator

_INF = float("inf")
#: Pool entries consumed per window cut.  Large enough to amortise the
#: numpy work per window, small enough that closed-loop resubmits land
#: above the window ceiling (staged, not undercut to the heap).
_WINDOW = 8192
#: Bulk stretches shorter than this fire per-event: below it the numpy
#: group extraction costs more than the Python loop it replaces.
_MIN_BULK_SEGMENT = 64
#: Array-delivery regions thinner than this (heap events landing every
#: few entries) demote the segment remainder to the per-event merged
#: loop -- numpy slicing per tiny region loses to plain Python.
_MIN_BULK_REGION = 8
#: Sentinel budget for "unlimited" max_events.
_NO_BUDGET = 1 << 62

# Segment tuple layout (lists, so cursors mutate in place):
# [kind, cursor, times, seqs, pids, payloads]
# kind 0 = array segment (ndarrays, all-bulk), 1 = list segment
# (python lists; pids is None when the segment holds no bulk entries).
_ARRAY = 0
_LIST = 1


class BatchPopulation:
    """Per-event population on the batch backend (exact-order)."""

    __slots__ = ("_sim", "fn", "label")

    def __init__(self, sim: "BatchSimulator", fn: Callable[..., Any], label: Optional[str]):
        self._sim = sim
        self.fn = fn
        self.label = label

    def add(self, time_us: float, *args: Any) -> None:
        """Register one pending completion of this population."""
        sim = self._sim
        if time_us < sim.now:
            raise SimulationError(f"Cannot add at t={time_us} before now={sim.now}")
        sim._seq = seq = sim._seq + 1
        sim.batch_adds += 1
        if time_us < sim._ceiling:
            sim.batch_undercuts += 1
            heappush(sim._heap, [time_us, seq, self.fn, args, None])
        else:
            sim._offheap += 1
            sim._stage_t.append(time_us)
            sim._stage_s.append(seq)
            sim._stage_pid.append(-1)
            sim._stage_p.append((self.fn, args))
            if time_us < sim._stage_min:
                sim._stage_min = time_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchPopulation({self.label or self.fn!r})"


class BatchBulkPopulation:
    """Bulk population: completions staged and delivered as arrays."""

    __slots__ = ("_sim", "fn", "label", "pid", "floor")

    def __init__(
        self,
        sim: "BatchSimulator",
        fn: Callable[..., Any],
        pid: int,
        label: Optional[str],
    ):
        self._sim = sim
        self.fn = fn
        self.label = label
        self.pid = pid
        self.floor = 0.0

    def add(self, time_us: float, payload: Any) -> None:
        """Register a single pending completion (numpy-free fast path:
        sparse producers stage scalars; arrays only enter the picture
        once a backlog is worth sorting)."""
        sim = self._sim
        if time_us < self.floor:
            raise SimulationError(
                f"bulk population {self.label or self.pid}: completion at "
                f"t={time_us} below floor {self.floor} (FCFS contract)"
            )
        sim._seq = seq = sim._seq + 1
        sim.batch_adds += 1
        if time_us < sim._ceiling:
            sim.batch_undercuts += 1
            heappush(
                sim._heap, [time_us, seq, self._fire_one, (time_us, payload), None]
            )
        else:
            sim._offheap += 1
            sim._stage_t.append(time_us)
            sim._stage_s.append(seq)
            sim._stage_pid.append(self.pid)
            sim._stage_p.append(payload)
            if time_us < sim._stage_min:
                sim._stage_min = time_us

    def add_many(self, times, payloads) -> None:
        """Register a batch of pending completions.

        ``times`` and ``payloads`` are parallel sequences (numpy arrays
        stage with zero per-entry Python work); entries need not be
        sorted, but every time must be at or after :attr:`floor`.
        """
        sim = self._sim
        times = np.asarray(times, dtype=np.float64)
        count = times.shape[0]
        if count == 0:
            return
        if len(payloads) != count:
            raise SimulationError("add_many: times and payloads lengths differ")
        tmin = float(times.min())
        if tmin < self.floor:
            raise SimulationError(
                f"bulk population {self.label or self.pid}: completion at "
                f"t={tmin} below floor {self.floor} (FCFS contract)"
            )
        seq0 = sim._seq
        sim._seq = seq0 + count
        sim.batch_adds += count
        if tmin < sim._ceiling:
            sim._stage_bulk_undercut(self, times, seq0, payloads)
        else:
            sim._offheap += count
            sim._chunks.append((times, seq0 + 1, self.pid, payloads))
            if tmin < sim._stage_min:
                sim._stage_min = tmin

    def _fire_one(self, time_us: float, payload: Any) -> None:
        self.floor = time_us
        self.fn((time_us,), (payload,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchBulkPopulation({self.label or self.fn!r})"


def _object_column(payloads, count: int):
    """Box a payload sequence into a 1-D object array.

    Elementwise fill for Python sequences: a slice assignment would let
    numpy coerce a list of equal-length tuples into a 2-D array.
    """
    if isinstance(payloads, np.ndarray):
        if payloads.dtype == object:
            return payloads
        column = np.empty(count, dtype=object)
        column[:] = payloads
        return column
    column = np.empty(count, dtype=object)
    for index, item in enumerate(payloads):
        column[index] = item
    return column


class BatchSimulator(Simulator):
    """Simulator with numpy batch-advance for registered populations."""

    __slots__ = (
        "_pops",
        "_stage_t",
        "_stage_s",
        "_stage_pid",
        "_stage_p",
        "_stage_min",
        "_chunks",
        "_pool_t",
        "_pool_s",
        "_pool_pid",
        "_pool_p",
        "_pool_pos",
        "_segments",
        "_seg_idx",
        "_ceiling",
        "batch_adds",
        "batch_undercuts",
        "batch_grand_sorts",
        "batch_windows",
        "batch_refolds",
        "batch_demotions",
        "batch_bulk_fired",
        "batch_scalar_fired",
        "batch_idle_jumps",
        "batch_idle_us",
    )

    def __init__(self) -> None:
        self._pops: list = []
        self._stage_t: list = []
        self._stage_s: list = []
        self._stage_pid: list = []
        self._stage_p: list = []
        self._stage_min = _INF
        self._chunks: list = []
        self._pool_t = None
        self._pool_s = None
        self._pool_pid = None
        self._pool_p = None
        self._pool_pos = 0
        self._segments: list = []
        self._seg_idx = 0
        self._ceiling = -_INF
        self.batch_adds = 0
        self.batch_undercuts = 0
        self.batch_grand_sorts = 0
        self.batch_windows = 0
        self.batch_refolds = 0
        self.batch_demotions = 0
        self.batch_bulk_fired = 0
        self.batch_scalar_fired = 0
        self.batch_idle_jumps = 0
        self.batch_idle_us = 0.0
        super().__init__()

    # ------------------------------------------------------------------
    # Population registration / staging
    # ------------------------------------------------------------------
    def population(
        self, fn: Callable[..., Any], *, bulk: bool = False, label: Optional[str] = None
    ):
        """Register a population (same contract as the reference kernel)."""
        if bulk:
            pop = BatchBulkPopulation(self, fn, len(self._pops), label)
            self._pops.append(pop)
            return pop
        return BatchPopulation(self, fn, label)

    def _stage_bulk_undercut(self, pop, times, seq0: int, payloads) -> None:
        """Rare path: a bulk add whose earliest entry lands inside the
        active window.  The undercutting slice goes to the heap (exact
        per-event merge); the rest stages normally."""
        ceiling = self._ceiling
        under = np.flatnonzero(times < ceiling)
        heap = self._heap
        fire = pop._fire_one
        for j in under.tolist():
            tj = float(times[j])
            heappush(heap, [tj, seq0 + 1 + j, fire, (tj, payloads[j]), None])
        self.batch_undercuts += under.size
        keep = np.flatnonzero(times >= ceiling)
        if keep.size:
            self._offheap += keep.size
            kept_times = times[keep]
            kept_seqs = keep.astype(np.int64) + (seq0 + 1)
            kept_payloads = np.empty(keep.size, dtype=object)
            for out, j in enumerate(keep.tolist()):
                kept_payloads[out] = payloads[j]
            self._chunks.append((kept_times, kept_seqs, pop.pid, kept_payloads))
            tmin = float(kept_times.min())
            if tmin < self._stage_min:
                self._stage_min = tmin

    # ------------------------------------------------------------------
    # Pool / window machinery
    # ------------------------------------------------------------------
    def _next_batch_time(self) -> float:
        """Earliest pending batch completion (staged or pooled)."""
        nxt = self._stage_min
        pool_t = self._pool_t
        if pool_t is not None and self._pool_pos < pool_t.shape[0]:
            head = pool_t[self._pool_pos]
            if head < nxt:
                nxt = float(head)
        return nxt

    def _grand_sort(self, carry_pos: Optional[int]) -> None:
        """Sort every staged entry (plus the unconsumed pool tail when
        ``carry_pos`` is given) into a fresh pool."""
        parts_t: list = []
        parts_s: list = []
        parts_pid: list = []
        parts_p: list = []
        if carry_pos is not None:
            parts_t.append(self._pool_t[carry_pos:])
            parts_s.append(self._pool_s[carry_pos:])
            parts_pid.append(self._pool_pid[carry_pos:])
            parts_p.append(self._pool_p[carry_pos:])
        if self._stage_t:
            count = len(self._stage_t)
            parts_t.append(np.asarray(self._stage_t, dtype=np.float64))
            parts_s.append(np.asarray(self._stage_s, dtype=np.int64))
            parts_pid.append(np.asarray(self._stage_pid, dtype=np.int64))
            parts_p.append(_object_column(self._stage_p, count))
            self._stage_t = []
            self._stage_s = []
            self._stage_pid = []
            self._stage_p = []
        for times, seqs, pid, payloads in self._chunks:
            count = times.shape[0]
            parts_t.append(times)
            if isinstance(seqs, int):
                parts_s.append(np.arange(seqs, seqs + count, dtype=np.int64))
            else:
                parts_s.append(seqs)
            parts_pid.append(np.full(count, pid, dtype=np.int64))
            parts_p.append(_object_column(payloads, count))
        self._chunks.clear()
        if len(parts_t) == 1:
            t, s, pid, p = parts_t[0], parts_s[0], parts_pid[0], parts_p[0]
        else:
            t = np.concatenate(parts_t)
            s = np.concatenate(parts_s)
            pid = np.concatenate(parts_pid)
            p = np.concatenate(parts_p)
        order = np.lexsort((s, t))
        self._pool_t = t[order]
        self._pool_s = s[order]
        self._pool_pid = pid[order]
        self._pool_p = p[order]
        self._pool_pos = 0
        self._stage_min = _INF
        self.batch_grand_sorts += 1

    def _flush_to_heap(self) -> None:
        """Move every staged/pooled entry onto the regular heap.

        Used when the batch backlog is too small to pay for numpy:
        sparse workloads then run at reference speed instead of doing a
        grand sort per handful of events.  Heap routing is always
        correct -- the merged loop fires heap entries in exact order.
        """
        heap = self._heap
        pops = self._pops
        pool_t = self._pool_t
        if pool_t is not None:
            for index in range(self._pool_pos, pool_t.shape[0]):
                time_us = float(pool_t[index])
                pid = int(self._pool_pid[index])
                payload = self._pool_p[index]
                if pid < 0:
                    fn, args = payload
                    heappush(heap, [time_us, int(self._pool_s[index]), fn, args, None])
                else:
                    heappush(
                        heap,
                        [
                            time_us,
                            int(self._pool_s[index]),
                            pops[pid]._fire_one,
                            (time_us, payload),
                            None,
                        ],
                    )
            self._pool_t = None
            self._pool_s = None
            self._pool_pid = None
            self._pool_p = None
            self._pool_pos = 0
        for index in range(len(self._stage_t)):
            time_us = self._stage_t[index]
            pid = self._stage_pid[index]
            payload = self._stage_p[index]
            if pid < 0:
                fn, args = payload
                heappush(heap, [time_us, self._stage_s[index], fn, args, None])
            else:
                heappush(
                    heap,
                    [
                        time_us,
                        self._stage_s[index],
                        pops[pid]._fire_one,
                        (time_us, payload),
                        None,
                    ],
                )
        self._stage_t = []
        self._stage_s = []
        self._stage_pid = []
        self._stage_p = []
        for times, seqs, pid, payloads in self._chunks:
            fire = pops[pid]._fire_one
            for j in range(times.shape[0]):
                time_us = float(times[j])
                seq = seqs + j if isinstance(seqs, int) else int(seqs[j])
                heappush(heap, [time_us, seq, fire, (time_us, payloads[j]), None])
        self._chunks.clear()
        self._stage_min = _INF

    def _cut_window(self) -> bool:
        """Slice the next window off the pool into ``self._segments``.

        Returns False when no batch work remains (possibly after
        spilling a too-small backlog onto the heap).
        """
        pool_t = self._pool_t
        pool_left = 0 if pool_t is None else pool_t.shape[0] - self._pool_pos
        backlog = pool_left + len(self._stage_t)
        if backlog < _MIN_BULK_SEGMENT:
            backlog += sum(c[0].shape[0] for c in self._chunks)
            if backlog < _MIN_BULK_SEGMENT:
                if backlog:
                    self._flush_to_heap()
                    self._offheap -= backlog
                return False
        if pool_t is None or self._pool_pos >= pool_t.shape[0]:
            if not self._stage_t and not self._chunks:
                return False
            self._grand_sort(None)
            pool_t = self._pool_t
        pos = self._pool_pos
        total = pool_t.shape[0]
        end = pos + _WINDOW
        if end >= total:
            end = total
        else:
            tie = pool_t[end - 1]
            # never split a timestamp tie across windows: equal-time
            # entries must stay seq-ordered relative to each other
            while end < total and pool_t[end] == tie:
                end += 1
        boundary = float(pool_t[end - 1])
        if self._stage_min <= boundary:
            # Late stagers landed inside this window's span: fold the
            # unconsumed pool back in and re-sort everything.
            self.batch_refolds += 1
            self._grand_sort(pos)
            pool_t = self._pool_t
            pos = 0
            total = pool_t.shape[0]
            end = min(pos + _WINDOW, total)
            if end < total:
                tie = pool_t[end - 1]
                while end < total and pool_t[end] == tie:
                    end += 1
            boundary = float(pool_t[end - 1])
        self._pool_pos = end
        self._ceiling = boundary
        self.batch_windows += 1
        win_t = pool_t[pos:end]
        win_s = self._pool_s[pos:end]
        win_pid = self._pool_pid[pos:end]
        win_p = self._pool_p[pos:end]
        segments = self._segments
        segments.clear()
        self._seg_idx = 0
        bulk_mask = win_pid >= 0
        if not bulk_mask.any():
            segments.append(
                [_LIST, 0, win_t.tolist(), win_s.tolist(), None, win_p.tolist()]
            )
            return True
        if bulk_mask.all():
            if win_t.shape[0] >= _MIN_BULK_SEGMENT:
                segments.append([_ARRAY, 0, win_t, win_s, win_pid, win_p])
            else:
                segments.append(
                    [
                        _LIST,
                        0,
                        win_t.tolist(),
                        win_s.tolist(),
                        win_pid.tolist(),
                        win_p.tolist(),
                    ]
                )
            return True
        # Mixed window: split into alternating bulk / per-event runs.
        change = (np.flatnonzero(np.diff(bulk_mask)) + 1).tolist()
        starts = [0, *change]
        ends = [*change, win_t.shape[0]]
        for s0, e0 in zip(starts, ends):
            if bulk_mask[s0] and e0 - s0 >= _MIN_BULK_SEGMENT:
                segments.append(
                    [_ARRAY, 0, win_t[s0:e0], win_s[s0:e0], win_pid[s0:e0], win_p[s0:e0]]
                )
            else:
                pid_list = None if not bulk_mask[s0] else win_pid[s0:e0].tolist()
                segments.append(
                    [
                        _LIST,
                        0,
                        win_t[s0:e0].tolist(),
                        win_s[s0:e0].tolist(),
                        pid_list,
                        win_p[s0:e0].tolist(),
                    ]
                )
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        """Earliest live event across heap, staged/pooled batches, and
        the active window's unconsumed segments.

        ``_advance`` can stop mid-window at ``until``, leaving entries
        behind the segment cursors; those are still pending work and
        must bound the next conservative window in
        :mod:`repro.sim.shard`, so they are scanned here alongside the
        heap head and the batch backlog.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            self._note_depth()
            heappop(heap)
            self._dead -= 1
        nxt = heap[0][0] if heap else _INF
        batch_next = self._next_batch_time()
        if batch_next < nxt:
            nxt = batch_next
        segments = self._segments
        for index in range(self._seg_idx, len(segments)):
            seg = segments[index]
            cursor = seg[1]
            times = seg[2]
            if seg[0] == _ARRAY:
                if cursor < times.shape[0]:
                    head = float(times[cursor])
                    if head < nxt:
                        nxt = head
                    break
            elif cursor < len(times):
                head = times[cursor]
                if head < nxt:
                    nxt = head
                break
        return None if nxt == _INF else float(nxt)

    def _drain_fast(self, until_us: Optional[float]) -> None:
        # The base run() takes its hot loop when there is no probe and
        # no event cap; here every run goes through the batch-aware one.
        self._advance(until_us, None, None)

    def _advance(
        self, until_us: Optional[float], max_events: Optional[int], probe
    ) -> int:
        """The merged main loop: windows of batch work interleaved with
        the heap.  Returns the number of events fired.  As in the base
        loop, handle-less heap entries fire bare, and a probe samples
        the queue depth (heap plus ``_offheap``) ahead of every pop."""
        heap = self._heap
        free = self._free
        refcount = getrefcount
        until = _INF if until_us is None else until_us
        remaining = _NO_BUDGET if max_events is None else max_events
        fired = 0
        segments = self._segments
        while remaining > 0:
            if probe is not None:
                self._note_depth()
            if self._seg_idx >= len(segments):
                # No active window: decide between the heap and a cut.
                while heap and heap[0][2] is None:
                    heappop(heap)
                    self._dead -= 1
                nxt = self._next_batch_time()
                if heap and heap[0][0] < nxt:
                    entry = heap[0]
                    time_us = entry[0]
                    if time_us > until:
                        break
                    heappop(heap)
                    fn = entry[2]
                    if time_us > self.now:
                        self.now = time_us
                    if probe is not None:
                        probe.count_fire(fn)
                    fired += 1
                    remaining -= 1
                    event = entry[4]
                    if event is None:
                        fn(*entry[3])
                        continue
                    args = entry[3]
                    entry[2] = None
                    entry[3] = None
                    fn(*args)
                    if refcount(event) == 3 and len(free) < _FREE_LIST_CAP:
                        free.append(event)
                    continue
                if nxt == _INF:
                    break
                if nxt > until:
                    break
                if not heap and nxt > self.now:
                    # analytic idle fast-forward: nothing can fire in
                    # (now, nxt) -- jump straight there
                    self.batch_idle_jumps += 1
                    self.batch_idle_us += nxt - self.now
                self._cut_window()
                continue
            seg = segments[self._seg_idx]
            if seg[1] >= len(seg[2]):
                self._seg_idx += 1
                continue
            if seg[0] == _ARRAY:
                count = self._deliver_bulk(seg, until, remaining, probe)
                if seg[0] == _LIST:
                    # Demoted to a list segment: the per-event merged
                    # loop takes over from the same position.
                    continue
            else:
                count = self._run_list_segment(seg, until, remaining, probe)
            if count == 0:
                # A live segment that fires nothing: only `until` does
                # that (the budget is the outer loop's check).
                break
            fired += count
            remaining -= count
        if probe is not None:
            self._note_depth()
        return fired

    def _deliver_bulk(self, seg, until: float, budget: int, probe) -> int:
        """Deliver as much of an array segment as is safe: everything
        strictly below the next live heap event and ``until``.

        When the deliverable region is thin (a heap event lands every
        few entries), the segment's remainder is demoted in place to a
        list segment: the per-event merged loop beats paying numpy
        slicing overhead per handful of events.  The caller re-checks
        ``seg[0]`` after every call.
        """
        cursor = seg[1]
        times = seg[2]
        total = times.shape[0]
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        limit = total
        if heap:
            limit = int(np.searchsorted(times, heap[0][0], side="left"))
        if until < _INF:
            by_until = int(np.searchsorted(times, until, side="right"))
            if by_until < limit:
                limit = by_until
        if cursor + budget < limit:
            limit = cursor + budget
        if limit < total and limit - cursor < _MIN_BULK_REGION:
            seg[0] = _LIST
            seg[1] = 0
            seg[2] = times[cursor:].tolist()
            seg[3] = seg[3][cursor:].tolist()
            seg[4] = seg[4][cursor:].tolist()
            seg[5] = seg[5][cursor:].tolist()
            self.batch_demotions += 1
            return 0
        if limit <= cursor:
            return 0
        region_t = times[cursor:limit]
        region_pid = seg[4][cursor:limit]
        region_p = seg[5][cursor:limit]
        count = limit - cursor
        # Consumed before delivery, so a raising callback cannot make
        # the region fire twice.
        seg[1] = limit
        self._offheap -= count
        region_end = float(region_t[-1])
        if region_end > self.now:
            self.now = region_end
        pops = self._pops
        pids = np.unique(region_pid)
        if pids.shape[0] == 1:
            pop = pops[int(pids[0])]
            pop.floor = region_end
            if probe is not None:
                count_fire = probe.count_fire
                fn = pop.fn
                for _ in range(count):
                    count_fire(fn)
            pop.fn(region_t, region_p)
        else:
            # deterministic cross-population order: registration order
            for pid in pids.tolist():
                mask = region_pid == pid
                pop = pops[pid]
                group_t = region_t[mask]
                pop.floor = float(group_t[-1])
                if probe is not None:
                    count_fire = probe.count_fire
                    fn = pop.fn
                    for _ in range(int(mask.sum())):
                        count_fire(fn)
                pop.fn(group_t, region_p[mask])
        self.batch_bulk_fired += count
        return count

    def _run_list_segment(self, seg, until: float, budget: int, probe) -> int:
        """Per-event merged loop over a list segment.  Fires batch
        entries and preceding heap events in exact (time, seq) order."""
        heap = self._heap
        free = self._free
        refcount = getrefcount
        run_t = seg[2]
        run_s = seg[3]
        run_pid = seg[4]
        run_p = seg[5]
        pops = self._pops
        index = seg[1]
        total = len(run_t)
        fired = 0
        while index < total and fired < budget:
            if probe is not None:
                self._note_depth()
            time_us = run_t[index]
            if heap:
                entry = heap[0]
                if entry[2] is None:
                    heappop(heap)
                    self._dead -= 1
                    continue
                htime = entry[0]
                if htime < time_us or (htime == time_us and entry[1] < run_s[index]):
                    if htime > until:
                        break
                    heappop(heap)
                    fn = entry[2]
                    if htime > self.now:
                        self.now = htime
                    if probe is not None:
                        probe.count_fire(fn)
                    fired += 1
                    event = entry[4]
                    if event is None:
                        fn(*entry[3])
                        continue
                    args = entry[3]
                    entry[2] = None
                    entry[3] = None
                    fn(*args)
                    if refcount(event) == 3 and len(free) < _FREE_LIST_CAP:
                        free.append(event)
                    continue
            if time_us > until:
                break
            if time_us > self.now:
                self.now = time_us
            self._offheap -= 1
            payload = run_p[index]
            index += 1
            # Stored before the callback: if it raises, the entries
            # fired so far must not fire again.
            seg[1] = index
            if run_pid is None or run_pid[index - 1] < 0:
                fn, args = payload
                if probe is not None:
                    probe.count_fire(fn)
                fn(*args)
            else:
                pop = pops[run_pid[index - 1]]
                pop.floor = time_us
                if probe is not None:
                    probe.count_fire(pop.fn)
                pop.fn((time_us,), (payload,))
                self.batch_bulk_fired += 1
                self.batch_scalar_fired -= 1
            self.batch_scalar_fired += 1
            fired += 1
        return fired

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "kernel") -> None:
        """Expose ``kernel.batch_*`` gauges on an obs registry."""
        registry.gauge(f"{prefix}.batch_adds", lambda: self.batch_adds)
        registry.gauge(f"{prefix}.batch_undercuts", lambda: self.batch_undercuts)
        registry.gauge(f"{prefix}.batch_grand_sorts", lambda: self.batch_grand_sorts)
        registry.gauge(f"{prefix}.batch_windows", lambda: self.batch_windows)
        registry.gauge(f"{prefix}.batch_refolds", lambda: self.batch_refolds)
        registry.gauge(f"{prefix}.batch_demotions", lambda: self.batch_demotions)
        registry.gauge(f"{prefix}.batch_bulk_fired", lambda: self.batch_bulk_fired)
        registry.gauge(f"{prefix}.batch_scalar_fired", lambda: self.batch_scalar_fired)
        registry.gauge(f"{prefix}.batch_idle_jumps", lambda: self.batch_idle_jumps)
        registry.gauge(f"{prefix}.batch_idle_us", lambda: self.batch_idle_us)

    @property
    def batch_pending(self) -> int:
        """Entries currently staged, pooled or in the active window --
        everything this backend holds outside the heap.  O(1)."""
        return self._offheap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchSimulator(now={self.now:.3f}us, pending={self.pending}, "
            f"batch_pending={self.batch_pending})"
        )
