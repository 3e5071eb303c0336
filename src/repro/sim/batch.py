"""Batch-advance event-kernel backend.

Drop-in :class:`~repro.sim.engine.Simulator` subclass that keeps
*populations* of homogeneous timed completions in numpy-sorted pools
instead of individual heap entries.  Producers register populations
through the same :meth:`Simulator.population` API the reference backend
serves from its heap; everything else (``schedule``/``at``/``at_``,
processes, waiters, cancellation) still goes through the heap and is
merged back per event, so ``(time, seq)`` firing order is preserved
exactly -- byte-identical to the reference backend.

How it works
------------
* ``add`` calls *stage* completions: they append to plain Python lists.
  No sorting happens at add time.
* When the kernel needs batch work, staged entries are **grand-sorted**
  once into a flat pool (``np.lexsort`` by ``(time, seq)``), which is
  then consumed window by window (``_WINDOW`` entries at a time, never
  splitting a timestamp tie across windows).
* Each window is turned into Python lists and fired through one
  per-event merged loop, which takes the heap head first whenever it
  precedes the window's next entry.
* The window's last timestamp is the **ceiling**: completions added at
  or above it stage for a later window; the rare add *below* it (an
  "undercut") is routed to the regular heap, whose head is compared
  against the window per event -- so undercuts cost speed, never
  correctness.
* An empty backlog costs nothing: populations with no pending entries
  contribute no heap entries and no window work, and when the heap is
  idle the clock jumps analytically to the next staged completion
  (``batch_idle_jumps`` / ``batch_idle_us`` count the skipped gaps).

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
#: Backlogs smaller than this are spilled onto the heap: below it the
#: numpy grand sort costs more than the heap pushes it replaces.
_MIN_BACKLOG = 64
#: Sentinel budget for "unlimited" max_events.
_NO_BUDGET = 1 << 62


class BatchPopulation:
    """Per-event population on the batch backend (exact-order)."""

    __slots__ = ("_sim", "fn", "label")

    def __init__(self, sim: "BatchSimulator", fn: Callable[..., Any], label: Optional[str]):
        self._sim = sim
        self.fn = fn
        self.label = label

    def add(self, time_us: float, payload: Any) -> None:
        """Register one pending completion: ``fn(payload)`` at ``time_us``."""
        sim = self._sim
        if time_us < sim.now:
            raise SimulationError(f"Cannot add at t={time_us} before now={sim.now}")
        sim._seq = seq = sim._seq + 1
        sim.batch_adds += 1
        if time_us < sim._ceiling:
            sim.batch_undercuts += 1
            heappush(sim._heap, [time_us, seq, self.fn, payload, None])
        else:
            sim._offheap += 1
            sim._stage_t.append(time_us)
            sim._stage_s.append(seq)
            sim._stage_p.append((self.fn, payload))
            if time_us < sim._stage_min:
                sim._stage_min = time_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchPopulation({self.label or self.fn!r})"


def _object_column(payloads: list):
    """Box a list of ``(fn, payload)`` pairs into a 1-D object array.

    Elementwise fill: a slice assignment would let numpy coerce a list
    of equal-length tuples into a 2-D array.
    """
    column = np.empty(len(payloads), dtype=object)
    for index, item in enumerate(payloads):
        column[index] = item
    return column


class BatchSimulator(Simulator):
    """Simulator with numpy batch-advance for registered populations."""

    __slots__ = (
        "_stage_t",
        "_stage_s",
        "_stage_p",
        "_stage_min",
        "_pool_t",
        "_pool_s",
        "_pool_p",
        "_pool_pos",
        "_win_t",
        "_win_s",
        "_win_p",
        "_win_pos",
        "_ceiling",
        "batch_adds",
        "batch_undercuts",
        "batch_grand_sorts",
        "batch_windows",
        "batch_refolds",
        "batch_idle_jumps",
        "batch_idle_us",
    )

    def __init__(self) -> None:
        #: Staged completions, unsorted: parallel time / seq /
        #: ``(fn, payload)`` lists, and the earliest staged time.
        self._stage_t: list = []
        self._stage_s: list = []
        self._stage_p: list = []
        self._stage_min = _INF
        #: The grand-sorted pool (parallel ndarrays) and its read cursor.
        self._pool_t = None
        self._pool_s = None
        self._pool_p = None
        self._pool_pos = 0
        #: The active window (parallel Python lists) and its cursor.
        self._win_t: list = []
        self._win_s: list = []
        self._win_p: list = []
        self._win_pos = 0
        self._ceiling = -_INF
        self.batch_adds = 0
        self.batch_undercuts = 0
        self.batch_grand_sorts = 0
        self.batch_windows = 0
        self.batch_refolds = 0
        self.batch_idle_jumps = 0
        self.batch_idle_us = 0.0
        super().__init__()

    def population(self, fn: Callable[..., Any], *, label: Optional[str] = None):
        """Register a population (same contract as the reference kernel)."""
        return BatchPopulation(self, fn, label)

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
        t = np.asarray(self._stage_t, dtype=np.float64)
        s = np.asarray(self._stage_s, dtype=np.int64)
        p = _object_column(self._stage_p)
        self._stage_t = []
        self._stage_s = []
        self._stage_p = []
        if carry_pos is not None:
            t = np.concatenate((self._pool_t[carry_pos:], t))
            s = np.concatenate((self._pool_s[carry_pos:], s))
            p = np.concatenate((self._pool_p[carry_pos:], p))
        order = np.lexsort((s, t))
        self._pool_t = t[order]
        self._pool_s = s[order]
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
        pool_t = self._pool_t
        if pool_t is not None:
            for index in range(self._pool_pos, pool_t.shape[0]):
                fn, payload = self._pool_p[index]
                heappush(
                    heap,
                    [float(pool_t[index]), int(self._pool_s[index]), fn, payload, None],
                )
            self._pool_t = None
            self._pool_s = None
            self._pool_p = None
            self._pool_pos = 0
        for time_us, seq, (fn, payload) in zip(
            self._stage_t, self._stage_s, self._stage_p
        ):
            heappush(heap, [time_us, seq, fn, payload, None])
        self._stage_t = []
        self._stage_s = []
        self._stage_p = []
        self._stage_min = _INF

    def _window_end(self, pos: int) -> int:
        """End of the window starting at pool index ``pos``: never split
        a timestamp tie across windows -- equal-time entries must stay
        seq-ordered relative to each other."""
        pool_t = self._pool_t
        total = pool_t.shape[0]
        end = pos + _WINDOW
        if end >= total:
            return total
        tie = pool_t[end - 1]
        while end < total and pool_t[end] == tie:
            end += 1
        return end

    def _cut_window(self) -> None:
        """Slice the next window off the pool, or spill a backlog too
        small to be worth a window onto the heap."""
        pool_t = self._pool_t
        pool_left = 0 if pool_t is None else pool_t.shape[0] - self._pool_pos
        backlog = pool_left + len(self._stage_t)
        if backlog < _MIN_BACKLOG:
            if backlog:
                self._flush_to_heap()
                self._offheap -= backlog
            return
        if pool_left == 0:
            self._grand_sort(None)
        pos = self._pool_pos
        end = self._window_end(pos)
        if self._stage_min <= self._pool_t[end - 1]:
            # Late stagers landed inside this window's span: fold the
            # unconsumed pool back in and re-sort everything.
            self.batch_refolds += 1
            self._grand_sort(pos)
            pos = 0
            end = self._window_end(pos)
        self._pool_pos = end
        self._ceiling = float(self._pool_t[end - 1])
        self.batch_windows += 1
        self._win_t = self._pool_t[pos:end].tolist()
        self._win_s = self._pool_s[pos:end].tolist()
        self._win_p = self._pool_p[pos:end].tolist()
        self._win_pos = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        """Earliest live event across heap, staged/pooled batches, and
        the active window's unconsumed part.

        ``_advance`` can stop mid-window at ``until``, leaving entries
        behind the window cursor; those are still pending work and must
        bound the next conservative window in :mod:`repro.sim.shard`,
        so the window head is read here alongside the heap head and the
        batch backlog.
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
        win_t = self._win_t
        if self._win_pos < len(win_t) and win_t[self._win_pos] < nxt:
            nxt = win_t[self._win_pos]
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
        while remaining > 0:
            if probe is not None:
                self._note_depth()
            if self._win_pos < len(self._win_t):
                count = self._run_window(until, remaining, probe)
                if count == 0:
                    # A live window that fires nothing: only `until`
                    # does that (the budget is this loop's check).
                    break
                fired += count
                remaining -= count
                continue
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
                    fn(entry[3])
                    continue
                args = entry[3]
                entry[2] = None
                entry[3] = None
                fn(*args)
                if refcount(event) == 3 and len(free) < _FREE_LIST_CAP:
                    free.append(event)
                continue
            if nxt == _INF or nxt > until:
                break
            if not heap and nxt > self.now:
                # analytic idle fast-forward: nothing can fire in
                # (now, nxt) -- jump straight there
                self.batch_idle_jumps += 1
                self.batch_idle_us += nxt - self.now
            self._cut_window()
        if probe is not None:
            self._note_depth()
        return fired

    def _run_window(self, until: float, budget: int, probe) -> int:
        """Per-event merged loop over the active window.  Fires batch
        entries and preceding heap events in exact (time, seq) order."""
        heap = self._heap
        free = self._free
        refcount = getrefcount
        run_t = self._win_t
        run_s = self._win_s
        run_p = self._win_p
        index = self._win_pos
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
                        fn(entry[3])
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
            fn, payload = run_p[index]
            index += 1
            # Stored before the callback: if it raises, the entries
            # fired so far must not fire again.
            self._win_pos = index
            if probe is not None:
                probe.count_fire(fn)
            fn(payload)
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
