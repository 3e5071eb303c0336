"""Event loop for the discrete-event simulation.

The :class:`Simulator` owns the clock and an event heap.  Components
never sleep or poll; they schedule callbacks.  Two programming styles
are supported:

* **Callback style** -- ``sim.schedule(delay_us, fn, *args)`` runs
  ``fn(*args)`` after ``delay_us`` microseconds.  This is what the
  device and fabric models use.
* **Process style** -- ``sim.process(generator)`` drives a generator
  that yields delays (an int or float: sleep for that many
  microseconds).  This is what the experiment scripts use for timeline control (e.g.
  "add one write worker every five seconds").

Determinism: events that fire at the same timestamp execute in the
order they were scheduled (a monotonically increasing sequence number
breaks ties), so a run is fully reproducible given its RNG seeds.

Performance: the heap stores plain ``[time, seq, fn, args, True]``
lists, not :class:`Event` objects, so sift comparisons run at C speed
(``seq`` is unique, so ``fn`` is never compared), and the drain loop
used when no probe is attached binds its hot state to locals.  An entry
does not point back at its handle, so a fired handle nobody holds is
freed by refcount.  Entries scheduled without a handle (``at_``,
populations) carry exactly one payload in the ``args`` position --
``[time, seq, fn, payload, None]`` -- and cannot be cancelled, so the
loops fire them bare as ``fn(payload)``: no argument tuple, no
fired-mark.  Cancelled entries are removed lazily on pop; when more
than half the heap is dead the heap is compacted in place.

This is the package's one kernel: every queued entry lives in the
heap, so :attr:`Simulator.pending` and the probe's high-water mark read
the heap alone.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

#: Lazy deletion is compacted away once at least this many cancelled
#: entries linger in the heap *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 512

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule` so it can be cancelled.

    The handle wraps the mutable heap entry ``[time, seq, fn, args,
    True]`` (the last slot tells the loops to fire ``fn(*args)``); a
    ``fn`` of None in the entry marks it fired or cancelled, which is
    what the drain loops skip on.
    """

    __slots__ = ("_entry", "_sim", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self._entry: list = [time, seq, fn, args, True]
        self._sim: Optional["Simulator"] = None
        self.cancelled = False

    @property
    def time(self) -> float:
        return self._entry[0]

    def cancel(self) -> None:
        """Prevent the event from running.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim, self._sim = self._sim, None
        if sim is None:
            return
        entry = self._entry
        if entry[2] is None:
            # Already fired; cancelling afterwards is a no-op.
            return
        entry[2] = None
        entry[3] = None
        # ``Simulator.pending`` is queued entries minus ``_dead``; the
        # dead entry itself is removed lazily (or by compaction, below).
        sim._dead += 1
        if sim._dead >= _COMPACT_MIN_DEAD and sim._dead * 2 > len(sim._heap):
            sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self._entry[2] is None:
            state = "fired"
        else:
            state = "pending"
        fn = self._entry[2]
        return f"Event(t={self.time:.3f}us, {getattr(fn, '__name__', fn)}, {state})"


class Process:
    """Drives a generator that yields delays as a simulation process."""

    __slots__ = ("sim", "_gen", "alive")

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any]):
        self.sim = sim
        self._gen = gen
        self.alive = True
        self._resume()

    def _resume(self) -> None:
        try:
            yielded = next(self._gen)
        except StopIteration:
            self.alive = False
            return
        if isinstance(yielded, (int, float)):
            self.sim.schedule(float(yielded), self._resume)
        else:
            self.alive = False
            raise SimulationError(f"Process yielded unsupported value: {yielded!r}")


class _HeapPopulation:
    """A callback pre-bound for :meth:`Simulator.at_` (see :meth:`Simulator.population`).

    ``add`` is exactly :meth:`Simulator.at_` minus one attribute hop:
    the population holds its callback, so a hot producer passes only
    the time and its one payload.  Population entries cannot be
    cancelled (same contract as ``at_``).  The object is also a seam:
    the rack's shard boundary swaps a session's population for a queue
    that routes each entry across shards.
    """

    __slots__ = ("_sim", "fn", "label")

    def __init__(self, sim: "Simulator", fn: Callable[..., Any], label: Optional[str]):
        self._sim = sim
        self.fn = fn
        self.label = label

    def add(self, time_us: float, payload: Any) -> None:
        """Register one pending completion: ``fn(payload)`` at ``time_us``."""
        sim = self._sim
        if not time_us >= sim.now:
            raise SimulationError(f"Cannot add at t={time_us} before now={sim.now}")
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, [time_us, seq, self.fn, payload, None])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_HeapPopulation({self.label or self.fn!r})"


class Simulator:
    """The event loop: a clock plus a heap of pending events."""

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "_dead",
        "tracer",
        "probe",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Heap of ``[time, seq, fn, args, True]`` entries (handle-less:
        #: ``[time, seq, fn, payload, None]``).
        self._heap: list = []
        self._seq = 0
        self._running = False
        #: Cancelled entries still queued (lazy deletion).
        self._dead = 0
        #: Optional observability hooks (see :mod:`repro.obs`).  Both
        #: default to None.  Scheduling never looks at them; the probe
        #: is fed by the general run loop only.
        self.tracer = None
        self.probe = None
        # Imported here, not at module top, so the kernel has no hard
        # dependency on the observability layer.
        from repro.obs.session import current_session

        session = current_session()
        if session is not None:
            session.attach_simulator(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay_us`` microseconds of simulated time."""
        if not delay_us >= 0:
            raise SimulationError(f"Cannot schedule {delay_us}us in the past")
        self._seq = seq = self._seq + 1
        event = Event(self.now + delay_us, seq, fn, args)
        event._sim = self
        heappush(self._heap, event._entry)
        return event

    def at(self, time_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time_us``."""
        if not time_us >= self.now:
            raise SimulationError(f"Cannot schedule at t={time_us} before now={self.now}")
        self._seq = seq = self._seq + 1
        event = Event(time_us, seq, fn, args)
        event._sim = self
        heappush(self._heap, event._entry)
        return event

    def at_(self, time_us: float, fn: Callable[[Any], Any], payload: Any) -> None:
        """Run ``fn(payload)`` at ``time_us``; returns no handle, so it
        cannot be cancelled.

        The datapath schedules five events per IO, never cancels any
        of them, and each carries one thing (the request).  With no
        handle there is nothing a late cancel could reach, so the entry
        skips the Event bookkeeping at both ends: no handle and no
        argument tuple here, and the run loops fire it bare
        (``fn(payload)``: no unpacking, no fired-mark).  A callback that
        needs no argument or several takes :meth:`at`.  Firing order is
        identical to :meth:`at`: the same sequence counter breaks
        timestamp ties.  Like every entry point, it refuses a time
        before ``now`` -- NaN included.
        """
        if not time_us >= self.now:
            raise SimulationError(f"Cannot schedule at t={time_us} before now={self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, [time_us, seq, fn, payload, None])

    def population(self, fn: Callable[..., Any], *, label: Optional[str] = None):
        """Pre-bind ``fn`` for a producer of never-cancelled completions.

        A population is a producer that schedules many never-cancelled
        completions of one callback -- NAND page completions, link
        wire-delay deliveries, closed-loop session resubmits.  It costs
        what ``at_`` costs and fires in the same order; the producer
        just stops passing ``fn`` on every call.

        Returns an object with ``add(time_us, payload)``; each entry
        fires ``fn(payload)`` in exact ``(time, seq)`` order interleaved
        with the heap.
        """
        return _HeapPopulation(self, fn, label)

    def process(self, gen: Generator[Any, Any, Any]) -> Process:
        """Start a generator-based process (see module docstring)."""
        return Process(self, gen)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_us: Optional[float] = None) -> float:
        """Run until the heap drains or ``until_us`` is reached.

        Events scheduled exactly at ``until_us`` do execute.  On return
        the clock is advanced to ``until_us`` when a deadline was given
        (even if the heap drained earlier), matching wall-clock style
        measurement windows.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        probe = self.probe
        fired = 0
        if probe is not None:
            probe.begin_run(self.now)
        try:
            if probe is None:
                self._drain_fast(until_us)
            else:
                fired = self._advance(until_us, probe)
            # Advance to the deadline inside the try (not in the
            # finally) so a callback exception leaves the clock at the
            # failing event while the probe still accounts the full
            # window on success.
            if until_us is not None and self.now < until_us:
                self.now = until_us
        finally:
            self._running = False
            if probe is not None:
                probe.end_run(self.now, fired)
        return self.now

    def _advance(self, until_us: Optional[float], probe) -> int:
        """The probed loop: :meth:`_drain_fast` plus probe accounting.

        Returns the number of events fired.  The probe's heap
        high-water mark is sampled here rather than reported by the
        scheduling calls: depth only grows between one pop and the
        next, so a sample at the top of every iteration (and one at
        exit) sees every peak a per-push check would.
        """
        heap = self._heap
        until = _INF if until_us is None else until_us
        fired = 0
        while True:
            if len(heap) > probe.heap_high_water:
                probe.heap_high_water = len(heap)
            if not heap:
                return fired
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > until:
                return fired
            heappop(heap)
            self.now = entry[0]
            probe.count_fire(fn)
            fired += 1
            if entry[4] is None:
                fn(entry[3])
                continue
            args = entry[3]
            entry[2] = None
            entry[3] = None
            fn(*args)

    def _drain_fast(self, until_us: Optional[float]) -> None:
        """The hot loop: no probe, locals bound."""
        heap = self._heap
        until = _INF if until_us is None else until_us
        while heap:
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                self._dead -= 1
                continue
            time_us = entry[0]
            if time_us > until:
                break
            heappop(heap)
            self.now = time_us
            if entry[4] is None:
                # No handle (at_, populations): one payload, and
                # nothing can cancel the entry late, so it fires bare.
                fn(entry[3])
                continue
            args = entry[3]
            # Mark fired *before* the callback so a late cancel (or a
            # cancel after a callback exception) is a no-op.
            entry[2] = None
            entry[3] = None
            fn(*args)

    def _note_depth(self) -> None:
        """Sample the queue depth into the probe ahead of a shrink the
        run loop does not see (compaction, a prune between runs)."""
        probe = self.probe
        if probe is not None:
            depth = len(self._heap)
            if depth > probe.heap_high_water:
                probe.heap_high_water = depth

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: the drain loops alias ``self._heap`` in a
        local, so compaction triggered by a ``cancel()`` inside a
        running callback must mutate the same list object.
        """
        self._note_depth()
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._dead -= before - len(heap)

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._heap) - self._dead

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None when idle.

        Prunes cancelled entries off the heap head as a side effect, so
        repeated calls stay O(1) amortised.  The sharded window driver
        (:mod:`repro.sim.shard`) uses this as the conservative bound on
        when this kernel can next affect another shard.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                self._note_depth()
                heappop(heap)
                self._dead -= 1
                continue
            return entry[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}us, pending={self.pending})"


#: Imported by ``benchmarks/ledger/run.py`` only; ROADMAP item 1 deletes it.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"
