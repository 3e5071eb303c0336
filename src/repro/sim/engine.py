"""Event loop for the discrete-event simulation.

The :class:`Simulator` owns the clock and an event heap.  Components
never sleep or poll; they schedule callbacks.  Two programming styles
are supported:

* **Callback style** -- ``sim.schedule(delay_us, fn, *args)`` runs
  ``fn(*args)`` after ``delay_us`` microseconds.  This is what the
  device and fabric models use.
* **Process style** -- ``sim.process(generator)`` drives a generator
  that yields either a float (sleep for that many microseconds) or a
  :class:`Waiter` (park until someone triggers it).  This is what the
  experiment scripts use for timeline control (e.g. "add one write
  worker every five seconds").

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

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def fn(self):
        return self._entry[2]

    @property
    def args(self):
        return self._entry[3]

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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self._entry[2] is None:
            state = "fired"
        else:
            state = "pending"
        fn = self._entry[2]
        return f"Event(t={self.time:.3f}us, {getattr(fn, '__name__', fn)}, {state})"


class Waiter:
    """A one-shot synchronisation point for process-style code.

    A process yields a ``Waiter`` to park itself; another component
    calls :meth:`trigger` to resume the process, optionally passing a
    value that becomes the result of the ``yield`` expression.
    """

    __slots__ = ("_process", "_triggered", "_value")

    def __init__(self) -> None:
        self._process: Optional["Process"] = None
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    def trigger(self, value: Any = None) -> None:
        """Resume the process waiting on this waiter (if any)."""
        if self._triggered:
            raise SimulationError("Waiter triggered twice")
        self._triggered = True
        self._value = value
        if self._process is not None:
            process, self._process = self._process, None
            process._resume(value)

    def detach(self, process: "Process") -> None:
        """Drop ``process``'s parked-waiter back-reference, if it is ours.

        Called by :meth:`Process.stop` so a stopped process does not
        linger as this waiter's resume target (and the waiter does not
        keep the dead process alive).
        """
        if self._process is process:
            self._process = None


def all_of(sim: "Simulator", waiters: list) -> Waiter:
    """A waiter that triggers once every input waiter has triggered.

    The resume value is the list of the inputs' values in order.
    """
    combined = Waiter()
    remaining = {"count": len(waiters)}
    values = [None] * len(waiters)
    if not waiters:
        combined.trigger([])
        return combined
    for index, waiter in enumerate(waiters):
        def chain(value, index=index):
            values[index] = value
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.trigger(values)

        _attach(sim, waiter, chain)
    return combined


def any_of(sim: "Simulator", waiters: list) -> Waiter:
    """A waiter that triggers when the first input triggers.

    The resume value is ``(index, value)`` of the winner; later
    triggers of the other inputs are ignored.  The losing relays are
    stopped as soon as the winner fires, so inputs that never trigger
    do not keep parked relay processes alive for the rest of the run.
    """
    if not waiters:
        raise SimulationError("any_of needs at least one waiter")
    combined = Waiter()
    relays: list = []

    def chain(value, index):
        if combined.triggered:
            return
        combined.trigger((index, value))
        for loser, relay in enumerate(relays):
            if loser != index and relay is not None:
                relay.stop()

    for index, waiter in enumerate(waiters):
        relays.append(
            _attach(sim, waiter, lambda value, index=index: chain(value, index))
        )
    return combined


def _attach(sim: "Simulator", waiter: Waiter, callback) -> Optional["Process"]:
    """Run ``callback(value)`` when ``waiter`` triggers.

    Returns the relay process parked on ``waiter``, or None when the
    waiter had already triggered (the callback is simply scheduled).
    """
    if waiter.triggered:
        sim.schedule(0.0, callback, waiter._value)
        return None

    def relay():
        value = yield waiter
        callback(value)

    return Process(sim, relay())


class Process:
    """Drives a generator as a cooperative simulation process."""

    __slots__ = ("sim", "_gen", "alive", "_pending_event", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any]):
        self.sim = sim
        self._gen = gen
        self.alive = True
        self._pending_event: Optional[Event] = None
        self._waiting_on: Optional[Waiter] = None
        self._resume(None)

    def stop(self) -> None:
        """Terminate the process without running it further."""
        if not self.alive:
            return
        self.alive = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            self._waiting_on.detach(self)
            self._waiting_on = None
        self._gen.close()

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            yielded = self._gen.send(value)
        except StopIteration:
            self.alive = False
            return
        if isinstance(yielded, Waiter):
            if yielded.triggered:
                # Already satisfied; resume on the next event boundary so
                # we do not recurse unboundedly through ready waiters.
                self._pending_event = self.sim.schedule(0.0, self._resume, yielded._value)
            else:
                yielded._process = self
                self._waiting_on = yielded
        elif isinstance(yielded, (int, float)):
            self._pending_event = self.sim.schedule(float(yielded), self._resume, None)
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

    def waiter(self) -> Waiter:
        """Create a fresh :class:`Waiter` for process-style synchronisation."""
        return Waiter()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain.

        Like :meth:`run`, stepping is not reentrant: calling it from
        inside an executing event callback would corrupt the loop.
        """
        if self._running:
            raise SimulationError("Simulator.step() is not reentrant")
        self._running = True
        try:
            return self._advance(None, 1, self.probe) > 0
        finally:
            self._running = False

    def run(self, until_us: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until_us`` is reached, or ``max_events`` fire.

        Events scheduled exactly at ``until_us`` do execute.  On return
        the clock is advanced to ``until_us`` when a deadline was given
        (even if the heap drained earlier), matching wall-clock style
        measurement windows -- unless ``max_events`` stopped the run
        with a live event at or before the deadline still queued: the
        clock never passes an event that has yet to fire.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        probe = self.probe
        fired = 0
        if probe is not None:
            probe.begin_run(self.now)
        try:
            if probe is None and max_events is None:
                self._drain_fast(until_us)
            else:
                fired = self._advance(until_us, max_events, probe)
            # Advance to the deadline inside the try (not in the
            # finally) so a callback exception leaves the clock at the
            # failing event while the probe still accounts the full
            # window on success.
            if until_us is not None and self.now < until_us:
                # Only an event cap can leave due work behind.
                due = None if max_events is None else self.next_event_time()
                if due is None or due > until_us:
                    self.now = until_us
        finally:
            self._running = False
            if probe is not None:
                probe.end_run(self.now, fired)
        return self.now

    def _advance(
        self, until_us: Optional[float], max_events: Optional[int], probe
    ) -> int:
        """The general loop: deadline, event cap, optional probe.

        Returns the number of events fired.  The probe's heap
        high-water mark is sampled here rather than reported by the
        scheduling calls: depth only grows between one pop and the
        next, so a sample at the top of every iteration (and one at
        exit) sees every peak a per-push check would.
        """
        heap = self._heap
        until = _INF if until_us is None else until_us
        budget = _INF if max_events is None else max_events
        fired = 0
        while True:
            if probe is not None and len(heap) > probe.heap_high_water:
                probe.heap_high_water = len(heap)
            if not heap or fired >= budget:
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
            if probe is not None:
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
        """The hot loop: no probe, no event cap, locals bound."""
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


#: Imported by ``benchmarks/ledger/run.py`` only; ROADMAP item 1a deletes it.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"
