"""Ordering oracle for the event kernel.

Randomized programs mix population and bare ``at_`` completions
(closed-loop re-adds included), cancellable ``at`` events and their
cancellations, and self-rescheduling timers, run in deadline slices
(``until_us``) before a final drain.  Every entry the program schedules is
numbered in scheduling order, which is the order of the kernel's
``seq``; an independent model of what the kernel promises then checks
each fire and each slice:

* fired entries have nondecreasing time, and same-time entries fire
  in scheduling order -- together, ``(time, number)`` strictly
  increases along the fire log -- each at exactly its scheduled time;
* a cancelled entry never fires, and every other one fires exactly
  once by the end of the run;
* a slice fires nothing after its deadline and leaves no live entry
  due at or before it, and the clock lands on the deadline (or stays
  put when the deadline is already behind it);
* ``pending`` equals a count of the live heap entries after every
  slice.

A second property pins the probe's heap high-water mark, which the run
loops sample at event boundaries, to a tracker that reads the queue
depth after every single push.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.probe import KernelProbe
from repro.sim.engine import Simulator


#: Times come from a coarse grid so exact timestamp ties are common --
#: ties are where (time, seq) ordering bugs live.
def grid_times(max_steps=200):
    return st.integers(min_value=0, max_value=max_steps).map(lambda n: n * 0.5)


program_strategy = st.fixed_dictionaries(
    {
        "npops": st.integers(min_value=1, max_value=3),
        # (pop index, time, hops): hops > 0 re-adds closed-loop.
        "entries": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                grid_times(),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=120,
        ),
        # Cancellable at() events: (time, tag).
        "at_events": st.lists(
            st.tuples(grid_times(), st.integers(min_value=0, max_value=99)),
            min_size=1,
            max_size=10,
        ),
        # (time, victim index): cancel at_events[victim] at `time`.
        "cancels": st.lists(
            st.tuples(grid_times(), st.integers(min_value=0, max_value=9)),
            max_size=4,
        ),
        # Self-rescheduling timers: (start, period, count).
        "timers": st.lists(
            st.tuples(
                grid_times(50),
                st.integers(min_value=1, max_value=8).map(lambda n: n * 0.5),
                st.integers(min_value=1, max_value=10),
            ),
            max_size=4,
        ),
        # Deadlines of partial runs ahead of the final drain.
        "slices": st.lists(grid_times(120), max_size=4),
    }
)


class Oracle:
    """What the program scheduled, and what the kernel has fired."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Entry number -> scheduled time; numbers follow scheduling order.
        self.due = {}
        #: Entries cancelled before they fired.
        self.cancelled = set()
        #: ``(time, number)`` in firing order.
        self.log = []
        self.fired = set()
        #: The running slice's deadline (None on the final drain).
        self.until = None

    def number(self, time_us: float) -> int:
        """Number the entry about to be scheduled at ``time_us``."""
        ident = len(self.due)
        self.due[ident] = time_us
        return ident

    def fire(self, ident: int) -> None:
        now = self.sim.now
        assert ident not in self.cancelled, f"cancelled entry {ident} fired"
        assert now == self.due[ident], f"entry {ident} fired at {now}, due {self.due[ident]}"
        assert self.until is None or now <= self.until, "fired past the slice's deadline"
        if self.log:
            assert (now, ident) > self.log[-1], f"{(now, ident)} fired after {self.log[-1]}"
        self.log.append((now, ident))
        self.fired.add(ident)

    def cancel(self, ident: int, event) -> None:
        if ident not in self.fired:
            self.cancelled.add(ident)
        event.cancel()

    def live_times(self):
        return [entry[0] for entry in self.sim._heap if entry[2] is not None]


def run_program(program) -> Oracle:
    sim = Simulator()
    oracle = Oracle(sim)

    def complete(add, payload):
        ident, hops = payload
        oracle.fire(ident)
        if hops > 0:
            # Closed-loop re-add, as a session resubmits.
            time_us = sim.now + 0.5 * hops
            add(time_us, (oracle.number(time_us), hops - 1))

    # One add per population; entries aimed past the drawn populations
    # take bare ``at_`` instead.
    adds = []
    for index in range(program["npops"]):
        pop = sim.population(lambda payload, i=index: complete(adds[i], payload))
        adds.append(pop.add)

    def fire_at(payload):
        complete(at_add, payload)

    def at_add(time_us, payload):
        sim.at_(time_us, fire_at, payload)

    for pop_index, time_us, hops in program["entries"]:
        add = adds[pop_index] if pop_index < len(adds) else at_add
        add(time_us, (oracle.number(time_us), hops))

    events = []
    for time_us, _tag in program["at_events"]:
        ident = oracle.number(time_us)
        events.append((ident, sim.at(time_us, oracle.fire, ident)))

    for time_us, victim in program["cancels"]:
        def cancel(ident, victim=victim):
            oracle.fire(ident)
            oracle.cancel(*events[victim % len(events)])

        sim.at(time_us, cancel, oracle.number(time_us))

    for start_us, period_us, count in program["timers"]:
        def tick(ident, remaining, period_us=period_us):
            oracle.fire(ident)
            if remaining > 0:
                sim.schedule(period_us, tick, oracle.number(sim.now + period_us), remaining - 1)

        sim.schedule(start_us, tick, oracle.number(start_us), count)

    for until_us in program["slices"]:
        before = sim.now
        oracle.until = until_us
        sim.run(until_us=until_us)
        live = oracle.live_times()
        assert all(time_us > until_us for time_us in live), "a due entry outlived its slice"
        assert sim.now == max(before, until_us)
        assert sim.pending == len(live)
    oracle.until = None
    sim.run()
    assert sim.pending == 0 == len(oracle.live_times())
    assert oracle.fired == set(oracle.due) - oracle.cancelled
    return oracle


@settings(max_examples=60, deadline=None)
@given(program=program_strategy)
def test_programs_fire_in_oracle_order(program):
    run_program(program)


# ----------------------------------------------------------------------
# Heap high-water: sampled at event boundaries == tracked at every push
# ----------------------------------------------------------------------
tracked_program = st.fixed_dictionaries(
    {
        # Population entries registered up front.
        "burst": st.integers(min_value=0, max_value=150),
        # (kind, delay in half-microseconds, pushes the callback makes).
        "ops": st.lists(
            st.tuples(
                st.sampled_from(["schedule", "at", "at_", "pop", "cancel"]),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=80,
        ),
        "upfront": st.integers(min_value=1, max_value=20),
        # How the program is driven: deadline slices, with pushes and
        # next_event_time() peeks between them.
        "drive": st.lists(
            st.one_of(
                st.tuples(st.just("run"), grid_times(60), st.just(0)),
                st.tuples(st.just("peek"), st.just(0.0), st.just(0)),
                st.tuples(st.just("push"), st.just(0.0), st.integers(1, 5)),
            ),
            max_size=6,
        ),
    }
)


def run_tracked(program):
    """Run ``program`` under a probe; return (probe mark, tracker mark).

    The tracker is the per-push definition: the deepest the queue has
    been, read right after every scheduling call wherever it is made
    (set-up, between runs, inside callbacks).
    """
    sim = Simulator()
    probe = KernelProbe()
    sim.probe = probe
    todo = list(reversed(program["ops"]))
    handles = []
    peak = 0

    def push(count):
        nonlocal peak
        for _ in range(count):
            if not todo:
                return
            kind, steps, fanout = todo.pop()
            delay = steps * 0.5
            if kind == "schedule":
                handles.append(sim.schedule(delay, push, fanout))
            elif kind == "at":
                handles.append(sim.at(sim.now + delay, push, fanout))
            elif kind == "at_":
                sim.at_(sim.now + delay, push, fanout)
            elif kind == "pop":
                pop.add(sim.now + delay, fanout)
            elif handles:
                handles[steps % len(handles)].cancel()
            peak = max(peak, len(sim._heap))

    pop = sim.population(push)
    for index in range(program["burst"]):
        pop.add(5.0 + index * 0.5, 0)
        peak = max(peak, len(sim._heap))
    push(program["upfront"])
    for verb, until_us, count in program["drive"]:
        if verb == "run":
            sim.run(until_us=sim.now + until_us)
        elif verb == "peek":
            sim.next_event_time()
        else:
            push(count)
    sim.run()
    assert sim.pending == 0
    return probe.heap_high_water, peak


@settings(max_examples=60, deadline=None)
@given(program=tracked_program)
def test_high_water_matches_per_push_tracker(program):
    sampled, tracked = run_tracked(program)
    assert sampled == tracked
