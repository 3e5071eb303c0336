"""Property suite: the batch backend is byte-identical to the reference.

Randomized programs mix per-event population completions, plain heap
timers, cancellable events, and ``any_of`` relays, then run under both
kernel backends; the JSON-encoded journals of every fired event (and
the final clock/pending state) must match byte for byte.

Programs are drawn large enough to cross the batch backend's window
machinery (deep backlogs), small enough to exercise the small-backlog
heap spill, and closed-loop enough to hit undercuts (completions
registered below the active window's ceiling).  Each program is run in
capped slices (``until_us`` and ``max_events`` together) before its
final drain, so the backends must also agree on where a cap leaves the
clock.

A second property pins the probe's heap high-water mark, which the run
loops sample at event boundaries, to a tracker that reads the queue
depth after every single push.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import KernelProbe
from repro.sim import Simulator, any_of

BatchSimulator = pytest.importorskip(
    "repro.sim.batch", reason="batch backend requires numpy"
).BatchSimulator


#: Times come from a coarse grid so exact timestamp ties are common --
#: ties are where (time, seq) ordering bugs live.
def grid_times(max_steps=200):
    return st.integers(min_value=0, max_value=max_steps).map(lambda n: n * 0.5)


program_strategy = st.fixed_dictionaries(
    {
        "npops": st.integers(min_value=1, max_value=3),
        # (pop index, time, payload): payload > 0 re-adds closed-loop.
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
        # any_of relays racing two timed triggers.
        "relays": st.lists(
            st.tuples(grid_times(), grid_times()),
            max_size=3,
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
        # Capped partial runs ahead of the final drain:
        # (until_us, max_events).
        "slices": st.lists(
            st.tuples(grid_times(120), st.integers(min_value=0, max_value=40)),
            max_size=4,
        ),
    }
)


def run_program(make_sim, program) -> bytes:
    sim = make_sim()
    journal = []
    pops = []

    def make_callback(index):
        def complete(payload):
            journal.append(("pop", index, round(sim.now, 6), payload))
            if payload > 0:
                # Closed-loop re-add: lands inside the active window
                # often enough to exercise the undercut path.
                pops[index].add(sim.now + 0.5 * payload, payload - 1)

        return complete

    for index in range(program["npops"]):
        pops.append(sim.population(make_callback(index), label=f"p{index}"))
    for pop_index, time_us, payload in program["entries"]:
        pops[pop_index % program["npops"]].add(time_us, payload)

    events = []
    for time_us, tag in program["at_events"]:
        def fire(tag=tag):
            journal.append(("at", round(sim.now, 6), tag))

        events.append(sim.at(time_us, fire))

    for time_us, victim in program["cancels"]:
        def cancel(victim=victim):
            event = events[victim % len(events)]
            journal.append(("cancel", round(sim.now, 6), victim, event.cancelled))
            if not event.cancelled:
                event.cancel()

        sim.at(time_us, cancel)

    for first_us, second_us in program["relays"]:
        def relay(first_us=first_us, second_us=second_us):
            left = sim.waiter()
            right = sim.waiter()
            sim.at(first_us, left.trigger, "L")
            sim.at(second_us, right.trigger, "R")
            winner = yield any_of(sim, [left, right])
            journal.append(("relay", round(sim.now, 6), winner))

        sim.process(relay())

    for start_us, period_us, count in program["timers"]:
        def tick(remaining, period_us=period_us):
            journal.append(("tick", round(sim.now, 6), remaining))
            if remaining > 0:
                sim.schedule(period_us, tick, remaining - 1)

        sim.schedule(start_us, tick, count)

    for until_us, cap in program["slices"]:
        sim.run(until_us=until_us, max_events=cap)
        journal.append(("slice", round(sim.now, 6), sim.pending))
    sim.run()
    journal.append(("end", round(sim.now, 6), sim.pending))
    return json.dumps(journal).encode()


@settings(max_examples=40, deadline=None)
@given(program=program_strategy)
def test_backend_journals_identical(program):
    assert run_program(Simulator, program) == run_program(BatchSimulator, program)


@settings(max_examples=15, deadline=None)
@given(
    program=program_strategy,
    until=grid_times(100),
    budget=st.integers(min_value=1, max_value=50),
)
def test_backend_partial_runs_identical(program, until, budget):
    """run(until)/run(max_events) stop at the same point on both."""

    def run_partial(make_sim):
        sim = make_sim()
        pops = [
            sim.population(lambda p, i=i: None, label=f"p{i}")
            for i in range(program["npops"])
        ]
        for pop_index, time_us, payload in program["entries"]:
            pops[pop_index % program["npops"]].add(time_us, payload)
        sim.run(until_us=until)
        first = (sim.now, sim.pending)
        sim.run(max_events=budget)
        second = (sim.now, sim.pending)
        sim.run(until_us=sim.now + until, max_events=budget)
        third = (sim.now, sim.pending)
        sim.run()
        return (first, second, third, sim.now, sim.pending)

    assert run_partial(Simulator) == run_partial(BatchSimulator)


# ----------------------------------------------------------------------
# Heap high-water: sampled at event boundaries == tracked at every push
# ----------------------------------------------------------------------
tracked_program = st.fixed_dictionaries(
    {
        # Population entries registered up front; large draws cross the
        # batch backend's staging threshold, small ones spill to the heap.
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
        # How the program is driven: capped/deadlined slices, single
        # steps and next_event_time() peeks between them.
        "drive": st.lists(
            st.one_of(
                st.tuples(st.just("run"), grid_times(60), st.integers(0, 30)),
                st.tuples(st.just("step"), st.just(0.0), st.just(0)),
                st.tuples(st.just("peek"), st.just(0.0), st.just(0)),
                st.tuples(st.just("push"), st.just(0.0), st.integers(1, 5)),
            ),
            max_size=6,
        ),
    }
)


def run_tracked(make_sim, program):
    """Run ``program`` under a probe; return (probe mark, tracker mark).

    The tracker is the per-push definition: the deepest the queue has
    been, read right after every scheduling call wherever it is made
    (set-up, between runs, inside callbacks).
    """
    sim = make_sim()
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
            peak = max(peak, len(sim._heap) + sim._offheap)

    pop = sim.population(push)
    for index in range(program["burst"]):
        pop.add(5.0 + index * 0.5, 0)
        peak = max(peak, len(sim._heap) + sim._offheap)
    push(program["upfront"])
    for verb, until_us, count in program["drive"]:
        if verb == "run":
            sim.run(until_us=sim.now + until_us, max_events=count or None)
        elif verb == "step":
            sim.step()
        elif verb == "peek":
            sim.next_event_time()
        else:
            push(count)
    sim.run()
    assert sim.pending == 0
    return probe.heap_high_water, peak


@settings(max_examples=60, deadline=None)
@given(program=tracked_program)
@pytest.mark.parametrize("make_sim", [Simulator, BatchSimulator])
def test_high_water_matches_per_push_tracker(make_sim, program):
    sampled, tracked = run_tracked(make_sim, program)
    assert sampled == tracked


@settings(max_examples=40, deadline=None)
@given(program=tracked_program)
def test_high_water_identical_across_backends_without_cancels(program):
    """With nothing cancelled both backends queue the same entries at
    every instant (cancelled ones are pruned at backend-specific
    moments), so the two marks are the same number."""
    program = dict(program, ops=[op for op in program["ops"] if op[0] != "cancel"])
    if not program["ops"]:
        program["ops"] = [("at_", 1, 0)]
    assert run_tracked(Simulator, program)[0] == run_tracked(BatchSimulator, program)[0]
