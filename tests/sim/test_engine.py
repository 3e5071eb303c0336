"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import gc
import math

import pytest

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_delay(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_at_runs_callback_at_absolute_time(self, sim):
        fired = []
        sim.at(12.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.5]

    def test_callback_args_are_passed(self, sim):
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for name in "abcde":
            sim.schedule(7.0, order.append, name)
        sim.run()
        assert order == list("abcde")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.at(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(2.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep is not drop


class TestRunBounds:
    def test_run_until_stops_clock_at_deadline(self, sim):
        sim.schedule(100.0, lambda: None)
        sim.run(until_us=50.0)
        assert sim.now == 50.0
        assert sim.pending == 1

    def test_event_exactly_at_deadline_fires(self, sim):
        fired = []
        sim.schedule(50.0, lambda: fired.append(1))
        sim.run(until_us=50.0)
        assert fired == [1]

    def test_run_advances_to_deadline_even_when_heap_empty(self, sim):
        sim.run(until_us=123.0)
        assert sim.now == 123.0

    def test_run_resumes_after_deadline(self, sim):
        fired = []
        sim.schedule(100.0, lambda: fired.append(sim.now))
        sim.run(until_us=50.0)
        sim.run(until_us=150.0)
        assert fired == [100.0]

    def test_max_events_bound(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_one_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]


class TestProcesses:
    def test_process_sleeps(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield 10.0
            trace.append(sim.now)
            yield 5.0
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 10.0, 15.0]

    def test_process_waits_on_waiter(self, sim):
        trace = []
        waiter = sim.waiter()

        def proc():
            value = yield waiter
            trace.append((sim.now, value))

        sim.process(proc())
        sim.schedule(42.0, waiter.trigger, "done")
        sim.run()
        assert trace == [(42.0, "done")]

    def test_already_triggered_waiter_resumes_promptly(self, sim):
        waiter = sim.waiter()
        waiter.trigger("early")
        trace = []

        def proc():
            value = yield waiter
            trace.append(value)

        sim.process(proc())
        sim.run()
        assert trace == ["early"]

    def test_waiter_double_trigger_rejected(self, sim):
        waiter = sim.waiter()
        waiter.trigger()
        with pytest.raises(SimulationError):
            waiter.trigger()

    def test_process_stop_prevents_resumption(self, sim):
        trace = []

        def proc():
            yield 10.0
            trace.append("should not happen")

        process = sim.process(proc())
        process.stop()
        sim.run()
        assert trace == []
        assert not process.alive

    def test_process_finishes_naturally(self, sim):
        def proc():
            yield 1.0

        process = sim.process(proc())
        sim.run()
        assert not process.alive

    def test_process_rejects_bad_yield(self, sim):
        def proc():
            yield "nonsense"

        with pytest.raises(SimulationError):
            sim.process(proc())
            sim.run()


class TestDeterminism:
    def test_two_identical_runs_interleave_identically(self):
        def build():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule((i * 7) % 13 + 0.5, order.append, i)
            sim.run()
            return order

        assert build() == build()


class TestWaiterCombinators:
    def test_all_of_waits_for_everyone(self, sim):
        from repro.sim.engine import all_of

        waiters = [sim.waiter() for _ in range(3)]
        got = []

        def proc():
            values = yield all_of(sim, waiters)
            got.append((sim.now, values))

        sim.process(proc())
        sim.schedule(10.0, waiters[0].trigger, "a")
        sim.schedule(30.0, waiters[2].trigger, "c")
        sim.schedule(20.0, waiters[1].trigger, "b")
        sim.run()
        assert got == [(30.0, ["a", "b", "c"])]

    def test_all_of_empty_is_immediate(self, sim):
        from repro.sim.engine import all_of

        got = []

        def proc():
            values = yield all_of(sim, [])
            got.append(values)

        sim.process(proc())
        sim.run()
        assert got == [[]]

    def test_any_of_triggers_on_first(self, sim):
        from repro.sim.engine import any_of

        waiters = [sim.waiter() for _ in range(3)]
        got = []

        def proc():
            winner = yield any_of(sim, waiters)
            got.append((sim.now, winner))

        sim.process(proc())
        sim.schedule(20.0, waiters[0].trigger, "slow")
        sim.schedule(5.0, waiters[1].trigger, "fast")
        sim.run()
        assert got == [(5.0, (1, "fast"))]

    def test_any_of_ignores_later_triggers(self, sim):
        from repro.sim.engine import any_of

        waiters = [sim.waiter(), sim.waiter()]
        combined = any_of(sim, waiters)
        waiters[0].trigger("first")
        waiters[1].trigger("second")
        sim.run()
        assert combined.triggered

    def test_any_of_empty_rejected(self, sim):
        from repro.sim.engine import any_of
        from repro.sim.engine import SimulationError as SimError

        with pytest.raises(SimError):
            any_of(sim, [])

    def test_all_of_with_pretriggered_waiter(self, sim):
        from repro.sim.engine import all_of

        ready = sim.waiter()
        ready.trigger("early")
        pending = sim.waiter()
        got = []

        def proc():
            values = yield all_of(sim, [ready, pending])
            got.append(values)

        sim.process(proc())
        sim.schedule(7.0, pending.trigger, "late")
        sim.run()
        assert got == [["early", "late"]]

    def test_any_of_stops_loser_relays(self, sim):
        """Regression: losing relay processes used to stay parked on
        their waiters forever after the winner fired."""
        from repro.sim.engine import any_of

        waiters = [sim.waiter() for _ in range(3)]
        combined = any_of(sim, waiters)
        sim.schedule(5.0, waiters[1].trigger, "fast")
        sim.run()
        assert combined.triggered
        # The losing waiters no longer hold a parked relay...
        assert waiters[0]._process is None
        assert waiters[2]._process is None
        # ...so a late trigger is inert rather than a double-resume.
        waiters[0].trigger("late")
        sim.run()
        assert combined._value == (1, "fast")

    def test_any_of_leaves_no_pending_events_after_winner(self, sim):
        from repro.sim.engine import any_of

        waiters = [sim.waiter() for _ in range(4)]
        any_of(sim, waiters)
        sim.schedule(1.0, waiters[0].trigger, "win")
        sim.run()
        assert sim.pending == 0


class TestProcessWaiterDetach:
    def test_stop_detaches_parked_process(self, sim):
        waiter = sim.waiter()

        def proc():
            yield waiter

        process = sim.process(proc())
        assert waiter._process is process
        process.stop()
        assert waiter._process is None

    def test_trigger_after_stop_is_inert(self, sim):
        trace = []
        waiter = sim.waiter()

        def proc():
            value = yield waiter
            trace.append(value)

        process = sim.process(proc())
        process.stop()
        waiter.trigger("ghost")
        sim.run()
        assert trace == []

    def test_detach_ignores_foreign_process(self, sim):
        waiter = sim.waiter()

        def parked():
            yield waiter

        def unrelated():
            yield 100.0

        owner = sim.process(parked())
        other = sim.process(unrelated())
        waiter.detach(other)
        assert waiter._process is owner


class TestLazyDeletion:
    """Regression: interleaving Event.cancel() with bounded runs must
    keep the O(1) ``pending`` counter exactly equal to the heap's live
    ground truth (cancelled entries are removed lazily on pop or by
    compaction, and must be accounted exactly once)."""

    @staticmethod
    def _ground_truth(sim):
        return sum(1 for e in sim._heap if e[2] is not None)

    def test_cancel_interleaved_with_bounded_runs(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(40)]
        for deadline in (5.0, 10.0, 15.0, 20.0):
            # Cancel a mix of already-fired, in-window and future events.
            for index in (int(deadline) - 3, int(deadline) + 2, int(deadline) + 11):
                if 0 <= index < len(events):
                    events[index].cancel()
            sim.run(until_us=deadline)
            assert sim.pending == self._ground_truth(sim)
        sim.run()
        assert sim.pending == 0
        assert sim._dead == 0

    def test_cancel_from_inside_callback_keeps_pending_exact(self, sim):
        events = []

        def cancel_some():
            for event in events[10:20]:
                event.cancel()

        events.extend(sim.schedule(float(i + 5), lambda: None) for i in range(30))
        sim.schedule(1.0, cancel_some)
        sim.run(until_us=2.0)
        assert sim.pending == self._ground_truth(sim)
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_during_run_decrements_once(self, sim):
        target = sim.schedule(50.0, lambda: None)
        sim.schedule(1.0, target.cancel)
        sim.schedule(2.0, target.cancel)
        sim.schedule(60.0, lambda: None)
        sim.run(until_us=10.0)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_mass_cancellation_compacts_heap(self, sim):
        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        drop = [sim.schedule(1000.0 + i, lambda: None) for i in range(2000)]
        for event in drop:
            event.cancel()
        # Compaction kicked in once the dead entries outnumbered the
        # live ones: far fewer than the 2000 cancelled entries linger,
        # and the residue stays below the compaction trigger.
        assert len(sim._heap) < len(keep) + 600
        assert sim._dead < 512
        assert sim.pending == 10
        assert sim.pending == self._ground_truth(sim)
        fired = []
        sim.schedule(0.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.pending == 0


class TestHandleLifetime:
    """A handle lives exactly as long as someone holds it: the heap entry
    does not point back at it, and nothing recycles it."""

    def test_cancel_after_fire_through_a_held_handle_is_a_noop(self, sim):
        fired = []
        held = sim.schedule(1.0, fired.append, "held")
        sim.run()
        sim.schedule(5.0, fired.append, "later")
        # The late cancel reaches the fired entry only, never the event
        # scheduled after it.
        held.cancel()
        assert sim.pending == 1
        sim.run()
        assert fired == ["held", "later"]
        assert sim.pending == 0

    def test_fired_unreferenced_handles_do_not_survive_the_run(self, sim):
        def live_events():
            return sum(1 for obj in gc.get_objects() if isinstance(obj, Event))

        gc.collect()
        before = live_events()
        gc.disable()
        try:
            for i in range(50):
                sim.schedule(float(i), lambda: None)
            held = sim.at(100.0, lambda: None)
            sim.run()
            # Refcount alone frees them: no free list holds them and no
            # entry <-> handle cycle waits for the collector.
            assert live_events() == before + 1
            assert held.cancelled is False
        finally:
            gc.enable()


class TestReentrancy:
    def test_step_inside_callback_raises(self, sim):
        errors = []

        def reenter():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(errors) == 1
        assert "reentrant" in errors[0]

    def test_step_inside_step_raises(self, sim):
        errors = []

        def reenter():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        assert sim.step() is True
        assert len(errors) == 1

    def test_run_inside_callback_raises(self, sim):
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_step_usable_after_callback_error(self, sim):
        """The guard must reset even when a callback raises."""

        def boom():
            raise ValueError("bang")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.step()
        assert sim.step() is True


class TestPendingCounter:
    def test_double_cancel_decrements_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        event.cancel()
        assert sim.pending == 0

    def test_pending_matches_heap_ground_truth(self, sim):
        # Heap entries are [time, seq, fn, args, handle] lists; a fn of
        # None marks a dead (cancelled) entry awaiting lazy deletion.
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for event in events[::3]:
            event.cancel()
        ground_truth = sum(1 for e in sim._heap if e[2] is not None)
        assert sim.pending == ground_truth
        sim.run(max_events=5)
        ground_truth = sum(1 for e in sim._heap if e[2] is not None)
        assert sim.pending == ground_truth
        sim.run()
        assert sim.pending == 0


# ----------------------------------------------------------------------
# Bookkeeping the run loops derive or skip
# ----------------------------------------------------------------------


class TestCappedDeadlineRun:
    """Regression: ``run(until_us, max_events)`` stopped by the cap used
    to jump the clock to the deadline past events still due, so the
    next run moved time backwards."""

    def test_cap_does_not_jump_past_due_events(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(("a", sim.now)))
        sim.at_(20.0, lambda tag: fired.append((tag, sim.now)), "b")
        assert sim.run(until_us=100.0, max_events=1) == 10.0
        assert fired == [("a", 10.0)]
        assert sim.pending == 1
        assert sim.run() == 20.0
        assert fired == [("a", 10.0), ("b", 20.0)]

    def test_cap_with_population_entries(self, sim):
        fired = []
        pop = sim.population(lambda tag: fired.append((tag, sim.now)))
        for index in range(100):
            pop.add(10.0 + index, index)
        sim.run(until_us=1000.0, max_events=3)
        assert sim.now == 12.0
        sim.run(until_us=1000.0, max_events=3)
        assert fired == [(index, 10.0 + index) for index in range(6)]
        assert sim.now == 15.0

    def test_cap_reached_with_nothing_due_still_advances(self, sim):
        sim.at_(10.0, lambda _: None, None)
        sim.at_(200.0, lambda _: None, None)
        assert sim.run(until_us=100.0, max_events=1) == 100.0
        assert sim.pending == 1

    def test_cancelled_due_event_does_not_hold_the_clock(self, sim):
        sim.at_(10.0, lambda _: None, None)
        ghost = sim.at(20.0, lambda: None)
        ghost.cancel()
        assert sim.run(until_us=100.0, max_events=1) == 100.0
        assert sim.pending == 0

    def test_zero_cap_holds_the_clock(self, sim):
        sim.at_(10.0, lambda _: None, None)
        assert sim.run(until_us=100.0, max_events=0) == 0.0
        assert sim.run(until_us=100.0) == 100.0


class TestOnePayloadContract:
    """Handle-less events carry exactly one payload.  A wrong arity is
    refused where it is written -- at the scheduling call -- never
    later inside the drain loop, and leaves nothing queued."""

    @pytest.mark.parametrize("payloads", [(), ("a", "b")], ids=["none", "two"])
    def test_at_refuses_other_arities_at_the_call(self, sim, payloads):
        with pytest.raises(TypeError):
            sim.at_(1.0, print, *payloads)
        assert sim.pending == 0 and sim._seq == 0
        sim.run()

    @pytest.mark.parametrize("payloads", [(), ("a", "b")], ids=["none", "two"])
    def test_population_add_refuses_other_arities_at_the_call(self, sim, payloads):
        pop = sim.population(print)
        with pytest.raises(TypeError):
            pop.add(1.0, *payloads)
        assert sim.pending == 0 and sim._seq == 0
        sim.run()

    def test_the_past_is_still_refused(self, sim):
        pop = sim.population(print)
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match=r"Cannot schedule at t=4.0 before now=5.0"):
            sim.at_(4.0, print, "late")
        with pytest.raises(SimulationError, match=r"Cannot add at t=4.0 before now=5.0"):
            pop.add(4.0, "late")
        assert sim.pending == 0

    @pytest.mark.parametrize("entry_point", ["schedule", "at", "at_", "population"])
    def test_a_nan_time_is_refused(self, sim, entry_point):
        """``x < bound`` is false for NaN; each guard is written so NaN
        fails it, and nothing is queued."""
        fired = []
        sim.at_(1.0, fired.append, 1.0)
        call = {
            "schedule": lambda: sim.schedule(math.nan, fired.append, "x"),
            "at": lambda: sim.at(math.nan, fired.append, "x"),
            "at_": lambda: sim.at_(math.nan, fired.append, "x"),
            "population": lambda: sim.population(fired.append).add(math.nan, "x"),
        }[entry_point]
        with pytest.raises(SimulationError):
            call()
        assert sim.pending == 1 and len(sim._heap) == 1
        assert sim.run(until_us=10.0) == 10.0
        assert fired == [1.0]

    def test_the_payload_arrives_as_is(self, sim):
        got = []
        pop = sim.population(got.append)
        # A tuple is one payload, not an argument list; None is a payload.
        sim.at_(1.0, got.append, ("x", 1))
        pop.add(2.0, ("y", 2))
        sim.at_(3.0, got.append, None)
        for index in range(100):
            pop.add(10.0 + index, (index,))
        sim.run()
        assert got == [("x", 1), ("y", 2), None] + [(index,) for index in range(100)]


class TestPopulation:
    def test_orders_with_heap_events(self, sim):
        log = []
        pop = sim.population(lambda tag: log.append(("pop", sim.now, tag)))
        pop.add(2.0, "a")
        sim.at(1.0, lambda: log.append(("at", sim.now)))
        pop.add(1.0, "tie")  # later seq than the at(): fires second
        sim.run()
        assert log == [("at", 1.0), ("pop", 1.0, "tie"), ("pop", 2.0, "a")]

    def test_past_add_rejected(self, sim):
        pop = sim.population(lambda tag: None)
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            pop.add(4.0, "late")


class _Ledger:
    """Test-side ground truth for ``pending``: the ids scheduled and
    neither fired nor cancelled, kept without looking at the kernel."""

    def __init__(self, sim):
        self.sim = sim
        self.outstanding = set()
        self.handles = {}
        self.fired = []
        self.checks = 0
        self.pop = sim.population(self._fire_payload)
        self._next_id = 0

    def _fire(self, ident, action=None):
        self.outstanding.discard(ident)
        self.handles.pop(ident, None)
        self.fired.append(ident)
        self.check()
        if action is not None:
            action(ident)
            self.check()

    def _fire_payload(self, payload):
        # Handle-less events carry one payload: the (ident, action) pair.
        self._fire(*payload)

    def check(self):
        assert self.sim.pending == len(self.outstanding)
        self.checks += 1

    def push(self, kind, time_us, action=None):
        ident = self._next_id
        self._next_id += 1
        self.outstanding.add(ident)
        if kind == "at":
            self.handles[ident] = self.sim.at(time_us, self._fire, ident, action)
        elif kind == "schedule":
            self.handles[ident] = self.sim.schedule(
                time_us - self.sim.now, self._fire, ident, action
            )
        elif kind == "at_":
            self.sim.at_(time_us, self._fire_payload, (ident, action))
        else:
            self.pop.add(time_us, (ident, action))
        return ident

    def cancel(self, ident):
        handle = self.handles.pop(ident, None)
        if handle is not None:
            handle.cancel()
            self.outstanding.discard(ident)


KINDS = ("at", "schedule", "at_", "pop")


class TestPendingInsideCallbacks:
    """``pending`` is derived from what is queued, not counted per
    event; it must still be exact wherever a callback reads it."""

    def test_plain_drain(self, sim):
        ledger = _Ledger(sim)

        def follow_up(ident):
            ledger.push(KINDS[ident % 4], sim.now + 1.5 + ident % 3)
            ledger.cancel(ident + 7)

        for index in range(300):
            ledger.push(KINDS[index % 4], 1.0 + (index * 7) % 50, follow_up)
        ledger.check()
        sim.run(until_us=20.0)
        ledger.check()
        sim.run()
        assert ledger.checks > 600
        assert sim.pending == 0 and not ledger.outstanding

    def test_deep_drain(self, sim):
        ledger = _Ledger(sim)

        def busy(ident):
            # Something that fires before the next queued entry, a
            # cancel of that very next entry, and a cancel further out.
            ledger.push(KINDS[ident % 4], sim.now + 0.25)
            ledger.cancel(ident + 1)
            ledger.cancel(ident + 40)

        for index in range(6000):
            action = busy if index % 10 == 0 else None
            ledger.push(KINDS[index % 4], 1.0 + index, action)
        sim.run()
        assert sim.pending == 0 and not ledger.outstanding
        assert sim._dead == 0

    def test_across_cancel_triggered_compaction(self, sim, monkeypatch):
        compactions = []
        original = type(sim)._compact

        def spying_compact(self):
            compactions.append(self.pending)
            original(self)
            assert self.pending == compactions[-1]

        monkeypatch.setattr(type(sim), "_compact", spying_compact)
        ledger = _Ledger(sim)

        def purge(ident):
            for victim in range(100, 1900):
                ledger.cancel(victim)
                if victim % 300 == 0:
                    ledger.check()

        ledger.push("at_", 0.5, purge)
        for index in range(1, 2000):
            ledger.push("at" if index >= 100 else KINDS[index % 4], 10.0 + index)
        sim.run(until_us=5.0)
        assert compactions  # compaction ran inside the callback
        ledger.check()
        sim.run()
        assert sim.pending == 0 and sim._dead == 0

    def test_compaction_during_deep_drain(self, sim, monkeypatch):
        compactions = []
        original = type(sim)._compact

        def spying_compact(self):
            compactions.append(1)
            original(self)

        monkeypatch.setattr(type(sim), "_compact", spying_compact)
        ledger = _Ledger(sim)

        def purge(ident):
            # Victims are partly entries queued before the drain began,
            # partly ones scheduled from inside it.
            late = [ledger.push("at", 9000.0 + offset) for offset in range(700)]
            for victim in list(range(1000, 5500)) + late[:650]:
                ledger.cancel(victim)
            ledger.check()

        for index in range(6000):
            ledger.push("at", 1.0 + index, purge if index == 5 else None)
        sim.run()
        assert compactions
        assert sim.pending == 0 and not ledger.outstanding
        assert sim._dead == 0


class TestRaisingCallbacks:
    def test_handleless_raise_leaves_pending_exact(self, sim):
        fired = []

        def boom(_):
            raise ValueError("bang")

        pop = sim.population(fired.append)
        sim.at_(1.0, fired.append, "before")
        sim.at_(2.0, boom, None)
        sim.at_(3.0, fired.append, "after")
        pop.add(4.0, "pop")
        with pytest.raises(ValueError):
            sim.run()
        assert sim.now == 2.0
        assert sim.pending == 2
        sim.run()
        assert fired == ["before", "after", "pop"]
        assert sim.pending == 0

    def test_raise_in_population_entry(self, sim):
        fired = []

        def complete(tag):
            if tag == 70:
                raise ValueError("bang")
            fired.append(tag)

        pop = sim.population(complete)
        for index in range(200):
            pop.add(1.0 + index, index)
        with pytest.raises(ValueError):
            sim.run()
        assert sim.pending == 129
        sim.run()
        assert fired == [index for index in range(200) if index != 70]
        assert sim.pending == 0

    def test_raise_mid_deep_drain_keeps_the_rest(self, sim):
        fired = []

        def complete(tag):
            if tag == 2500:
                raise ValueError("bang")
            fired.append(tag)

        for index in range(5000):
            sim.at_(1.0 + index, complete, index)
        with pytest.raises(ValueError):
            sim.run()
        assert sim.pending == 2499
        assert sim.run() == 5000.0
        assert fired == [index for index in range(5000) if index != 2500]
        assert sim.pending == 0

    def test_handle_bearing_raise_still_makes_late_cancel_a_noop(self, sim):

        def boom():
            raise ValueError("bang")

        handle = sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run()
        assert sim.pending == 1
        handle.cancel()
        assert sim.pending == 1
        assert sim._dead == 0
        sim.run()
        assert sim.pending == 0
