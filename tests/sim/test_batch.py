"""Unit tests for the batch-advance backend and the population API."""

from __future__ import annotations

import pytest

from repro.sim import SimulationError, Simulator, make_simulator
from repro.sim.engine import KERNEL_BACKEND_ENV

np = pytest.importorskip("numpy", reason="batch backend requires numpy")

from repro.sim.batch import (  # noqa: E402 - after importorskip
    _MIN_BACKLOG,
    _WINDOW,
    BatchSimulator,
)


# ----------------------------------------------------------------------
# Factory / backend selection
# ----------------------------------------------------------------------
class TestMakeSimulator:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert type(make_simulator()) is Simulator

    def test_explicit_batch(self):
        assert isinstance(make_simulator("batch"), BatchSimulator)

    def test_env_selects_batch(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "batch")
        assert isinstance(make_simulator(), BatchSimulator)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "batch")
        assert type(make_simulator("reference")) is Simulator

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="reference"):
            make_simulator("turbo")


# ----------------------------------------------------------------------
# Reference-backend population (heap-backed)
# ----------------------------------------------------------------------
class TestReferencePopulation:
    def test_orders_with_heap_events(self):
        sim = Simulator()
        log = []
        pop = sim.population(lambda tag: log.append(("pop", sim.now, tag)))
        pop.add(2.0, "a")
        sim.at(1.0, lambda: log.append(("at", sim.now)))
        pop.add(1.0, "tie")  # later seq than the at(): fires second
        sim.run()
        assert log == [("at", 1.0), ("pop", 1.0, "tie"), ("pop", 2.0, "a")]

    def test_past_add_rejected(self):
        sim = Simulator()
        pop = sim.population(lambda tag: None)
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            pop.add(4.0, "late")


# ----------------------------------------------------------------------
# Batch backend mechanics
# ----------------------------------------------------------------------
def _held_outside_heap(sim) -> int:
    """Walk the staging lists, pool and window: the count
    ``batch_pending`` keeps incrementally."""
    pooled = 0 if sim._pool_t is None else sim._pool_t.shape[0] - sim._pool_pos
    return len(sim._stage_t) + pooled + len(sim._win_t) - sim._win_pos


class TestBatchSimulator:
    def test_batch_pending_matches_a_walk_of_the_structures(self):
        sim = BatchSimulator()
        first = sim.population(lambda tag: None)
        second = sim.population(lambda tag: None)
        for index in range(3 * _MIN_BACKLOG):
            first.add(1.0 + index, index)
        for index in range(5000):
            second.add(2.5 + index, index)
        handle = sim.at(40.0, lambda: None)
        assert sim.batch_pending == _held_outside_heap(sim) == 5000 + 3 * _MIN_BACKLOG
        for until_us, cap in ((30.0, None), (90.0, 17), (400.0, None), (4000.0, 900)):
            sim.run(until_us=until_us, max_events=cap)
            # A window is open and partly consumed at most of these stops.
            assert sim.batch_pending == _held_outside_heap(sim)
            assert sim.pending == sim.batch_pending + len(sim._heap) - sim._dead
            handle.cancel()
        sim.run()
        assert sim.batch_pending == _held_outside_heap(sim) == 0
        assert sim.pending == 0

    def test_pending_and_clock(self):
        sim = BatchSimulator()
        fired = []
        pop = sim.population(fired.append)
        for index in range(10):
            pop.add(float(index + 1), index)
        assert sim.pending == 10
        sim.run()
        assert fired == list(range(10))
        assert sim.pending == 0
        assert sim.now == 10.0

    def test_until_pauses_and_resumes(self):
        sim = BatchSimulator()
        fired = []
        pop = sim.population(fired.append)
        for index in range(100):
            pop.add(float(index), index)
        sim.run(until_us=49.5)
        assert fired == list(range(50))
        assert sim.now == 49.5
        sim.run()
        assert fired == list(range(100))

    def test_max_events_budget(self):
        sim = BatchSimulator()
        fired = []
        pop = sim.population(fired.append)
        for index in range(100):
            pop.add(float(index), index)
        sim.run(max_events=30)
        assert len(fired) == 30
        while sim.step():
            pass
        assert len(fired) == 100

    def test_small_backlog_spills_to_heap(self):
        sim = BatchSimulator()
        fired = []
        pop = sim.population(fired.append)
        count = _MIN_BACKLOG - 2
        for index in range(count):
            pop.add(float(index), index)
        sim.run()
        assert fired == list(range(count))
        # spilled backlogs never cut a window
        assert sim.batch_windows == 0

    def test_deep_backlog_uses_windows(self):
        sim = BatchSimulator()
        fired = []
        pop = sim.population(fired.append)
        count = _WINDOW + 100
        for index in range(count):
            pop.add(float(index), index)
        sim.run()
        assert fired == list(range(count))
        assert sim.batch_grand_sorts >= 1
        assert sim.batch_windows >= 2

    def test_undercut_counter_and_order(self):
        sim = BatchSimulator()
        log = []

        def complete(tag):
            log.append((sim.now, tag))
            if tag == "first":
                # Below the active window's ceiling: must be routed to
                # the heap and still fire in exact time order.
                pop.add(sim.now + 0.25, "undercut")

        pop = sim.population(complete)
        for index in range(_WINDOW):
            pop.add(float(index + 1), "first" if index == 0 else index)
        sim.run()
        assert log[0] == (1.0, "first")
        assert log[1] == (1.25, "undercut")
        assert sim.batch_undercuts >= 1

    def test_refold_merges_late_stagers(self):
        sim = BatchSimulator()
        log = []

        def timer():
            # Stages new population entries whose times land inside the
            # *next* window's span, forcing a refold at the next cut.
            for offset in range(70):
                pop.add(sim.now + 200.0 + offset * 0.5, "late")

        pop = sim.population(lambda tag: log.append((sim.now, tag)))
        for index in range(_WINDOW + 500):
            pop.add(float(index + 100), index)
        sim.at(50.0, timer)
        sim.run()
        times = [t for t, _ in log]
        assert times == sorted(times)

    def test_past_add_rejected(self):
        sim = BatchSimulator()
        pop = sim.population(lambda tag: None)
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            pop.add(4.0, "late")

    def test_idle_fast_forward_counts(self):
        sim = BatchSimulator()
        pop = sim.population(lambda tag: None)
        for index in range(_WINDOW):
            pop.add(1000.0 + index, index)
        sim.run()
        assert sim.batch_idle_jumps >= 1
        assert sim.batch_idle_us >= 1000.0

    def test_register_metrics_gauges(self):
        from repro.obs.registry import Registry

        sim = BatchSimulator()
        registry = Registry()
        sim.register_metrics(registry)
        pop = sim.population(lambda tag: None)
        for index in range(10):
            pop.add(float(index), index)
        sim.run()
        snapshot = registry.snapshot()
        assert snapshot["kernel.batch_adds"] == 10

    def test_run_not_reentrant(self):
        sim = BatchSimulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.at(1.0, reenter)
        sim.run()
        assert errors and "reentrant" in errors[0]
