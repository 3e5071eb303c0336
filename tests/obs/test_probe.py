"""Tests for the event-kernel probe."""

from __future__ import annotations

import gc
import weakref

from repro.obs.probe import KernelProbe
from repro.obs.registry import Registry
from repro.sim.engine import Simulator


def probed_sim():
    sim = Simulator()
    probe = KernelProbe()
    sim.probe = probe
    return sim, probe


class TestFireCounts:
    def test_counts_by_callback_qualname(self):
        sim, probe = probed_sim()

        def tick():
            pass

        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, tick)
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert probe.fired_total == 4
        key = tick.__qualname__
        assert probe.fired_by_callback[key] == 3

    def test_cancelled_events_not_counted(self):
        sim, probe = probed_sim()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert probe.fired_total == 0

    def test_top_callbacks_ranked(self):
        probe = KernelProbe()

        def often():
            pass

        def rarely():
            pass

        for _ in range(5):
            probe.count_fire(often)
        probe.count_fire(rarely)
        names = [name for name, _ in probe.top_callbacks(2)]
        assert names[0] == often.__qualname__

    def test_counted_methods_keep_no_instance_alive(self):
        """A session's probe outlives the components it counted: keyed
        by bound method, it would hold every instance whose event fired."""
        sim, probe = probed_sim()

        class Component:
            def tick(self):
                pass

        components = [Component(), Component()]
        for component in components:
            sim.schedule(1.0, component.tick)
        sim.run()
        refs = [weakref.ref(component) for component in components]
        del components, component
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert probe.fired_by_callback == {Component.tick.__qualname__: 2}


class TestHeapHighWater:
    def test_high_water_tracks_peak_depth(self):
        sim, probe = probed_sim()
        for delay in (1.0, 2.0, 3.0, 4.0, 5.0):
            sim.schedule(delay, lambda: None)
        # The probe samples depth from the run loop, not from the
        # scheduling calls, so the mark is read after run().
        sim.run()
        assert probe.heap_high_water == 5  # peak, not current

    def test_peak_pruned_between_runs_is_still_seen(self):
        sim, probe = probed_sim()
        events = [sim.schedule(delay, lambda: None) for delay in (1.0, 2.0, 3.0, 4.0, 5.0)]
        events[0].cancel()
        # Pops the dead head: the queue is one shallower before any
        # run loop has looked at it.
        assert sim.next_event_time() == 2.0
        sim.run()
        assert probe.heap_high_water == 5

    def test_peak_before_compaction_is_still_seen(self):
        sim, probe = probed_sim()
        events = [sim.schedule(1.0 + index, lambda: None) for index in range(2000)]
        for event in events[:1500]:
            event.cancel()
        assert len(sim._heap) < 2000  # compacted
        sim.run()
        assert probe.heap_high_water == 2000

    def test_pushes_from_callbacks_are_seen(self):
        sim, probe = probed_sim()

        def fan_out():
            for delay in (1.0, 2.0, 3.0):
                sim.at_(sim.now + delay, lambda _: None, None)

        sim.schedule(1.0, fan_out)
        sim.run()
        assert probe.heap_high_water == 3


class TestRunAccounting:
    def test_runs_and_sim_time_accumulate(self):
        sim, probe = probed_sim()
        sim.schedule(10.0, lambda: None)
        sim.run(until_us=50.0)
        sim.run(until_us=100.0)
        assert probe.runs == 2
        assert probe.sim_us == 100.0
        assert probe.wall_seconds >= 0.0

    def test_wall_per_sim_second_zero_before_any_run(self):
        probe = KernelProbe()
        assert probe.wall_seconds_per_sim_second == 0.0

    def test_register_metrics_exposes_gauges(self):
        sim, probe = probed_sim()
        registry = Registry()
        registry.add("kernel", probe)
        sim.schedule(1.0, lambda: None)
        sim.run()
        snapshot = registry.snapshot()
        assert snapshot["kernel.events_fired"] == 1
        assert snapshot["kernel.runs"] == 1

    def test_summary_mentions_top_callbacks(self):
        sim, probe = probed_sim()

        def busy():
            pass

        sim.schedule(1.0, busy)
        sim.run()
        text = probe.summary()
        assert "kernel probe" in text
        assert busy.__qualname__ in text
