"""Tests for the metrics registry."""

from __future__ import annotations

import pytest

from repro.obs.registry import Registry


class TestCounters:
    def test_counter_get_or_create(self):
        registry = Registry()
        counter = registry.counter("sched.deferrals")
        counter.inc()
        counter.inc(4)
        assert registry.counter("sched.deferrals") is counter
        assert registry.snapshot()["sched.deferrals"] == 5

    def test_counter_name_collision_with_gauge(self):
        registry = Registry()
        registry.gauge("x", lambda: 1)
        with pytest.raises(ValueError):
            registry.counter("x")


class TestGauges:
    def test_gauge_sampled_at_read_time(self):
        registry = Registry()
        state = {"value": 1}
        registry.gauge("x", lambda: state["value"])
        state["value"] = 7
        assert registry.snapshot()["x"] == 7

    def test_gauge_reregistration_replaces(self):
        registry = Registry()
        registry.gauge("x", lambda: 1)
        registry.gauge("x", lambda: 2)
        assert registry.snapshot()["x"] == 2
        assert len(registry) == 1

    def test_gauge_name_collision_with_counter(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x", lambda: 1)


class TestReading:
    def test_names_sorted(self):
        registry = Registry()
        registry.gauge("b", lambda: 0)
        registry.counter("a")
        assert registry.names() == ["a", "b"]

    def test_render_groups_by_first_segment(self):
        registry = Registry()
        registry.gauge("ssd.ssd0.wa", lambda: 2.5)
        registry.gauge("ssd.ssd0.reads", lambda: 10)
        registry.counter("kernel.events").inc(3)
        text = registry.render(title="run metrics")
        assert text.splitlines()[0] == "run metrics"
        assert "[ssd]" in text
        assert "[kernel]" in text
        assert "ssd0.wa" in text
        # Groups appear in sorted order.
        assert text.index("[kernel]") < text.index("[ssd]")
