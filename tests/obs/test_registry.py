"""Tests for the metrics registry."""

from __future__ import annotations

from repro.obs.registry import Registry


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

    def test_snapshot_keeps_registration_order(self):
        registry = Registry()
        registry.gauge("sched.deferrals", lambda: 5)
        registry.gauge("kernel.events", lambda: 3)
        assert list(registry.snapshot().items()) == [
            ("sched.deferrals", 5),
            ("kernel.events", 3),
        ]


class TestReading:
    def test_names_sorted(self):
        registry = Registry()
        registry.gauge("b", lambda: 0)
        registry.gauge("a", lambda: 0)
        assert registry.names() == ["a", "b"]

    def test_render_groups_by_first_segment(self):
        registry = Registry()
        registry.gauge("ssd.ssd0.wa", lambda: 2.5)
        registry.gauge("ssd.ssd0.reads", lambda: 10)
        registry.gauge("kernel.events", lambda: 3)
        text = registry.render(title="run metrics")
        assert text.splitlines()[0] == "run metrics"
        assert "[ssd]" in text
        assert "[kernel]" in text
        assert "ssd0.wa" in text
        # Groups appear in sorted order.
        assert text.index("[kernel]") < text.index("[ssd]")
