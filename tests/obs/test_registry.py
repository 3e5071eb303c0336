"""Tests for the metrics registry."""

from __future__ import annotations

from repro.obs.registry import Registry


class Source:
    """A component stand-in whose ``metrics()`` reports ``values``."""

    def __init__(self, **values):
        self.values = values

    def metrics(self):
        return dict(self.values)


class TestGauges:
    def test_gauge_sampled_at_read_time(self):
        registry = Registry()
        source = Source(x=1)
        registry.add("a", source)
        source.values["x"] = 7
        source.values["y"] = 2
        assert registry.snapshot() == {"a.x": 7, "a.y": 2}

    def test_gauge_reregistration_replaces(self):
        """A later source under a held prefix replaces the earlier one,
        names and all."""
        registry = Registry()
        registry.add("a", Source(x=1, old=0))
        registry.add("a", Source(x=2))
        assert registry.snapshot() == {"a.x": 2}

    def test_snapshot_keeps_registration_order(self):
        registry = Registry()
        registry.add("sched", Source(deferrals=5))
        registry.add("kernel", Source(events=3))
        assert list(registry.snapshot().items()) == [
            ("sched.deferrals", 5),
            ("kernel.events", 3),
        ]


class TestReading:
    def test_names_sorted(self):
        registry = Registry()
        registry.add("g", Source(b=0, a=1))
        lines = registry.render().splitlines()
        assert lines[1:] == ["  [g]", "    a  1", "    b  0"]

    def test_render_groups_by_first_segment(self):
        registry = Registry()
        registry.add("ssd.ssd0", Source(wa=2.5, reads=10))
        registry.add("kernel", Source(events=3))
        text = registry.render(title="run metrics")
        assert text.splitlines()[0] == "run metrics"
        assert "[ssd]" in text
        assert "[kernel]" in text
        assert "ssd0.wa" in text
        # Groups appear in sorted order.
        assert text.index("[kernel]") < text.index("[ssd]")
