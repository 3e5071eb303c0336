"""Tests for :class:`repro.ssd.NullDevice` (Table 1's zero-cost backend)."""

from __future__ import annotations

from repro.obs.registry import Registry
from repro.ssd.commands import DeviceCommand, IoOp
from repro.ssd.device import NullDevice


class TestNullDeviceCompletion:
    def test_read_completes_at_current_time(self, sim):
        device = NullDevice(sim)
        done = []
        device.submit(DeviceCommand(IoOp.READ, 0, 4), done.append)
        assert device.outstanding == 1
        sim.run()
        assert len(done) == 1
        cmd = done[0]
        assert cmd.submit_time == cmd.complete_time == 0.0
        assert device.outstanding == 0

    def test_completion_is_asynchronous(self, sim):
        """The callback fires from the event loop, not inside submit()."""
        device = NullDevice(sim)
        done = []
        device.submit(DeviceCommand(IoOp.READ, 0, 1), done.append)
        assert done == []  # not synchronously completed
        sim.run()
        assert len(done) == 1

    def test_ordering_preserved_for_same_time_commands(self, sim):
        device = NullDevice(sim)
        order = []
        device.submit(DeviceCommand(IoOp.READ, 0, 1, tag="first"), lambda c: order.append(c.tag))
        device.submit(DeviceCommand(IoOp.WRITE, 8, 1, tag="second"), lambda c: order.append(c.tag))
        sim.run()
        assert order == ["first", "second"]


class TestNullDeviceStats:
    def test_counters_by_op(self, sim):
        device = NullDevice(sim)
        device.submit(DeviceCommand(IoOp.READ, 0, 2), lambda c: None)
        device.submit(DeviceCommand(IoOp.WRITE, 16, 3), lambda c: None)
        device.submit(DeviceCommand(IoOp.TRIM, 32, 5), lambda c: None)
        sim.run()
        assert device.stats.read_commands == 1
        assert device.stats.write_commands == 1
        assert device.stats.trim_commands == 1
        assert device.stats.read_bytes == 2 * 4096
        assert device.stats.write_bytes == 3 * 4096
        assert device.stats.trimmed_pages == 5

    def test_write_amplification_is_unity(self, sim):
        assert NullDevice(sim).write_amplification == 1.0

    def test_reset_time_state_clears_stats(self, sim):
        device = NullDevice(sim)
        device.submit(DeviceCommand(IoOp.READ, 0, 1), lambda c: None)
        sim.run()
        assert device.stats.read_commands == 1
        device.reset_time_state()
        assert device.stats.read_commands == 0

    def test_register_metrics_follows_reset(self, sim):
        """Metrics must read through to the *current* stats object."""
        device = NullDevice(sim)
        registry = Registry()
        registry.add("ssd.null0", device)
        device.submit(DeviceCommand(IoOp.READ, 0, 1), lambda c: None)
        sim.run()
        assert registry.snapshot()["ssd.null0.read_commands"] == 1
        device.reset_time_state()
        snapshot = registry.snapshot()
        assert snapshot["ssd.null0.read_commands"] == 0
        assert snapshot["ssd.null0.outstanding"] == 0


class TestNullDeviceCapacity:
    def test_exported_pages_default_is_huge(self, sim):
        assert NullDevice(sim).exported_pages == 1 << 30

    def test_closed_loop_sustains_many_iops(self, sim):
        """The null backend never becomes the bottleneck: a closed loop
        completes one command per event-loop turn."""
        device = NullDevice(sim)
        state = {"count": 0}

        def resubmit(cmd):
            state["count"] += 1
            if state["count"] < 1000:
                device.submit(DeviceCommand(IoOp.READ, 0, 1), resubmit)

        device.submit(DeviceCommand(IoOp.READ, 0, 1), resubmit)
        sim.run()
        assert state["count"] == 1000
        assert sim.now == 0.0  # all completions at t=0: zero service time

    def test_invalid_command_range_still_accepted(self, sim):
        """NullDevice does no bounds checking -- Table 1 relies on raw
        command throughput, not addressing."""
        device = NullDevice(sim)
        done = []
        device.submit(DeviceCommand(IoOp.READ, device.exported_pages - 1, 1), done.append)
        sim.run()
        assert len(done) == 1
