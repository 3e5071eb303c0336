"""Tests for the SSD device timing model."""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.engine import Simulator
from repro.ssd.commands import DeviceCommand, IoOp
from repro.ssd.conditioning import precondition_clean, precondition_fragmented
from repro.ssd.device import NullDevice, SsdDevice


def run_closed_loop(sim, device, queue_depth, op, npages, duration_us, seed=0, sequential=False):
    """Drive a closed-loop worker; returns (bytes, ops, total_latency)."""
    rng = random.Random(seed)
    exported = device.exported_pages
    state = {"bytes": 0, "ops": 0, "latency": 0.0, "next": 0}

    def next_lpn():
        if sequential:
            lpn = state["next"]
            state["next"] = (state["next"] + npages) % (exported - npages)
            return lpn
        return rng.randrange(exported - npages)

    def on_complete(cmd):
        state["bytes"] += cmd.size_bytes
        state["ops"] += 1
        state["latency"] += cmd.latency_us
        if sim.now < duration_us:
            issue()

    def issue():
        device.submit(DeviceCommand(op, next_lpn(), npages), on_complete)

    for _ in range(queue_depth):
        issue()
    sim.run(until_us=duration_us)
    return state


@pytest.fixture
def device(sim):
    return SsdDevice(sim)


@pytest.fixture
def clean_device(sim):
    dev = SsdDevice(sim)
    precondition_clean(dev)
    return dev


class TestBasicIo:
    def test_read_completes_with_latency(self, sim, clean_device):
        done = []
        clean_device.submit(DeviceCommand(IoOp.READ, 0, 1), done.append)
        sim.run()
        assert len(done) == 1
        cmd = done[0]
        assert cmd.latency_us > 0
        assert cmd.complete_time == sim.now

    def test_write_completes(self, sim, device):
        done = []
        device.submit(DeviceCommand(IoOp.WRITE, 0, 1), done.append)
        sim.run()
        assert len(done) == 1

    def test_out_of_range_command_rejected(self, sim, device):
        with pytest.raises(ValueError):
            device.submit(
                DeviceCommand(IoOp.READ, device.exported_pages, 1), lambda cmd: None
            )

    def test_oversized_write_rejected(self, sim, device):
        huge = device.buffer.capacity + 1
        with pytest.raises(ValueError):
            device.submit(DeviceCommand(IoOp.WRITE, 0, huge), lambda cmd: None)

    def test_outstanding_tracks_inflight(self, sim, clean_device):
        clean_device.submit(DeviceCommand(IoOp.READ, 0, 1), lambda cmd: None)
        assert clean_device.outstanding == 1
        sim.run()
        assert clean_device.outstanding == 0

    def test_stats_count_commands_and_bytes(self, sim, clean_device):
        clean_device.submit(DeviceCommand(IoOp.READ, 0, 4), lambda cmd: None)
        clean_device.submit(DeviceCommand(IoOp.WRITE, 8, 2), lambda cmd: None)
        sim.run()
        assert clean_device.stats.read_commands == 1
        assert clean_device.stats.write_commands == 1
        assert clean_device.stats.read_bytes == 4 * 4096
        assert clean_device.stats.write_bytes == 2 * 4096


class TestLatencyShape:
    def test_unloaded_4k_read_latency_near_75us(self, sim, clean_device):
        state = run_closed_loop(sim, clean_device, 1, IoOp.READ, 1, 100_000.0)
        average = state["latency"] / state["ops"]
        assert 60.0 < average < 100.0

    def test_larger_reads_take_longer_unloaded(self, sim, clean_device):
        # Sizes below one stripe (8 channels x 4 KiB) complete fully in
        # parallel, so the ladder uses sizes that queue per channel.
        latency_by_size = {}
        for npages in (1, 32, 64):
            sim_local = Simulator()
            dev = SsdDevice(sim_local)
            precondition_clean(dev)
            state = run_closed_loop(sim_local, dev, 1, IoOp.READ, npages, 50_000.0)
            latency_by_size[npages] = state["latency"] / state["ops"]
        assert latency_by_size[1] < latency_by_size[32] < latency_by_size[64]

    def test_latency_rises_with_load(self):
        """The paper's impulse response: latency explodes past capacity."""
        averages = []
        for queue_depth in (1, 32, 256):
            sim = Simulator()
            dev = SsdDevice(sim)
            precondition_clean(dev)
            state = run_closed_loop(sim, dev, queue_depth, IoOp.READ, 1, 200_000.0)
            averages.append(state["latency"] / state["ops"])
        assert averages[0] < averages[1] < averages[2]
        assert averages[2] > 5 * averages[0]

    def test_buffered_write_latency_is_low(self, sim, clean_device):
        state = run_closed_loop(sim, clean_device, 1, IoOp.WRITE, 1, 50_000.0)
        average = state["latency"] / state["ops"]
        assert average < 60.0


class TestThroughputShape:
    def test_4k_random_read_capacity(self):
        sim = Simulator()
        dev = SsdDevice(sim)
        precondition_clean(dev)
        state = run_closed_loop(sim, dev, 128, IoOp.READ, 1, 500_000.0)
        iops = state["ops"] / 0.5
        assert 350_000 < iops < 480_000

    def test_128k_read_bandwidth_exceeds_4k(self):
        bandwidth = {}
        for npages in (1, 32):
            sim = Simulator()
            dev = SsdDevice(sim)
            precondition_clean(dev)
            state = run_closed_loop(sim, dev, 16, IoOp.READ, npages, 500_000.0)
            bandwidth[npages] = state["bytes"] / 0.5 / 1e6
        assert bandwidth[32] > 1.5 * bandwidth[1]

    def test_clean_sequential_write_bandwidth(self):
        sim = Simulator()
        dev = SsdDevice(sim)
        precondition_clean(dev)
        state = run_closed_loop(
            sim, dev, 4, IoOp.WRITE, 32, 1_000_000.0, sequential=True
        )
        mbps = state["bytes"] / 1_000_000.0 / (1024 * 1024 / 1e6)
        assert 900 < mbps < 1500
        assert dev.write_amplification < 1.2

    def test_fragmented_random_write_is_slow(self):
        sim = Simulator()
        dev = SsdDevice(sim)
        precondition_fragmented(dev)
        state = run_closed_loop(sim, dev, 32, IoOp.WRITE, 1, 1_000_000.0)
        mbps = state["bytes"] / 1_000_000.0 / (1024 * 1024 / 1e6)
        assert 80 < mbps < 320
        assert dev.write_amplification > 3.0

    def test_write_neighbour_degrades_reads(self):
        """Read/write interference: co-running writes steal read bandwidth."""

        def read_iops(with_writes):
            sim = Simulator()
            dev = SsdDevice(sim)
            precondition_fragmented(dev)
            reads = run_closed_loop(sim, dev, 32, IoOp.READ, 1, 300_000.0, seed=1)
            if not with_writes:
                return reads["ops"]
            sim2 = Simulator()
            dev2 = SsdDevice(sim2)
            precondition_fragmented(dev2)
            state = {"reads": 0}
            rng = random.Random(1)

            def on_read(cmd):
                state["reads"] += 1
                if sim2.now < 300_000.0:
                    dev2.submit(
                        DeviceCommand(IoOp.READ, rng.randrange(dev2.exported_pages - 1), 1),
                        on_read,
                    )

            def on_write(cmd):
                if sim2.now < 300_000.0:
                    dev2.submit(
                        DeviceCommand(IoOp.WRITE, rng.randrange(dev2.exported_pages - 1), 1),
                        on_write,
                    )

            for _ in range(32):
                dev2.submit(
                    DeviceCommand(IoOp.READ, rng.randrange(dev2.exported_pages - 1), 1), on_read
                )
            for _ in range(32):
                dev2.submit(
                    DeviceCommand(IoOp.WRITE, rng.randrange(dev2.exported_pages - 1), 1), on_write
                )
            sim2.run(until_us=300_000.0)
            return state["reads"]

        alone = read_iops(with_writes=False)
        mixed = read_iops(with_writes=True)
        assert mixed < 0.7 * alone


class TestWriteBufferBehaviour:
    def test_burst_absorbed_by_buffer(self, sim, clean_device):
        """A burst smaller than the buffer completes at DRAM latency."""
        burst_pages = clean_device.buffer.capacity // 2
        done = []
        for i in range(burst_pages // 8):
            clean_device.submit(DeviceCommand(IoOp.WRITE, i * 8, 8), done.append)
        sim.run()
        latencies = [cmd.latency_us for cmd in done]
        assert max(latencies) < 200.0

    def test_sustained_overload_backs_up(self, sim, clean_device):
        """Once the buffer is full, write latency reflects the drain rate."""
        capacity = clean_device.buffer.capacity
        done = []
        total = capacity * 3
        for i in range(total // 8):
            clean_device.submit(DeviceCommand(IoOp.WRITE, (i * 8) % 4096, 8), done.append)
        sim.run()
        latencies = sorted(cmd.latency_us for cmd in done)
        assert latencies[-1] > 10 * latencies[0]

    def test_read_of_buffered_page_is_fast(self, sim, clean_device):
        clean_device.submit(DeviceCommand(IoOp.WRITE, 100, 1), lambda cmd: None)
        hits_before = clean_device.stats.buffer_read_hits
        done = []
        clean_device.submit(DeviceCommand(IoOp.READ, 100, 1), done.append)
        sim.run()
        assert clean_device.stats.buffer_read_hits == hits_before + 1
        assert done[0].latency_us < 30.0

    def test_reset_time_state_rejected_with_inflight(self, sim, clean_device):
        clean_device.submit(DeviceCommand(IoOp.READ, 0, 1), lambda cmd: None)
        with pytest.raises(RuntimeError):
            clean_device.reset_time_state()

    def test_reset_time_state_cancels_pending_drains(self, sim, clean_device):
        """Regression: buffer-drain events scheduled before a reset must
        not fire after it.

        Writes complete host-side at admission, so the device can be
        idle (``outstanding == 0``) while drain events are still queued
        for the flash programs.  reset_time_state clears the drain
        schedule and the buffer; a stale drain firing afterwards would
        pop a missing schedule entry and release pages that no longer
        exist.
        """
        done = []
        for i in range(8):
            clean_device.submit(DeviceCommand(IoOp.WRITE, i * 8, 8), done.append)
        # Run just far enough for the host-side completions (DRAM
        # latency) but not the channel drains (flash program time).
        sim.run(until_us=100.0)
        assert len(done) == 8
        assert clean_device.outstanding == 0
        assert clean_device._drain_events, "writes should leave drains queued"

        fired = []
        original = clean_device._on_channel_drain
        clean_device._on_channel_drain = lambda key: (fired.append(key), original(key))

        clean_device.reset_time_state()
        assert not clean_device._drain_events
        assert clean_device.buffer.occupied == 0

        sim.run()  # drain the heap: cancelled events must be dead
        assert fired == [], "stale drain fired after reset_time_state"

        # The device still works normally after the reset.
        clean_device._on_channel_drain = original
        post = []
        clean_device.submit(DeviceCommand(IoOp.WRITE, 0, 8), post.append)
        sim.run()
        assert len(post) == 1
        assert clean_device.buffer.occupied == 0  # drained normally


class TestConditioning:
    def test_clean_preconditioning_maps_everything(self, sim):
        dev = SsdDevice(sim)
        precondition_clean(dev)
        assert dev.ftl.mapped_pages == dev.geometry.exported_pages

    def test_conditioning_resets_counters(self, sim):
        dev = SsdDevice(sim)
        precondition_fragmented(dev)
        assert dev.ftl.stats.host_programs == 0
        assert dev.stats.commands == 0
        assert dev.write_amplification == 1.0

    def test_cached_conditioning_matches_fresh(self, small_geometry):
        from repro.ssd.conditioning import clear_conditioning_cache

        clear_conditioning_cache()
        dev1 = SsdDevice(Simulator(), geometry=small_geometry)
        precondition_fragmented(dev1)
        dev2 = SsdDevice(Simulator(), geometry=small_geometry)
        precondition_fragmented(dev2)  # cache hit
        assert dev1.ftl.page_map == dev2.ftl.page_map

    def test_invalid_overwrite_factor_rejected(self, sim):
        dev = SsdDevice(sim)
        with pytest.raises(ValueError):
            precondition_fragmented(dev, overwrite_factor=-1.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "condition, name",
        [(precondition_fragmented, "overwrite_factor")],
        ids=["fragmented-overwrite_factor"],
    )
    def test_conditioning_factors_must_be_finite_and_non_negative(
        self, sim, condition, name, value
    ):
        """Fragmented conditioning refuses a bad factor by name: a
        negative factor, NaN (which ``int()`` used to choke on) and
        infinity."""
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            condition(SsdDevice(sim), **{name: value})


class TestNullDevice:
    def test_completes_immediately(self, sim):
        dev = NullDevice(sim)
        done = []
        dev.submit(DeviceCommand(IoOp.READ, 0, 1), done.append)
        sim.run()
        assert done[0].latency_us == 0.0

    def test_counts_stats(self, sim):
        dev = NullDevice(sim)
        dev.submit(DeviceCommand(IoOp.WRITE, 0, 2), lambda cmd: None)
        sim.run()
        assert dev.stats.write_commands == 1
        assert dev.write_amplification == 1.0


class TestCommandValidation:
    def test_negative_lpn_rejected(self):
        with pytest.raises(ValueError):
            DeviceCommand(IoOp.READ, -1, 1)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            DeviceCommand(IoOp.READ, 0, 0)

    def test_size_bytes(self):
        assert DeviceCommand(IoOp.READ, 0, 32).size_bytes == 128 * 1024

    def test_latency_before_completion_rejected(self):
        with pytest.raises(ValueError):
            _ = DeviceCommand(IoOp.READ, 0, 1).latency_us

    def test_op_predicates(self):
        assert IoOp.READ.is_read and not IoOp.READ.is_write
        assert IoOp.WRITE.is_write and not IoOp.WRITE.is_read
