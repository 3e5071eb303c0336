"""Integration tests for the assembled Gimbal switch and its ablations."""

from __future__ import annotations

import pytest

from repro.core.ablations import (
    ABLATIONS,
    FixedThresholdGimbal,
    FixedThresholdMonitor,
    NoSlotGimbal,
    SingleBucketGimbal,
    SingleTokenBucket,
    StaticWriteCostGimbal,
)
from repro.core.config import GimbalParams
from repro.core.switch import GimbalScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import CreditClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.sim.engine import Simulator
from repro.ssd.commands import IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice


def build_gimbal_rig(sim, scheduler_factory=GimbalScheduler):
    network = Network(sim)
    device = SsdDevice(sim)
    condition_device(device, "clean")
    target = NvmeOfTarget(sim, network, "jbof", {"ssd0": device}, scheduler_factory)
    initiator = NvmeOfInitiator(sim, network, "client")
    sessions = [
        initiator.connect(f"t{i}", target, "ssd0", policy=CreditClientPolicy())
        for i in range(2)
    ]
    return target.pipelines["ssd0"].scheduler, sessions


def run_buffered_writes(sim, session, until_us):
    """Light closed-loop sequential write load (absorbed by the device
    buffer) until ``until_us``; returns the number of completions."""
    state = {"n": 0}

    def loop(request):
        state["n"] += 1
        if sim.now < until_us:
            session.submit(IoOp.WRITE, (state["n"] * 8) % 4096, 8, on_complete=loop)

    session.submit(IoOp.WRITE, 0, 8, on_complete=loop)
    sim.run(until_us=until_us + 100_000.0)
    return state["n"]


class TestGimbalScheduler:
    def test_end_to_end_io_flows(self, sim):
        scheduler, sessions = build_gimbal_rig(sim)
        done = []
        for _ in range(20):
            sessions[0].submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 20

    def test_credits_granted(self, sim):
        scheduler, sessions = build_gimbal_rig(sim)
        done = []
        sessions[0].submit(IoOp.READ, 0, 32, on_complete=done.append)
        sim.run()
        assert done[0].credit_grant >= 1

    def test_write_cost_decays_on_buffered_writes(self, sim):
        scheduler, sessions = build_gimbal_rig(sim)
        run_buffered_writes(sim, sessions[0], until_us=300_000.0)
        assert scheduler.write_cost.cost < scheduler.write_cost.worst
        assert scheduler.write_cost.updates > 0

    def test_unknown_tenant_auto_registered(self, sim):
        """A request from a tenant the switch has not seen registers it."""
        scheduler, sessions = build_gimbal_rig(sim)
        # credit_for on unknown tenant is 0, after traffic it is positive.
        assert scheduler.credit_for("nobody") == 0


class TestAblations:
    def test_registry_contains_all_variants(self):
        assert set(ABLATIONS) == {
            "full",
            "fixed-threshold",
            "single-bucket",
            "no-slots",
            "static-cost",
        }

    @pytest.mark.parametrize(
        "factory",
        [FixedThresholdGimbal, SingleBucketGimbal, NoSlotGimbal, StaticWriteCostGimbal],
    )
    def test_each_variant_moves_io(self, sim, factory):
        scheduler, sessions = build_gimbal_rig(sim, scheduler_factory=factory)
        done = []
        for _ in range(10):
            sessions[0].submit(IoOp.READ, 0, 1, on_complete=done.append)
            sessions[0].submit(IoOp.WRITE, 64, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 20

    def test_static_cost_never_updates(self, sim):
        """The load that walks the full switch's cost down (see
        ``test_write_cost_decays_on_buffered_writes``) spans many update
        periods here too, and the frozen estimator is never touched."""
        scheduler, sessions = build_gimbal_rig(sim, scheduler_factory=StaticWriteCostGimbal)
        assert run_buffered_writes(sim, sessions[0], until_us=100_000.0) > 50
        assert scheduler.write_cost.cost == scheduler.write_cost.worst
        assert scheduler.write_cost.updates == 0

    def test_fixed_threshold_monitor_does_not_scale(self):
        params = GimbalParams()
        monitor = FixedThresholdMonitor(params, fixed_threshold_us=2000.0)
        for _ in range(50):
            monitor.observe(400.0)
        assert monitor.threshold == 2000.0

    def test_single_bucket_shares_pool(self):
        params = GimbalParams()
        bucket = SingleTokenBucket(params)
        bucket.discard()
        bucket.update(1000.0, target_rate=100.0, write_cost=9.0)
        assert bucket.read_tokens == bucket.write_tokens > 0.0
        bucket.consume(IoOp.WRITE, 4096)
        assert bucket.read_tokens == bucket.write_tokens

    def test_no_slot_variant_never_defers(self):
        """A burst of cost-9 4 KiB writes fills a tenant's slot share
        long before it drains the write bucket: the full switch parks
        the tenant, the ablation never does."""
        deferrals = {}
        for factory in (GimbalScheduler, NoSlotGimbal):
            sim = Simulator()
            scheduler, sessions = build_gimbal_rig(sim, scheduler_factory=factory)
            done = []
            for _ in range(32):
                sessions[0].submit(IoOp.WRITE, 0, 1, on_complete=done.append)
            sim.run()
            assert len(done) == 32
            assert not scheduler.drr.tenants["t0"].deferred
            deferrals[factory] = scheduler.drr.deferrals
        assert deferrals[GimbalScheduler] > 0
        assert deferrals[NoSlotGimbal] == 0

    # Hook liveness: each ablation overrides one attribute of the switch
    # and the per-IO path must keep going through it (the override
    # points are listed in docs/architecture.md section 4).
    def test_single_bucket_pools_mirror_after_pumped_consume(self, sim):
        scheduler, sessions = build_gimbal_rig(sim, scheduler_factory=SingleBucketGimbal)
        bucket = scheduler.rate.bucket
        assert type(bucket) is SingleTokenBucket
        pipeline = scheduler.pipeline
        device_submit = pipeline.device_submit
        pools = []

        def observing_submit(request):
            # The pump admits right after ``bucket.consume``: a dual-bucket
            # consume inlined there would leave the pools 4 KiB apart.
            pools.append((request.op, bucket.read_tokens, bucket.write_tokens))
            device_submit(request)

        pipeline.device_submit = observing_submit
        for _ in range(8):
            sessions[0].submit(IoOp.READ, 0, 1)
            sessions[1].submit(IoOp.WRITE, 64, 1)
        sim.run()
        assert {op for op, _, _ in pools} == {IoOp.READ, IoOp.WRITE}
        assert all(read == write for _, read, write in pools)
        assert min(read for _, read, _ in pools) < bucket.max_tokens

    def test_fixed_threshold_completions_reach_swapped_monitors(self, sim):
        scheduler, sessions = build_gimbal_rig(sim, scheduler_factory=FixedThresholdGimbal)
        done = []
        for _ in range(6):
            sessions[0].submit(IoOp.READ, 0, 1, on_complete=done.append)
        for _ in range(4):
            sessions[1].submit(IoOp.WRITE, 64, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 10
        monitors = scheduler.monitors
        assert all(type(monitor) is FixedThresholdMonitor for monitor in monitors.values())
        assert sum(monitors[IoOp.READ].signals.values()) == 6
        assert sum(monitors[IoOp.WRITE].signals.values()) == 4
        assert monitors[IoOp.READ].threshold == 2000.0

    def test_fixed_threshold_monitor_counts_transitions(self):
        monitor = FixedThresholdMonitor(GimbalParams(), fixed_threshold_us=1000.0)
        latencies = (50.0, 60.0, 900.0, 3000.0, 9000.0, 40.0, 40.0, 40.0, 40.0, 40.0, 40.0)
        states = [monitor.state] + [monitor.observe(latency) for latency in latencies]
        changes = sum(1 for before, after in zip(states, states[1:]) if before is not after)
        assert changes >= 4
        assert monitor.transitions == changes
