"""Tests for tenant disconnect and share redistribution."""

from __future__ import annotations

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.baselines.flashfq import FlashFqScheduler
from repro.baselines.reflex import ReflexScheduler
from repro.core.switch import GimbalScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.namespace import Namespace
from repro.fabric.network import Network
from repro.fabric.policies import CreditClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.ssd.commands import IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import NullDevice, SsdDevice


def build(sim, scheduler_factory=GimbalScheduler, tenants=2):
    network = Network(sim)
    target = NvmeOfTarget(sim, network, "j", {"ssd0": NullDevice(sim)}, scheduler_factory)
    initiator = NvmeOfInitiator(sim, network, "c")
    sessions = [
        initiator.connect(f"t{i}", target, "ssd0") for i in range(tenants)
    ]
    return target, initiator, sessions


class TestDisconnect:
    def test_disconnect_removes_tenant(self, sim):
        target, initiator, sessions = build(sim)
        scheduler = target.pipelines["ssd0"].scheduler
        assert "t0" in scheduler.drr.tenants
        sessions[0].disconnect()
        assert "t0" not in scheduler.drr.tenants
        assert sessions[0] not in initiator.sessions

    def test_disconnect_with_inflight_rejected(self, sim):
        _, _, sessions = build(sim)
        sessions[0].submit(IoOp.READ, 0, 1)
        with pytest.raises(RuntimeError):
            sessions[0].disconnect()
        sim.run()
        sessions[0].disconnect()

    def test_slot_share_grows_when_tenants_leave(self, sim):
        target, _, sessions = build(sim, tenants=8)
        scheduler = target.pipelines["ssd0"].scheduler
        assert scheduler.drr.slot_limit == 1
        for session in sessions[:6]:
            session.disconnect()
        assert scheduler.drr.slot_limit == 4

    def test_remaining_tenants_keep_working(self, sim):
        target, _, sessions = build(sim, tenants=3)
        for session in sessions:
            session.submit(IoOp.READ, 0, 1)
        sim.run()
        sessions[0].disconnect()
        done = []
        sessions[1].submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 1

    @pytest.mark.parametrize(
        "factory", [FifoScheduler, ReflexScheduler, FlashFqScheduler]
    )
    def test_baseline_schedulers_support_disconnect(self, sim, factory):
        target, _, sessions = build(sim, scheduler_factory=factory)
        sessions[0].submit(IoOp.READ, 0, 1)
        sim.run()
        sessions[0].disconnect()
        done = []
        sessions[1].submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 1

    def test_gimbal_rejects_disconnect_with_target_side_backlog(self, sim):
        """Pending IO inside the switch blocks disconnect too."""
        network = Network(sim)
        device = SsdDevice(sim)
        condition_device(device, "clean")
        target = NvmeOfTarget(sim, network, "j", {"ssd0": device}, GimbalScheduler)
        session = NvmeOfInitiator(sim, network, "c").connect(
            "t", target, "ssd0", policy=CreditClientPolicy()
        )
        for _ in range(4):
            session.submit(IoOp.READ, 0, 32)
        sim.run(until_us=20.0)  # capsules en route / queued at the switch
        with pytest.raises(RuntimeError):
            session.disconnect()
        sim.run()
        session.disconnect()


class TestAfterDisconnect:
    """A disconnected session is closed.  The target has dropped the
    tenant's namespace and scheduler share, so a capsule sent afterwards
    would run on raw LBAs -- another tenant's range -- under a share the
    scheduler silently re-creates."""

    @pytest.mark.parametrize("factory", [FifoScheduler, GimbalScheduler])
    def test_submit_after_disconnect_is_refused_before_anything_moves(self, sim, factory):
        network = Network(sim)
        device = NullDevice(sim)
        target = NvmeOfTarget(sim, network, "j", {"ssd0": device}, factory)
        initiator = NvmeOfInitiator(sim, network, "c")
        leaver = initiator.connect(
            "leaver", target, "ssd0", namespace=Namespace(1, "ssd0", 1000, 100)
        )
        stayer = initiator.connect(
            "stayer", target, "ssd0", namespace=Namespace(2, "ssd0", 0, 100)
        )
        leaver.submit(IoOp.READ, 0, 1)
        sim.run()
        leaver.disconnect()
        scheduler = target.pipelines["ssd0"].scheduler
        sent = leaver.client_port.messages_sent
        seq = sim._seq
        done = []
        with pytest.raises(RuntimeError, match="'leaver'.*disconnected"):
            leaver.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        # Nothing was stamped, sent, scheduled or executed ...
        assert not done and sim._seq == seq
        assert (leaver.submitted, leaver.inflight, leaver.queued) == (1, 0, 0)
        assert leaver.client_port.messages_sent == sent
        assert device.stats.read_commands == 1
        # ... and the departed tenant did not come back at the target.
        if factory is GimbalScheduler:
            assert "leaver" not in scheduler.drr.tenants
        stayer.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 1 and done[0].lpn == 0

    def test_second_disconnect_is_refused(self, sim):
        _, initiator, sessions = build(sim)
        sessions[0].disconnect()
        with pytest.raises(RuntimeError, match="'t0'.*disconnected"):
            sessions[0].disconnect()
        # The first one did its job exactly once.
        assert sessions[0] not in initiator.sessions
        assert sessions[1] in initiator.sessions
