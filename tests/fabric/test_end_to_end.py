"""End-to-end fabric tests: initiator -> target -> device -> response."""

from __future__ import annotations

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.core.switch import GimbalScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import (
    INITIAL_CREDIT,
    PARDA_EPOCH_US,
    PARDA_INITIAL_WINDOW,
    CreditClientPolicy,
    PardaClientPolicy,
    UnlimitedClientPolicy,
)
from repro.fabric.target import NvmeOfTarget
from repro.harness.testbed import Testbed, TestbedConfig
from repro.ssd.commands import IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import NullDevice, SsdDevice
from repro.workloads.fio import FioSpec
from tests.core.test_switch import build_gimbal_rig


def build_rig(sim, scheduler_factory=FifoScheduler, policy=None, device=None):
    network = Network(sim)
    device = device or NullDevice(sim)
    target = NvmeOfTarget(
        sim, network, "jbof", {"ssd0": device}, scheduler_factory=scheduler_factory
    )
    initiator = NvmeOfInitiator(sim, network, "client")
    session = initiator.connect(
        "tenant-a", target, "ssd0", policy=policy or UnlimitedClientPolicy()
    )
    return network, device, target, session


class TestRequestFlow:
    def test_read_completes_end_to_end(self, sim):
        _, _, _, session = build_rig(sim)
        done = []
        session.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 1
        request = done[0]
        assert request.e2e_latency_us > 0
        assert request.t_target_arrival > request.t_client_submit
        assert request.submit_time >= request.t_target_arrival
        assert request.t_client_complete > request.complete_time

    def test_write_fetches_data_before_device(self, sim):
        """Writes RDMA_READ their payload, adding a client->target data
        transfer before the device sees the IO."""
        _, _, _, session = build_rig(sim)
        read_done = []
        write_done = []
        session.submit(IoOp.READ, 0, 32, on_complete=read_done.append)
        sim.run()
        session.submit(IoOp.WRITE, 0, 32, on_complete=write_done.append)
        sim.run()
        write_req = write_done[0]
        read_req = read_done[0]
        # The write's target->device gap includes the payload transfer.
        write_gap = write_req.submit_time - write_req.t_target_arrival
        read_gap = read_req.submit_time - read_req.t_target_arrival
        assert write_gap > read_gap

    def test_real_device_latency_dominates(self, sim):
        device = SsdDevice(sim)
        condition_device(device, "clean")
        _, _, _, session = build_rig(sim, device=device)
        done = []
        session.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        request = done[0]
        assert request.device_latency_us > 60.0
        assert request.e2e_latency_us > request.device_latency_us

    def test_closed_loop_sustains_throughput(self, sim):
        _, device, _, session = build_rig(sim)
        state = {"count": 0}

        def on_complete(request):
            state["count"] += 1
            if sim.now < 10_000.0:
                session.submit(IoOp.READ, 0, 1, on_complete=on_complete)

        for _ in range(8):
            session.submit(IoOp.READ, 0, 1, on_complete=on_complete)
        sim.run(until_us=20_000.0)
        assert state["count"] > 1000

    def test_unknown_ssd_rejected(self, sim):
        network = Network(sim)
        target = NvmeOfTarget(sim, network, "jbof", {"ssd0": NullDevice(sim)}, FifoScheduler)
        initiator = NvmeOfInitiator(sim, network, "client")
        with pytest.raises(KeyError):
            initiator.connect("t", target, "nope")

    def test_target_requires_devices(self, sim):
        network = Network(sim)
        with pytest.raises(ValueError):
            NvmeOfTarget(sim, network, "jbof", {}, FifoScheduler)

    @pytest.mark.parametrize(
        "scheduler_factory", [FifoScheduler, GimbalScheduler], ids=["vanilla", "gimbal"]
    )
    def test_early_completion_is_refused(self, sim, scheduler_factory):
        """Between ``submit`` and the response a request holds its reply
        route (and, under Gimbal, its virtual slot).  A completion
        delivered then -- early, or the first of two -- is refused before
        the session's counters or the application callback move, on a
        plain session like every KV store's."""
        _scheduler, (session, _) = build_gimbal_rig(sim, scheduler_factory)
        done = []
        request = session.submit(IoOp.READ, 0, 1, on_complete=done.append)
        while request.submit_time is None:
            # One timestamp at a time, so the IO stops short of its response.
            due = sim.next_event_time()
            assert due is not None
            sim.run(until_us=due)
        assert request._reply is not None
        assert (request._slot is not None) == (scheduler_factory is GimbalScheduler)
        with pytest.raises(RuntimeError, match=f"#{request.request_id} .*still owns it"):
            session.deliver_completion(request)
        assert (session.inflight, session.completed, done) == (1, 0, [])
        # The IO itself is unharmed and completes once.
        sim.run()
        assert (session.inflight, session.completed, done) == (0, 1, [request])


class TestClientPolicies:
    def test_window_policy_limits_inflight(self, sim):
        """A FIFO target grants no credit, so the initial credit is a
        fixed window of outstanding IOs."""
        _, _, _, session = build_rig(sim, policy=CreditClientPolicy())
        for _ in range(INITIAL_CREDIT + 8):
            session.submit(IoOp.READ, 0, 1)
        assert session.inflight == INITIAL_CREDIT
        assert session.queued == 8

    def test_unlimited_policy_fills_queue_depth(self, sim):
        _, _, _, session = build_rig(sim)
        for _ in range(10):
            session.submit(IoOp.READ, 0, 1)
        assert session.inflight == 10

    def test_credit_policy_follows_grants(self, sim):
        policy = CreditClientPolicy()
        _, _, _, session = build_rig(
            sim, scheduler_factory=GimbalScheduler, policy=policy
        )
        for _ in range(50):
            session.submit(IoOp.READ, 0, 1)
        assert session.inflight <= INITIAL_CREDIT
        sim.run()
        # Gimbal granted credits on completions.
        assert policy.credit_total > 0
        assert session.completed == 50

    def test_parda_policy_window_shrinks_on_high_latency(self):
        """Behind a fragmented SSD, a 4 KiB writer beside the reader
        pushes the reader's latency past PARDA's threshold, and its
        window closes below where it started."""
        testbed = Testbed(TestbedConfig(scheme="parda", condition="fragmented", seed=1))
        reader = testbed.add_worker(FioSpec("rd", io_pages=1, queue_depth=32, read_ratio=1.0))
        testbed.add_worker(FioSpec("wr", io_pages=1, queue_depth=32, read_ratio=0.0))
        for worker in testbed.workers:
            worker.start()
        testbed.sim.run(until_us=45_000.0)
        assert reader.session.policy.window < PARDA_INITIAL_WINDOW

    def test_parda_window_grows_when_fast(self, sim):
        policy = PardaClientPolicy()
        _, _, _, session = build_rig(sim, policy=policy)

        def loop(request):
            if sim.now < 4 * PARDA_EPOCH_US:
                session.submit(IoOp.READ, 0, 1, on_complete=loop)

        for _ in range(4):
            session.submit(IoOp.READ, 0, 1, on_complete=loop)
        sim.run()
        assert policy.window > PARDA_INITIAL_WINDOW

    def test_policy_cannot_be_rebound(self, sim):
        policy = CreditClientPolicy()
        build_rig(sim, policy=policy)
        with pytest.raises(RuntimeError):
            build_rig(sim, policy=policy)


class TestCycleAccounting:
    def test_cores_accumulate_tagged_work(self, sim):
        _, _, target, session = build_rig(sim)
        done = []
        for _ in range(10):
            session.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        core = target.cores[0]
        metrics = core.metrics()
        # one submit and one complete per IO
        assert {tag: rec[1] for tag, rec in core._by_tag.items()} == {
            "submit": 10,
            "complete": 10,
        }
        assert metrics["busy_us.submit"] > 0 and metrics["busy_us.complete"] > 0
        assert metrics["busy_us"] > 0
