"""Pipeline trim path: deallocate flows end-to-end without payload.

Regression tests for the throughput-attribution bug where
``SsdPipeline._send_response`` counted a trim's nominal LBA range into
``by_tenant_bytes`` even though a deallocate transfers no data.
"""

from __future__ import annotations

from repro.baselines.fifo import FifoScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import UnlimitedClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.ssd.commands import IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import NullDevice, SsdDevice
from repro.ssd.geometry import SsdGeometry


def build_rig(sim, device=None):
    network = Network(sim)
    device = device or NullDevice(sim)
    target = NvmeOfTarget(
        sim, network, "jbof", {"ssd0": device}, scheduler_factory=FifoScheduler
    )
    initiator = NvmeOfInitiator(sim, network, "client")
    session = initiator.connect(
        "tenant-a", target, "ssd0", policy=UnlimitedClientPolicy()
    )
    pipeline = target.pipeline("ssd0")
    return device, pipeline, session


class TestTrimResponse:
    def test_trim_completes_and_routes_reply(self, sim):
        device, pipeline, session = build_rig(sim)
        done = []
        session.submit(IoOp.TRIM, 0, 64, on_complete=done.append)
        sim.run()
        assert len(done) == 1
        assert done[0].op is IoOp.TRIM
        assert done[0].e2e_latency_us > 0
        assert pipeline.stats.trims == 1
        assert device.stats.trim_commands == 1
        assert device.stats.trimmed_pages == 64
        # The reply route must be consumed, not leaked.
        assert pipeline._inflight_replies == 0

    def test_trim_does_not_count_into_tenant_bytes(self, sim):
        """A 64-page deallocate must not attribute 256 KiB of
        'throughput' to the tenant."""
        _, pipeline, session = build_rig(sim)
        session.submit(IoOp.READ, 0, 4, on_complete=lambda r: None)
        session.submit(IoOp.TRIM, 0, 64, on_complete=lambda r: None)
        sim.run()
        # Only the read's payload is attributed.
        assert pipeline.stats.by_tenant_bytes == {"tenant-a": 4 * 4096}
        assert pipeline.stats.read_bytes == 4 * 4096
        assert pipeline.stats.write_bytes == 0

    def test_trim_only_workload_attributes_zero_bytes(self, sim):
        _, pipeline, session = build_rig(sim)
        for _ in range(10):
            session.submit(IoOp.TRIM, 0, 8, on_complete=lambda r: None)
        sim.run()
        assert pipeline.stats.trims == 10
        assert pipeline.stats.by_tenant_bytes == {}

    def test_trim_books_no_channel_work(self, sim):
        """On a real SSD, deallocate is FTL metadata only: the
        channel-time horizons stay untouched."""
        geometry = SsdGeometry(
            num_channels=4, blocks_per_channel=12, pages_per_block=64, overprovision=0.35
        )
        device = SsdDevice(sim, geometry=geometry)
        condition_device(device, "clean")
        _, pipeline, session = build_rig(sim, device=device)
        done = []
        session.submit(IoOp.TRIM, 0, 32, on_complete=done.append)
        sim.run()
        assert len(done) == 1
        assert device._fg_horizon == [0.0] * geometry.num_channels
        assert device._wr_horizon == [0.0] * geometry.num_channels
        assert device.stats.trimmed_pages == 32
