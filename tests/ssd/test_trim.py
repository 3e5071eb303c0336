"""Tests for TRIM/deallocate support, device through application."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulator
from repro.ssd.commands import DeviceCommand, IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry
from tests.ssd.invariants import check_invariants


class TestDeviceTrim:
    def test_trim_unmaps_range(self, sim):
        device = SsdDevice(sim)
        condition_device(device, "clean")
        done = []
        device.submit(DeviceCommand(IoOp.TRIM, 100, 16), done.append)
        sim.run()
        assert len(done) == 1
        for lpn in range(100, 116):
            assert device.ftl.lookup(lpn) == -1
        # Neighbours untouched.
        assert device.ftl.lookup(99) != -1
        assert device.ftl.lookup(116) != -1

    def test_trim_is_fast(self, sim):
        device = SsdDevice(sim)
        condition_device(device, "clean")
        done = []
        device.submit(DeviceCommand(IoOp.TRIM, 0, 64), done.append)
        sim.run()
        # Metadata-only: no channel work, just controller processing.
        assert done[0].latency_us < 20.0

    def test_trim_counted_in_stats(self, sim):
        device = SsdDevice(sim)
        condition_device(device, "clean")
        device.submit(DeviceCommand(IoOp.TRIM, 0, 8), lambda cmd: None)
        sim.run()
        assert device.stats.trim_commands == 1
        assert device.stats.trimmed_pages == 8

    def test_trim_skips_buffered_pages(self, sim):
        device = SsdDevice(sim)
        condition_device(device, "clean")
        device.submit(DeviceCommand(IoOp.WRITE, 200, 1), lambda cmd: None)
        device.submit(DeviceCommand(IoOp.TRIM, 200, 1), lambda cmd: None)
        sim.run()
        # The in-flight page was not torn out from under its program.
        assert device.ftl.lookup(200) != -1

    def test_trim_improves_write_amplification(self):
        """Pre-invalidating dead data cheapens future GC -- the reason
        filesystems send deallocate."""

        def steady_wa(trim_first: bool) -> float:
            sim = Simulator()
            geometry = SsdGeometry(
                num_channels=4, blocks_per_channel=20, pages_per_block=64, overprovision=0.25
            )
            device = SsdDevice(sim, geometry=geometry)
            exported = device.exported_pages
            ftl = device.ftl
            ftl.write_pages(range(exported))
            rng = random.Random(3)
            ftl.write_pages(rng.randrange(exported // 2) for _ in range(exported))
            if trim_first:
                # Declare the upper half dead before further churn.
                for lpn in range(exported // 2, exported):
                    ftl.trim_page(lpn)
            ftl.stats.host_programs = ftl.stats.gc_programs = 0
            ftl.write_pages(rng.randrange(exported // 2) for _ in range(exported))
            return ftl.stats.write_amplification

        assert steady_wa(trim_first=True) < steady_wa(trim_first=False)


class TestFtlTrimRange:
    def test_out_of_range_trim_is_rejected_not_wrapped(self):
        """``trim_page(-1)`` used to index from the end of the map and
        silently unmap the last exported page."""
        device = SsdDevice(Simulator())
        ftl = device.ftl
        exported = device.exported_pages
        ftl.write_pages([exported - 1])
        for lpn in (-1, exported):
            with pytest.raises(ValueError, match="outside exported range"):
                ftl.trim_page(lpn)
        assert ftl.lookup(exported - 1) != -1
        check_invariants(ftl)


class TestFabricTrim:
    def test_trim_end_to_end(self, sim):
        from repro.baselines.fifo import FifoScheduler
        from repro.fabric.initiator import NvmeOfInitiator
        from repro.fabric.network import Network
        from repro.fabric.target import NvmeOfTarget

        network = Network(sim)
        device = SsdDevice(sim)
        condition_device(device, "clean")
        target = NvmeOfTarget(sim, network, "j", {"ssd0": device}, FifoScheduler)
        session = NvmeOfInitiator(sim, network, "c").connect("t", target, "ssd0")
        done = []
        session.submit(IoOp.TRIM, 0, 64, on_complete=done.append)
        sim.run()
        assert len(done) == 1
        assert device.ftl.lookup(0) == -1
        assert target.pipelines["ssd0"].stats.trims == 1

    def test_trim_through_gimbal(self, sim):
        from repro.core.switch import GimbalScheduler
        from repro.fabric.initiator import NvmeOfInitiator
        from repro.fabric.network import Network
        from repro.fabric.policies import CreditClientPolicy
        from repro.fabric.target import NvmeOfTarget

        network = Network(sim)
        device = SsdDevice(sim)
        condition_device(device, "clean")
        target = NvmeOfTarget(sim, network, "j", {"ssd0": device}, GimbalScheduler)
        session = NvmeOfInitiator(sim, network, "c").connect(
            "t", target, "ssd0", policy=CreditClientPolicy()
        )
        done = []
        # Mix trims with reads and writes through the full switch.
        for index in range(8):
            session.submit(IoOp.READ, index * 8, 8, on_complete=done.append)
            session.submit(IoOp.WRITE, 512 + index * 8, 8, on_complete=done.append)
            session.submit(IoOp.TRIM, 1024 + index * 8, 8, on_complete=done.append)
        sim.run()
        assert len(done) == 24


class TestBlobstoreTrim:
    def test_delete_deallocates_blobs(self, sim):
        from tests.kv.test_blobstore import build_store

        store = build_store(sim)
        file = store.create("f")
        store.extend(file, 128)
        store.delete(file)
        sim.run()
        total_trims = sum(backend.trims for backend in store.backends.values())
        # Two micro blobs per replica side = 4 trim commands.
        assert total_trims == 4
