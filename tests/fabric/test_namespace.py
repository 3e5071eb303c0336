"""Tests for NVMe namespaces, alone and behind the fabric pipeline."""

from __future__ import annotations

import pytest

from repro.fabric.namespace import Namespace, NamespaceError
from repro.ssd.conditioning import condition_device
from repro.ssd.device import NullDevice, SsdDevice


class TestNamespace:
    def test_translate(self):
        namespace = Namespace(1, "ssd0", base_lpn=100, npages=50)
        assert namespace.translate(0, 1) == 100
        assert namespace.translate(49, 1) == 149

    def test_out_of_range_rejected(self):
        namespace = Namespace(1, "ssd0", base_lpn=100, npages=50)
        with pytest.raises(NamespaceError):
            namespace.translate(49, 2)
        with pytest.raises(NamespaceError):
            namespace.translate(-1, 1)

    def test_invalid_namespace_rejected(self):
        with pytest.raises(ValueError):
            Namespace(0, "s", 0, 10)
        with pytest.raises(ValueError):
            Namespace(1, "s", 0, 0)

    def test_size_bytes(self):
        assert Namespace(1, "s", 0, 256).size_bytes == 1 << 20


class TestFabricNamespaceIntegration:
    def test_pipeline_translates_namespace_lbas(self, sim):
        from repro.baselines.fifo import FifoScheduler
        from repro.fabric.initiator import NvmeOfInitiator
        from repro.fabric.network import Network
        from repro.fabric.target import NvmeOfTarget
        from repro.ssd.commands import IoOp

        network = Network(sim)
        device = SsdDevice(sim)
        condition_device(device, "clean")
        target = NvmeOfTarget(sim, network, "j", {"ssd0": device}, FifoScheduler)
        initiator = NvmeOfInitiator(sim, network, "c")
        session = initiator.connect("t", target, "ssd0")
        namespace = Namespace(1, "ssd0", base_lpn=5000, npages=100)
        target.pipeline("ssd0").register_tenant("t", session.client_port, namespace=namespace)
        done = []
        session.submit(IoOp.READ, 0, 1, on_complete=done.append)
        sim.run()
        assert len(done) == 1

    def test_pipeline_rejects_out_of_namespace_io(self, sim):
        from repro.baselines.fifo import FifoScheduler
        from repro.fabric.initiator import NvmeOfInitiator
        from repro.fabric.network import Network
        from repro.fabric.target import NvmeOfTarget
        from repro.ssd.commands import IoOp

        network = Network(sim)
        target = NvmeOfTarget(sim, network, "j", {"ssd0": NullDevice(sim)}, FifoScheduler)
        initiator = NvmeOfInitiator(sim, network, "c")
        session = initiator.connect("t", target, "ssd0")
        namespace = Namespace(1, "ssd0", base_lpn=0, npages=10)
        target.pipeline("ssd0").register_tenant("t", session.client_port, namespace=namespace)
        session.submit(IoOp.READ, 50, 1)
        with pytest.raises(NamespaceError):
            sim.run()
