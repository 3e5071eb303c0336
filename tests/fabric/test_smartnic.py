"""Tests for the SmartNIC core model and CPU cost accounting."""

from __future__ import annotations

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.fabric.network import Network
from repro.fabric.smartnic import CYCLES_PER_US, SERVER_CPU, SMARTNIC_CPU, CpuCostModel, NicCore
from repro.fabric.target import NvmeOfTarget
from repro.harness.testbed import TestbedConfig
from repro.ssd.device import NullDevice


class TestNicCore:
    def test_booking_advances_horizon(self, sim):
        core = NicCore(sim)
        done = core.book(5.0, tag="submit")
        assert done == 5.0
        assert core.busy_until == 5.0

    def test_consecutive_bookings_queue(self, sim):
        core = NicCore(sim)
        core.book(5.0)
        done = core.book(3.0)
        assert done == 8.0

    def test_booking_after_idle_starts_now(self, sim):
        core = NicCore(sim)
        core.book(1.0)
        sim.at(100.0, lambda: None)
        sim.run()
        done = core.book(2.0)
        assert done == 102.0

    def test_negative_cost_rejected(self, sim):
        core = NicCore(sim)
        with pytest.raises(ValueError):
            core.book(-1.0)

    def test_nan_cost_rejected(self, sim):
        # ``nan < 0`` is false: a sign check alone let NaN poison the
        # core's horizon and every booking after it.
        core = NicCore(sim)
        with pytest.raises(ValueError):
            core.book(float("nan"))
        assert core.busy_until == 0.0

    def test_tag_accounting(self, sim):
        core = NicCore(sim)
        core.book(2.0, tag="submit")
        core.book(4.0, tag="submit")
        core.book(1.0, tag="complete")
        cycles = core.mean_cycles_by_tag()
        assert cycles["submit"] == pytest.approx(3.0 * CYCLES_PER_US)
        assert cycles["complete"] == pytest.approx(1.0 * CYCLES_PER_US)


class TestAddedIoCostKnob:
    """The pipeline books its per-IO costs inline, without
    ``NicCore.book``'s negative-cost refusal, so the Figure 16 knob is
    refused where it enters -- not a millisecond later as a kernel
    error about scheduling in the past."""

    def test_config_refuses_a_negative_knob(self):
        with pytest.raises(ValueError, match="added_io_cost_us"):
            TestbedConfig(added_io_cost_us=-5.0)
        assert TestbedConfig(added_io_cost_us=0.0).added_io_cost_us == 0.0

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_config_refuses_a_non_finite_knob(self, cost):
        # NaN used to die at the first event ("Cannot schedule at
        # t=nan"); inf ran to 0 MB/s without a word.
        with pytest.raises(ValueError, match="added_io_cost_us"):
            TestbedConfig(added_io_cost_us=cost)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_pipeline_refuses_a_non_finite_knob(self, sim, cost):
        target = NvmeOfTarget(sim, Network(sim), "j", {"ssd0": NullDevice(sim)}, FifoScheduler)
        pipeline = target.pipelines["ssd0"]
        with pytest.raises(ValueError, match="added_io_cost_us"):
            pipeline.added_io_cost_us = cost
        assert pipeline.added_io_cost_us == 0.0

    def test_pipeline_refuses_a_negative_knob(self, sim):
        devices = {"ssd0": NullDevice(sim)}
        with pytest.raises(ValueError, match="added_io_cost_us"):
            NvmeOfTarget(
                sim, Network(sim), "j", devices, FifoScheduler, added_io_cost_us=-5.0
            )
        target = NvmeOfTarget(sim, Network(sim), "j", devices, FifoScheduler)
        pipeline = target.pipelines["ssd0"]
        before = pipeline._submit_cost_us
        with pytest.raises(ValueError, match="added_io_cost_us"):
            pipeline.added_io_cost_us = -0.5
        assert (pipeline.added_io_cost_us, pipeline._submit_cost_us) == (0.0, before)
        pipeline.added_io_cost_us = 2.0
        assert pipeline._submit_cost_us == pytest.approx(before + 2.0)


def _read_io_cost_us(model, npages, real_device):
    """Core time one read of ``npages`` books: submission plus completion."""
    return (
        model.submit_cost_us(real_device=real_device)
        + model.read_complete_cost_table(real_device=real_device)[npages]
    )


class TestCpuCostModel:
    def test_io_cost_composition(self):
        model = CpuCostModel("m", 1.0, 0.5, 0.1, 2.0)
        assert _read_io_cost_us(model, 4, real_device=False) == pytest.approx(1.9)
        assert _read_io_cost_us(model, 4, real_device=True) == pytest.approx(3.9)

    def test_smartnic_slower_than_server(self):
        smartnic = _read_io_cost_us(SMARTNIC_CPU, 1, real_device=True)
        server = _read_io_cost_us(SERVER_CPU, 1, real_device=True)
        assert smartnic > 2 * server

    def test_null_device_iops_anchor(self):
        """Vanilla SPDK drives ~937 KIOPS on one SmartNIC core against
        a NULL device (Table 1b): fixed cost ~1.07 us."""
        per_io = _read_io_cost_us(SMARTNIC_CPU, 1, real_device=False)
        iops = 1e6 / per_io
        assert 800_000 < iops < 1_100_000
