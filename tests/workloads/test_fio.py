"""Tests for the fio-style workers (via the full fabric stack)."""

from __future__ import annotations

import pytest

from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec


def build(scheme="vanilla", condition="clean", **spec_kwargs):
    testbed = Testbed(TestbedConfig(scheme=scheme, condition=condition))
    spec = FioSpec(name="w0", **spec_kwargs)
    worker = testbed.add_worker(spec)
    return testbed, worker


class TestFioSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"io_pages": 0, "queue_depth": 1},
            {"io_pages": 1, "queue_depth": 0},
            {"io_pages": 1, "queue_depth": 1, "read_ratio": 1.5},
            {"io_pages": 1, "queue_depth": 1, "pattern": "zigzag"},
            {"io_pages": 1, "queue_depth": 1, "rate_limit_mbps": -5.0},
            # ``limit <= 0`` is False for NaN, which would run unpaced.
            {"io_pages": 1, "queue_depth": 1, "rate_limit_mbps": float("nan")},
            {"io_pages": 1, "queue_depth": 1, "rate_limit_mbps": float("inf")},
            {"io_pages": 1, "queue_depth": 1, "rate_limit_mbps": float("-inf")},
            # A worker is a reader or a writer; a mix is two workers.
            {"io_pages": 1, "queue_depth": 1, "read_ratio": 0.5},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FioSpec("w", **kwargs)

    def test_mixed_ratio_error_names_the_value(self):
        with pytest.raises(ValueError, match="read_ratio .*got 0.7"):
            FioSpec("w", io_pages=1, queue_depth=1, read_ratio=0.7)


class TestFioWorker:
    def test_closed_loop_measures_throughput(self):
        testbed, worker = build(io_pages=1, queue_depth=16)
        results = testbed.run(warmup_us=20_000, measure_us=100_000)
        assert results["workers"][0]["bandwidth_mbps"] > 10.0
        assert results["workers"][0]["iops"] > 1000.0

    def test_start_is_idempotent(self):
        testbed, worker = build(io_pages=1, queue_depth=4)
        worker.start()
        worker.start()
        assert worker.session.inflight <= 4

    def test_stop_drains(self):
        testbed, worker = build(io_pages=1, queue_depth=4)
        worker.start()
        testbed.sim.run(until_us=5_000.0)
        worker.stop()
        testbed.sim.run()
        assert worker.session.inflight == 0

    def test_rate_limit_respected(self):
        testbed, worker = build(io_pages=1, queue_depth=8, rate_limit_mbps=50.0)
        results = testbed.run(warmup_us=50_000, measure_us=500_000)
        bandwidth = results["workers"][0]["bandwidth_mbps"]
        assert bandwidth <= 55.0
        assert bandwidth > 30.0

    def test_mixed_workload_records_both_ops(self):
        """A mix is a reader beside a writer, each recording its own op."""
        testbed, reader = build(io_pages=1, queue_depth=8, read_ratio=1.0)
        writer = testbed.add_worker(FioSpec("w1", io_pages=1, queue_depth=8, read_ratio=0.0))
        testbed.run(warmup_us=10_000, measure_us=100_000)
        assert reader.read_latency.count > 0 and reader.write_latency.count == 0
        assert writer.write_latency.count > 0 and writer.read_latency.count == 0

    def test_write_only_records_no_reads(self):
        testbed, worker = build(io_pages=1, queue_depth=4, read_ratio=0.0)
        testbed.run(warmup_us=10_000, measure_us=50_000)
        assert worker.read_latency.count == 0
        assert worker.write_latency.count > 0

    def test_begin_measurement_resets(self):
        testbed, worker = build(io_pages=1, queue_depth=4)
        worker.start()
        testbed.sim.run(until_us=20_000.0)
        assert worker.read_latency.count > 0
        worker.begin_measurement()
        assert worker.read_latency.count == 0

    def test_device_latency_below_e2e(self):
        testbed, worker = build(io_pages=1, queue_depth=1)
        testbed.run(warmup_us=10_000, measure_us=50_000)
        assert worker.device_read_latency.mean < worker.read_latency.mean


class TestTestbed:
    def test_region_allocation_is_disjoint(self):
        testbed = Testbed(TestbedConfig())
        a = testbed.allocate_region("ssd0", 1000)
        b = testbed.allocate_region("ssd0", 1000)
        assert a.end <= b.start

    def test_region_exhaustion_rejected(self):
        testbed = Testbed(TestbedConfig())
        with pytest.raises(ValueError):
            testbed.allocate_region("ssd0", 10**9)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            TestbedConfig(scheme="magic")

    def test_results_include_write_amplification(self):
        testbed, _ = build(io_pages=1, queue_depth=1)
        results = testbed.run(warmup_us=1_000, measure_us=10_000)
        assert "ssd0" in results["write_amplification"]

    def test_multiple_ssds(self):
        testbed = Testbed(TestbedConfig(num_ssds=2))
        testbed.add_worker(FioSpec("a", io_pages=1, queue_depth=2), ssd="ssd0")
        testbed.add_worker(FioSpec("b", io_pages=1, queue_depth=2), ssd="ssd1")
        results = testbed.run(warmup_us=5_000, measure_us=20_000)
        assert len(results["workers"]) == 2
        assert all(w["bandwidth_mbps"] > 0 for w in results["workers"])

    def test_null_profile_testbed(self):
        testbed = Testbed(TestbedConfig(device_profile="null", condition="none"))
        testbed.add_worker(FioSpec("a", io_pages=1, queue_depth=8))
        results = testbed.run(warmup_us=5_000, measure_us=50_000)
        assert results["workers"][0]["iops"] > 100_000
