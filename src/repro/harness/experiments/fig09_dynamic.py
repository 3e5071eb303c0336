"""Figure 9: dynamic workload -- write-cost adaptation over time.

Gimbal on one SSD.  Eight rate-capped readers (200 MB/s each) start;
one rate-capped writer (60 MB/s) arrives per phase until 8 writers
run, then readers leave one per phase.  The paper's story: the first
writer's IOs are absorbed by the device write buffer, so its latency
stays near-buffer-level and Gimbal drops the write cost toward 1; as
writers accumulate the write rate exceeds the buffer's drain rate,
latency jumps ~10x, the estimated cost climbs back toward worst case,
and write bandwidth converges to the fair share.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import Sweep, derived_run
from repro.harness.report import format_series
from repro.harness.testbed import Testbed, TestbedConfig
from repro.metrics.throughput import IntervalSeries
from repro.ssd.commands import OP_READ
from repro.workloads.fio import FioSpec


def _point(
    phase_us: float,
    sample_window_us: float,
    num_readers: int,
    num_writers: int,
    condition: str,
) -> Dict[str, object]:
    """The whole dynamic run is one simulation, hence one sweep point."""
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition=condition))
    readers = [
        testbed.add_worker(
            FioSpec(
                f"rd{i}", io_pages=32, queue_depth=4, read_ratio=1.0, rate_limit_mbps=200.0
            ),
            region_pages=1600,
        )
        for i in range(num_readers)
    ]
    writers = [
        testbed.add_worker(
            FioSpec(
                f"wr{i}",
                io_pages=32,
                queue_depth=4,
                read_ratio=0.0,
                pattern="sequential",
                rate_limit_mbps=60.0,
            ),
            region_pages=1600,
        )
        for i in range(num_writers)
    ]
    sim = testbed.sim
    scheduler = testbed.target.pipelines["ssd0"].scheduler

    bandwidth = {
        worker.spec.name: IntervalSeries(sample_window_us, mode="sum") for worker in readers + writers
    }
    latency = {
        "read": IntervalSeries(sample_window_us, mode="mean"),
        "write": IntervalSeries(sample_window_us, mode="mean"),
    }
    write_cost_series = IntervalSeries(sample_window_us, mode="last")

    # Tap per-completion data through the workers' histograms by
    # wrapping each worker's completion hook.
    for worker in readers + writers:
        original = worker._on_complete

        def tapped(request, worker=worker, original=original):
            bandwidth[worker.spec.name].record(sim.now, request.size_bytes)
            key = "read" if request.op is OP_READ else "write"
            latency[key].record(sim.now, request.device_latency_us)
            write_cost_series.record(sim.now, scheduler.write_cost.cost)
            original(request)

        worker._on_complete = tapped

    def timeline():
        for reader in readers:
            reader.start()
        yield phase_us
        for writer in writers:
            writer.start()
            yield phase_us
        for reader in readers:
            reader.stop()
            yield phase_us

    testbed.sim.process(timeline())
    total_phases = 1 + num_writers + num_readers
    testbed.sim.run(until_us=phase_us * (total_phases + 1))

    return {
        "figure": "9",
        "phase_us": phase_us,
        "per_worker_bandwidth": {
            name: series.bandwidth_series_mbps() for name, series in bandwidth.items()
        },
        "latency_series": {key: series.series() for key, series in latency.items()},
        "write_cost_series": write_cost_series.series(),
    }


def sweep(
    phase_us: float = 500_000.0,
    sample_window_us: float = 100_000.0,
    num_readers: int = 8,
    num_writers: int = 8,
    condition: str = "fragmented",
):
    sw = Sweep("fig09")
    sw.point(
        _point,
        label="dynamic",
        phase_us=phase_us,
        sample_window_us=sample_window_us,
        num_readers=num_readers,
        num_writers=num_writers,
        condition=condition,
    )
    return sw


def finalize(results) -> Dict[str, object]:
    return results[0]


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    parts = [
        "Figure 9: dynamic workload (phase = %.1fs)" % (results["phase_us"] / 1e6),
        format_series("read device latency (us)", results["latency_series"]["read"][:40]),
        format_series("write device latency (us)", results["latency_series"]["write"][:40]),
        format_series("estimated write cost", results["write_cost_series"][:40]),
    ]
    return "\n".join(parts)
