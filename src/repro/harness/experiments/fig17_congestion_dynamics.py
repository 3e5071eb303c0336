"""Figure 17 (Appendix B): latency impulse as load crosses capacity.

A 4 KiB + 128 KiB mixed read workload whose intensity steps up over
time on a vanilla target.  Paper shape: bandwidth saturates while
average latency explodes once the offered load exceeds the device's
throughput capacity -- the impulse response that motivates using delay
as the congestion signal.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import Sweep, derived_run
from repro.harness.report import format_series
from repro.harness.testbed import Testbed, TestbedConfig
from repro.metrics.throughput import IntervalSeries
from repro.workloads.fio import FioSpec


def _point(
    phase_us: float, sample_window_us: float, steps: int
) -> Dict[str, object]:
    """The whole ramp is one simulation, hence one sweep point."""
    testbed = Testbed(TestbedConfig(scheme="vanilla", condition="clean"))
    small_workers = [
        testbed.add_worker(
            FioSpec(f"s{i}", io_pages=1, queue_depth=32, read_ratio=1.0), region_pages=1600
        )
        for i in range(steps)
    ]
    large_workers = [
        testbed.add_worker(
            FioSpec(f"l{i}", io_pages=32, queue_depth=4, read_ratio=1.0), region_pages=1600
        )
        for i in range(steps)
    ]
    sim = testbed.sim
    latency = {
        "4KB": IntervalSeries(sample_window_us, mode="mean"),
        "128KB": IntervalSeries(sample_window_us, mode="mean"),
    }
    bandwidth = IntervalSeries(sample_window_us, mode="sum")

    def tap(worker, key):
        original = worker._on_complete

        def tapped(request):
            latency[key].record(sim.now, request.e2e_latency_us)
            bandwidth.record(sim.now, request.size_bytes)
            original(request)

        worker._on_complete = tapped

    for worker in small_workers:
        tap(worker, "4KB")
    for worker in large_workers:
        tap(worker, "128KB")

    def timeline():
        for index in range(steps):
            small_workers[index].start()
            large_workers[index].start()
            yield phase_us

    sim.process(timeline())
    sim.run(until_us=phase_us * (steps + 1))
    return {
        "figure": "17",
        "latency_4k": latency["4KB"].series(),
        "latency_128k": latency["128KB"].series(),
        "bandwidth_mbps": bandwidth.bandwidth_series_mbps(),
    }


def sweep(
    phase_us: float = 500_000.0,
    sample_window_us: float = 50_000.0,
    steps: int = 6,
):
    sw = Sweep("fig17")
    sw.point(
        _point,
        label="impulse",
        phase_us=phase_us,
        sample_window_us=sample_window_us,
        steps=steps,
    )
    return sw


def finalize(results) -> Dict[str, object]:
    return results[0]


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    return "\n".join(
        [
            "Figure 17: latency impulse under rising mixed read load",
            format_series("4KB avg latency (us)", results["latency_4k"][:40]),
            format_series("128KB avg latency (us)", results["latency_128k"][:40]),
            format_series("aggregate bandwidth (MB/s)", results["bandwidth_mbps"][:40]),
        ]
    )
