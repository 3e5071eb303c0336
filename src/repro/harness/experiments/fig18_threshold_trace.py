"""Figure 18 (Appendix B): the dynamic latency threshold at work.

128 KiB random reads through Gimbal while the offered load ramps;
samples the read monitor's EWMA latency and its threshold.  Paper
shape: the threshold decays toward the EWMA between congestion events
and jumps toward Thresh_max whenever the EWMA crosses it, so signals
fire more frequently as the EWMA approaches saturation.
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
    phase_us: float, sample_window_us: float, steps: int
) -> Dict[str, object]:
    """The whole ramp is one simulation, hence one sweep point."""
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition="clean"))
    workers = [
        testbed.add_worker(
            FioSpec(f"w{i}", io_pages=32, queue_depth=4, read_ratio=1.0), region_pages=1600
        )
        for i in range(steps)
    ]
    sim = testbed.sim
    monitor = testbed.target.pipelines["ssd0"].scheduler.monitors[OP_READ]
    ewma_series = IntervalSeries(sample_window_us, mode="last")
    threshold_series = IntervalSeries(sample_window_us, mode="last")

    def sampler():
        while True:
            ewma_series.record(sim.now, monitor.ewma_latency_us)
            threshold_series.record(sim.now, monitor.threshold)
            yield sample_window_us / 2

    sim.process(sampler())

    def timeline():
        for worker in workers:
            worker.start()
            yield phase_us

    sim.process(timeline())
    sim.run(until_us=phase_us * (steps + 1))
    return {
        "figure": "18",
        "ewma_latency": ewma_series.series(),
        "threshold": threshold_series.series(),
        "signals": {state.name: count for state, count in monitor.signals.items()},
    }


def sweep(
    phase_us: float = 300_000.0,
    sample_window_us: float = 20_000.0,
    steps: int = 12,
):
    sw = Sweep("fig18")
    sw.point(
        _point,
        label="threshold-trace",
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
            "Figure 18: dynamic latency threshold (128KB random read)",
            format_series("EWMA latency (us)", results["ewma_latency"][:40]),
            format_series("threshold (us)", results["threshold"][:40]),
            f"signal counts: {results['signals']}",
        ]
    )
