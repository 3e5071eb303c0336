"""Extension study (paper Section 6): Gimbal on QLC NAND.

The paper expects its techniques to carry over to QLC, whose
read/write asymmetry is even more pronounced than TLC's.  This
experiment runs the fragmented mixed read/write workload on the QLC
profile (60 us programs, 2.5 ms erases) with Gimbal's parameters
retuned the way Section 4.2 prescribes for a different medium: a
higher worst-case write cost (the read/write IOPS ratio of the
device) and a higher Thresh_max (slower saturation latencies).

Expected shape: on the unmanaged target the writers' GC traffic
crushes readers even harder than on TLC; Gimbal restores the read
share while holding write latency bounded.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import GimbalParams
from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    merge_rows,
    mixed_type_specs,
    run_workers,
)
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.metrics.histogram import LatencyHistogram

#: Section 4.2-style retuning for the QLC medium.
QLC_GIMBAL_PARAMS = GimbalParams(
    thresh_max_us=3000.0,
    write_cost_worst=16.0,
)


def _point(
    scheme: str, measure_us: float, warmup_us: float, workers_per_class: int
) -> dict:
    """One scheme's fragmented mixed read/write run on the QLC profile."""
    specs, _classes = mixed_type_specs(1, workers_per_class)
    results = run_workers(
        TestbedConfig(
            scheme=scheme,
            condition="fragmented",
            device_profile="qlc",
            gimbal_params=QLC_GIMBAL_PARAMS,
        ),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    read_bw = sum(w["bandwidth_mbps"] for w in results["workers"][:workers_per_class])
    write_bw = sum(w["bandwidth_mbps"] for w in results["workers"][workers_per_class:])
    read_latency = LatencyHistogram()
    for worker in results["testbed"].workers[:workers_per_class]:
        read_latency.merge(worker.read_latency)
    return {
        "scheme": scheme,
        "read_mbps": read_bw,
        "write_mbps": write_bw,
        "read_avg_us": read_latency.mean,
        "read_p99_us": read_latency.percentile(99.0),
    }


def sweep(
    measure_us: float = 900_000.0,
    warmup_us: float = 500_000.0,
    workers_per_class: int = 8,
    schemes=("gimbal", "vanilla", "flashfq"),
):
    """One point per scheme."""
    return build_sweep(
        "ext-qlc",
        {"scheme": schemes},
        _point,
        measure_us=measure_us,
        warmup_us=warmup_us,
        workers_per_class=workers_per_class,
    )


def finalize(results) -> Dict[str, object]:
    return {"experiment": "qlc-extension", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (r["scheme"], r["read_mbps"], r["write_mbps"], r["read_avg_us"], r["read_p99_us"])
        for r in results["rows"]
    ]
    return format_table(
        ["scheme", "read MB/s", "write MB/s", "read avg us", "read p99 us"],
        table_rows,
        title="QLC extension: fragmented 4KB mixed R/W on QLC NAND",
    )
