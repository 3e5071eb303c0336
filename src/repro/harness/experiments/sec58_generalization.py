"""Section 5.8: generalisation to a different SSD (Intel DC P3600).

Reruns the Figure 7-style mixed read/write fairness experiments on the
P3600 device profile with Gimbal's Thresh_max retuned to 3 ms (the
paper's adjustment for the P3600's higher large-read tail latency).
Paper shape: f-Utils stay close to the DCT983 case -- ~0.6-0.7 for the
clean condition and ~0.6-0.9 for the fragmented one -- i.e. Gimbal
adapts to the device.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import P3600_PARAMS
from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    f_utils_for,
    merge_rows,
    mixed_type_specs,
    run_workers,
)
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig

#: condition -> io_pages, matching the Figure 7 b/c workloads.
CONDITIONS = {"clean": 32, "fragmented": 1}


def _point(
    condition: str,
    measure_us: float,
    warmup_us: float,
    workers_per_class: int,
) -> dict:
    """One mixed read/write run on the P3600 profile."""
    specs, _classes = mixed_type_specs(CONDITIONS[condition], workers_per_class)
    results = run_workers(
        TestbedConfig(
            scheme="gimbal",
            condition=condition,
            device_profile="p3600",
            gimbal_params=P3600_PARAMS,
        ),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    futils = f_utils_for(results, specs, condition, device_profile="p3600")
    read_futil = sum(futils[:workers_per_class]) / workers_per_class
    write_futil = sum(futils[workers_per_class:]) / workers_per_class
    return {
        "condition": condition,
        "read_futil": read_futil,
        "write_futil": write_futil,
        "read_mbps": sum(
            w["bandwidth_mbps"] for w in results["workers"][:workers_per_class]
        ),
        "write_mbps": sum(
            w["bandwidth_mbps"] for w in results["workers"][workers_per_class:]
        ),
    }


def sweep(
    measure_us: float = 1_200_000.0,
    warmup_us: float = 600_000.0,
    workers_per_class: int = 8,
):
    """One point per device condition."""
    return build_sweep(
        "sec5.8",
        {"condition": CONDITIONS},
        _point,
        measure_us=measure_us,
        warmup_us=warmup_us,
        workers_per_class=workers_per_class,
    )


def finalize(results) -> Dict[str, object]:
    return {"section": "5.8", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (r["condition"], r["read_futil"], r["write_futil"], r["read_mbps"], r["write_mbps"])
        for r in results["rows"]
    ]
    return format_table(
        ["condition", "read f-Util", "write f-Util", "read MB/s", "write MB/s"],
        table_rows,
        title="Section 5.8: Gimbal on the Intel P3600 profile (Thresh_max = 3ms)",
    )
