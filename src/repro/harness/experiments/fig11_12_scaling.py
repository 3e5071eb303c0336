"""Figures 11 & 12: throughput and read latency vs DB instance count.

Gimbal-configured JBOFs, sweeping the number of RocksDB instances.
Paper shape: throughput grows with instances until the JBOFs saturate
(A/B/D flatten around 20 instances, F around 16), while average read
latency creeps up with consolidation; the read-only workload C scales
furthest.

Scaled defaults sweep 1..6 instances over one JBOF (the paper sweeps
4..24 over three).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.harness.experiments.common import Sweep, derived_run, merge_rows
from repro.harness.kvcluster import run_one
from repro.harness.report import format_table

DEFAULT_SWEEP = (1, 2, 4, 6)


def _point(workload: str, instances: int, **kwargs) -> dict:
    """One Gimbal (workload, instance count) cell, reshaped for the figure."""
    result = run_one("gimbal", workload, instances=instances, **kwargs)
    return {
        "workload": workload,
        "instances": instances,
        "kops": result["kops"],
        "read_avg_us": result["read_avg_us"],
    }


def sweep(
    workloads: Sequence[str] = ("A", "C", "F"),
    instance_counts: Sequence[int] = DEFAULT_SWEEP,
    **kwargs,
):
    """One point per (workload, instance count) in the original loop order."""
    sw = Sweep("fig11-12")
    for workload in workloads:
        for count in instance_counts:
            sw.point(
                _point,
                label=f"workload={workload},instances={count}",
                workload=workload,
                instances=count,
                **kwargs,
            )
    return sw


def finalize(results) -> Dict[str, object]:
    return {"figure": "11+12", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["workload"], row["instances"], row["kops"], row["read_avg_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["YCSB", "instances", "KOPS", "read avg us"],
        table_rows,
        title="Figures 11/12: scaling the number of DB instances (Gimbal)",
    )
