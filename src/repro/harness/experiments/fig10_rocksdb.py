"""Figure 10: RocksDB/YCSB performance across schemes.

DB instances over SmartNIC JBOFs on fragmented SSDs, running the five
core YCSB workloads.  Paper shape: Gimbal improves throughput ~1.3-2.1x
over the baselines with lower average and p99.9 read latency; the
update-heavy mixes (A, F) gain the most, the read-only mix (C) the
least, because Gimbal's win is scheduling mixed read/write traffic.

Scaled defaults: the paper runs 24 instances over 3 JBOFs (12 SSDs);
the default here is 6 instances over 1 JBOF (4 SSDs), which keeps the
per-SSD consolidation comparable while fitting a benchmark budget.
Pass ``num_jbofs=3, instances=24`` for the full-scale configuration.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.kvcluster import run_one
from repro.harness.report import format_table

WORKLOADS = ("A", "B", "C", "D", "F")


def sweep(
    schemes=("gimbal", "reflex", "parda", "flashfq"),
    workloads=WORKLOADS,
    **kwargs,
):
    """One point per (workload, scheme) in the original loop order."""
    return build_sweep("fig10", {"workload": workloads, "scheme": schemes}, run_one, **kwargs)


def finalize(results) -> Dict[str, object]:
    return {"figure": "10", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["workload"], row["scheme"], row["kops"], row["read_avg_us"], row["read_p999_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["YCSB", "scheme", "KOPS", "read avg us", "read p99.9 us"],
        table_rows,
        title="Figure 10: RocksDB/YCSB across schemes (fragmented SSDs)",
    )
