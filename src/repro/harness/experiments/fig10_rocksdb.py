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

from repro.harness.experiments.common import Sweep, derived_run, merge_rows
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.report import format_table

WORKLOADS = ("A", "B", "C", "D", "F")


def run_one(
    scheme: str,
    workload: str,
    instances: int = 6,
    num_jbofs: int = 1,
    record_count: int = 2048,
    warmup_us: float = 300_000.0,
    measure_us: float = 700_000.0,
) -> Dict[str, object]:
    cluster = KvCluster(
        KvClusterConfig(scheme=scheme, condition="fragmented", num_jbofs=num_jbofs)
    )
    for index in range(instances):
        cluster.add_instance(f"db{index}", workload, record_count=record_count)
    cluster.load_all()
    results = cluster.run(warmup_us=warmup_us, measure_us=measure_us)
    return {
        "scheme": scheme,
        "workload": workload,
        "kops": results["total_kops"],
        "read_avg_us": results["read_avg_us"],
        "read_p999_us": results["read_p999_us"],
    }


def sweep(
    schemes=("gimbal", "reflex", "parda", "flashfq"),
    workloads=WORKLOADS,
    **kwargs,
):
    """One point per (workload, scheme) in the original loop order."""
    sw = Sweep("fig10")
    for workload in workloads:
        for scheme in schemes:
            sw.point(
                run_one,
                label=f"workload={workload},scheme={scheme}",
                scheme=scheme,
                workload=workload,
                **kwargs,
            )
    return sw


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
