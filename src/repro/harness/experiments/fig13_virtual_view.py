"""Figure 13: application optimisations enabled by the SSD virtual view.

8 DB instances over one Gimbal JBOF, comparing three client
configurations:

* **vanilla** -- no credit-driven rate limiting, reads to the primary;
* **+FC** -- the credit-based IO rate limiter;
* **+FC+LB** -- plus the read load balancer steering to the replica
  with more credit.

Paper shape: the rate limiter cuts p99.9 read latency ~28% and the
load balancer a further ~19%.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.report import format_table

#: variant -> the client toggles it sets
VARIANTS = {
    "vanilla": dict(flow_control=False, load_balance=False),
    "+FC": dict(flow_control=True, load_balance=False),
    "+FC+LB": dict(flow_control=True, load_balance=True),
}


def _point(
    workload: str,
    variant: str,
    instances: int,
    record_count: int,
    warmup_us: float,
    measure_us: float,
) -> dict:
    """One (workload, client-configuration) cluster run."""
    cluster = KvCluster(
        KvClusterConfig(
            scheme="gimbal",
            condition="fragmented",
            num_jbofs=1,
            **VARIANTS[variant],
        )
    )
    for index in range(instances):
        cluster.add_instance(f"db{index}", workload, record_count=record_count)
    cluster.load_all()
    results = cluster.run(warmup_us=warmup_us, measure_us=measure_us)
    return {
        "workload": workload,
        "variant": variant,
        "kops": results["total_kops"],
        "read_p999_us": results["read_p999_us"],
    }


def sweep(
    workloads=("A", "B", "C", "D", "F"),
    instances: int = 8,
    record_count: int = 2048,
    warmup_us: float = 300_000.0,
    measure_us: float = 700_000.0,
):
    """One point per (workload, variant) in the original loop order."""
    return build_sweep(
        "fig13",
        {"workload": workloads, "variant": VARIANTS},
        _point,
        instances=instances,
        record_count=record_count,
        warmup_us=warmup_us,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    return {"figure": "13", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["workload"], row["variant"], row["kops"], row["read_p999_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["YCSB", "variant", "KOPS", "read p99.9 us"],
        table_rows,
        title="Figure 13: virtual-view optimisations (vanilla / +FC / +FC+LB)",
    )
