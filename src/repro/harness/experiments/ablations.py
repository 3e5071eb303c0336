"""Ablation study: disable one Gimbal mechanism at a time.

Runs the Figure 7-style workloads against each variant in
:mod:`repro.core.ablations`:

* mixed IO sizes on a clean device (exercises virtual slots),
* mixed read/write on a clean device (exercises the dynamic write
  cost -- a frozen worst case recreates ReFlex's clean-write collapse),
* mixed read/write on a fragmented device (exercises the dual bucket
  and the threshold dynamics).
"""

from __future__ import annotations

from typing import Dict

from repro.core.ablations import ABLATIONS
from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    merge_rows,
    mixed_size_specs,
    mixed_type_specs,
    run_workers,
)
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.metrics.histogram import LatencyHistogram

DEFAULT_VARIANTS = ("full", "fixed-threshold", "single-bucket", "no-slots", "static-cost")


def _case_specs(case: str, workers: int):
    if case == "sizes-clean":
        return "clean", *mixed_size_specs(workers, max(1, workers // 4))
    if case == "rw-clean":
        return "clean", *mixed_type_specs(32, workers)
    return "fragmented", *mixed_type_specs(1, workers)  # rw-frag


def _point(
    case: str, variant: str, measure_us: float, warmup_us: float, workers: int
) -> dict:
    """One (case, ablation variant) run."""
    condition, specs, groups = _case_specs(case, workers)
    scheduler_cls = ABLATIONS[variant]
    results = run_workers(
        TestbedConfig(
            scheme="gimbal",
            condition=condition,
            scheduler_factory=scheduler_cls,
        ),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    by_group: Dict[str, float] = {}
    for worker, group in zip(results["workers"], groups):
        by_group[group] = by_group.get(group, 0.0) + worker["bandwidth_mbps"]
    tail = LatencyHistogram()
    for worker in results["testbed"].workers:
        tail.merge(worker.read_latency)
        tail.merge(worker.write_latency)
    return {
        "case": case,
        "variant": variant,
        "by_group_mbps": by_group,
        "total_mbps": results["total_bandwidth_mbps"],
        "p99_us": tail.percentile(99.0),
    }


def sweep(
    measure_us: float = 900_000.0,
    warmup_us: float = 500_000.0,
    workers: int = 8,
    variants=DEFAULT_VARIANTS,
):
    """One point per (case, variant) in the original loop order."""
    return build_sweep(
        "ablations",
        {"case": ("sizes-clean", "rw-clean", "rw-frag"), "variant": variants},
        _point,
        measure_us=measure_us,
        warmup_us=warmup_us,
        workers=workers,
    )


def finalize(results) -> Dict[str, object]:
    return {"experiment": "ablations", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = []
    for row in results["rows"]:
        groups = ", ".join(f"{k}={v:.0f}" for k, v in sorted(row["by_group_mbps"].items()))
        table_rows.append((row["case"], row["variant"], row["total_mbps"], row["p99_us"], groups))
    return format_table(
        ["case", "variant", "total MB/s", "p99 us", "per-class MB/s"],
        table_rows,
        title="Ablations: Gimbal with one mechanism disabled at a time",
    )
