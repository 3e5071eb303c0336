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
    Sweep,
    derived_run,
    merge_rows,
    read_spec,
    run_workers,
    write_spec,
)
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.metrics.histogram import LatencyHistogram

DEFAULT_VARIANTS = ("full", "fixed-threshold", "single-bucket", "no-slots", "static-cost")


def _case_specs(case: str, workers: int):
    if case == "sizes-clean":
        specs = [read_spec(f"small{i}", 1) for i in range(workers)]
        specs += [read_spec(f"large{i}", 32) for i in range(max(1, workers // 4))]
        return "clean", specs, ["4KB"] * workers + ["128KB"] * max(1, workers // 4)
    if case == "rw-clean":
        specs = [read_spec(f"rd{i}", 32) for i in range(workers)]
        specs += [write_spec(f"wr{i}", 32) for i in range(workers)]
    else:  # rw-frag
        specs = [read_spec(f"rd{i}", 1) for i in range(workers)]
        specs += [write_spec(f"wr{i}", 1) for i in range(workers)]
    condition = "clean" if case == "rw-clean" else "fragmented"
    return condition, specs, ["read"] * workers + ["write"] * workers


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
    sw = Sweep("ablations")
    for case in ("sizes-clean", "rw-clean", "rw-frag"):
        for variant in variants:
            sw.point(
                _point,
                label=f"case={case},variant={variant}",
                case=case,
                variant=variant,
                measure_us=measure_us,
                warmup_us=warmup_us,
                workers=workers,
            )
    return sw


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
