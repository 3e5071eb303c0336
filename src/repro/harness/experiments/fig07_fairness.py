"""Figure 7: fairness across mixed workloads (bandwidth and f-Util).

Three sub-experiments per scheme:

* (a/d)  Clean-SSD, mixed IO sizes: 16 workers of 4 KiB random read
  plus 4 workers of 128 KiB random read.
* (b/e)  Clean-SSD, mixed IO types: 16 readers + 16 writers, 128 KiB.
* (c/f)  Fragment-SSD, mixed IO types: 16 readers + 16 writers, 4 KiB.

Paper shape: Gimbal lands every class's f-Util closest to 1 (it pays
128 KiB IOs their real discount and writes their real cost); ReFlex
crushes clean writes; FlashFQ serves reads and writes identically;
Parda starves fragmented reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    f_utils_for,
    merge_rows,
    mixed_size_specs,
    mixed_type_specs,
    run_workers,
)
from repro.harness.report import format_table
from repro.harness.testbed import SCHEMES, TestbedConfig


SUBEXPERIMENTS = {
    "a": ("clean", "mixed sizes: 16x4KB + 4x128KB read", lambda s: mixed_size_specs(16 * s // 16, max(1, 4 * s // 16))),
    "b": ("clean", "mixed types: 128KB read vs write", lambda s: mixed_type_specs(32, s)),
    "c": ("fragmented", "mixed types: 4KB read vs write", lambda s: mixed_type_specs(1, s)),
}


def _point(
    sub: str,
    scheme: str,
    workers_per_class: int,
    warmup_us: float,
    measure_us: float,
    seed: int,
    standalone_measure_us: Optional[float] = None,
) -> List[dict]:
    """One (sub-experiment, scheme) cell: per-class bandwidth and f-Util."""
    condition, _description, make_specs = SUBEXPERIMENTS[sub]
    specs, groups = make_specs(workers_per_class)
    results = run_workers(
        TestbedConfig(scheme=scheme, condition=condition, seed=seed),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    if standalone_measure_us is None:
        futils = f_utils_for(results, specs, condition)
    else:
        futils = f_utils_for(
            results, specs, condition, standalone_measure_us=standalone_measure_us
        )
    by_group: Dict[str, dict] = {}
    for worker, group, value in zip(results["workers"], groups, futils):
        bucket = by_group.setdefault(group, {"mbps": 0.0, "futil": [], "n": 0})
        bucket["mbps"] += worker["bandwidth_mbps"]
        bucket["futil"].append(value)
        bucket["n"] += 1
    return [
        {
            "sub": sub,
            "condition": condition,
            "scheme": scheme,
            "class": group,
            "aggregate_mbps": bucket["mbps"],
            "per_worker_mbps": bucket["mbps"] / bucket["n"],
            "f_util": sum(bucket["futil"]) / bucket["n"],
        }
        for group, bucket in by_group.items()
    ]


def sweep(
    measure_us: float = 1_500_000.0,
    warmup_us: float = 700_000.0,
    schemes=SCHEMES,
    workers_per_class: int = 16,
    root_seed: int = 42,
    standalone_measure_us: Optional[float] = None,
):
    """Declare one point per (sub-experiment, scheme) cell."""
    return build_sweep(
        "fig07",
        {"sub": SUBEXPERIMENTS, "scheme": schemes},
        _point,
        root_seed=root_seed,
        workers_per_class=workers_per_class,
        warmup_us=warmup_us,
        measure_us=measure_us,
        standalone_measure_us=standalone_measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "7", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (
            row["sub"],
            row["scheme"],
            row["class"],
            row["aggregate_mbps"],
            row["f_util"],
        )
        for row in results["rows"]
    ]
    return format_table(
        ["sub", "scheme", "class", "aggregate MB/s", "f-Util"],
        table_rows,
        title="Figure 7: fairness (a=clean sizes, b=clean R/W 128KB, c=frag R/W 4KB)",
    )
