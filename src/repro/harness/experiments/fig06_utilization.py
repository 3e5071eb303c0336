"""Figure 6: device utilisation under uniform tenants, per scheme.

16 workers of the *same* workload per run, across the four cases the
paper plots: 128 KiB on Clean-SSD (read, write) and 4 KiB on
Fragment-SSD (read, write).  Paper shape: Gimbal tracks FlashFQ's
aggregate bandwidth (both near device max) while ReFlex collapses
clean writes (~x6.6) and Parda under-reads the fragmented device
(~x2.6); Gimbal's credit flow control keeps average latency far below
the work-conserving schemes.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    merge_rows,
    read_spec,
    run_workers,
    write_spec,
)
from repro.harness.report import format_table
from repro.harness.testbed import SCHEMES, TestbedConfig

#: case -> (condition, io_pages, is_read)
CASES = {
    "C-R": ("clean", 32, True),
    "C-W": ("clean", 32, False),
    "F-R": ("fragmented", 1, True),
    "F-W": ("fragmented", 1, False),
}

NUM_WORKERS = 16


def _point(
    case: str, scheme: str, num_workers: int, warmup_us: float, measure_us: float
) -> dict:
    """One (case, scheme) run of ``num_workers`` identical tenants."""
    condition, io_pages, is_read = CASES[case]
    make = read_spec if is_read else write_spec
    specs = [make(f"w{i}", io_pages) for i in range(num_workers)]
    results = run_workers(
        TestbedConfig(scheme=scheme, condition=condition),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    latency_key = "read_latency" if is_read else "write_latency"
    total_count = sum(w[latency_key]["count"] for w in results["workers"])
    mean_latency = (
        sum(w[latency_key]["mean"] * w[latency_key]["count"] for w in results["workers"])
        / total_count
        if total_count
        else 0.0
    )
    return {
        "case": case,
        "scheme": scheme,
        "aggregate_mbps": results["total_bandwidth_mbps"],
        "avg_latency_us": mean_latency,
    }


def sweep(
    measure_us: float = 1_000_000.0,
    warmup_us: float = 500_000.0,
    schemes=SCHEMES,
    num_workers: int = NUM_WORKERS,
):
    """One point per (case, scheme) in the original loop order."""
    return build_sweep(
        "fig06",
        {"case": CASES, "scheme": schemes},
        _point,
        num_workers=num_workers,
        warmup_us=warmup_us,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "6", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["case"], row["scheme"], row["aggregate_mbps"], row["avg_latency_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["case", "scheme", "aggregate MB/s", "avg latency us"],
        table_rows,
        title="Figure 6: utilisation with 16 identical workers "
        "(C=clean 128KB, F=fragmented 4KB)",
    )
