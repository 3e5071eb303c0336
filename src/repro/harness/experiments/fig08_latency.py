"""Figure 8: read/write latency percentiles under mixed R/W load.

The same workloads as Figure 7b (clean, 128 KiB) and 7c (fragmented,
4 KiB): 16 readers + 16 writers, reporting end-to-end average, p99 and
p99.9 per IO type per scheme.  Paper shape: Gimbal cuts the p99 of
reads and writes roughly in half versus Parda and by an order of
magnitude versus the uncontrolled schemes (ReFlex/FlashFQ), because
credits bound the number of outstanding IOs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.experiments.common import (
    build_sweep,
    derived_run,
    merge_rows,
    mixed_type_specs,
    run_workers,
)
from repro.harness.report import format_table
from repro.harness.testbed import SCHEMES, TestbedConfig
from repro.metrics.histogram import LatencyHistogram

#: case -> (condition, io_pages)
CASES = {
    "clean-128KB": ("clean", 32),
    "frag-4KB": ("fragmented", 1),
}


def _point(
    case: str, scheme: str, workers_per_class: int, warmup_us: float, measure_us: float
) -> List[dict]:
    """One (case, scheme) run; returns the read row then the write row."""
    condition, io_pages = CASES[case]
    specs, _classes = mixed_type_specs(io_pages, workers_per_class)
    results = run_workers(
        TestbedConfig(scheme=scheme, condition=condition),
        specs,
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=1600,
    )
    testbed = results["testbed"]
    merged = {"read": LatencyHistogram(), "write": LatencyHistogram()}
    for worker in testbed.workers:
        merged["read"].merge(worker.read_latency)
        merged["write"].merge(worker.write_latency)
    rows = []
    for op_name, histogram in merged.items():
        summary = histogram.summary()
        rows.append(
            {
                "case": case,
                "scheme": scheme,
                "op": op_name,
                "avg_us": summary["mean"],
                "p99_us": summary["p99"],
                "p999_us": summary["p999"],
            }
        )
    return rows


def sweep(
    measure_us: float = 1_500_000.0,
    warmup_us: float = 700_000.0,
    schemes=SCHEMES,
    workers_per_class: int = 16,
):
    """One point per (case, scheme); each yields a read and a write row."""
    return build_sweep(
        "fig08",
        {"case": CASES, "scheme": schemes},
        _point,
        workers_per_class=workers_per_class,
        warmup_us=warmup_us,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "8", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["case"], row["scheme"], row["op"], row["avg_us"], row["p99_us"], row["p999_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["case", "scheme", "op", "avg us", "p99 us", "p99.9 us"],
        table_rows,
        title="Figure 8: latency under mixed read/write (16+16 workers)",
    )
