"""Figure 2: unloaded latency vs IO size, server vs SmartNIC JBOF.

QD1 fio against one SSD through the NVMe-oF target, once with the x86
server CPU model and once with the wimpy SmartNIC cores.  Paper shape:
SmartNIC adds ~1% latency for small random reads, rising to ~20% at
128/256 KiB; sequential writes differ by a few microseconds.
"""

from __future__ import annotations

from typing import Dict

from repro.fabric.smartnic import SERVER_CPU, SMARTNIC_CPU
from repro.harness.experiments.common import build_sweep, derived_run, merge_rows, run_workers
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.workloads.fio import FioSpec

#: IO sizes on the figure's x-axis, in KiB.
IO_SIZES_KB = (4, 8, 16, 32, 128, 256)

_CPU_MODELS = {"server": SERVER_CPU, "smartnic": SMARTNIC_CPU}


def _point(host: str, size_kb: int, op: str, measure_us: float, seed: int) -> dict:
    """One (host CPU, IO size, op) latency measurement."""
    io_pages = size_kb // 4
    if op == "rnd-read":
        spec = FioSpec("w0", io_pages=io_pages, queue_depth=1, read_ratio=1.0)
    else:
        spec = FioSpec(
            "w0", io_pages=io_pages, queue_depth=1, read_ratio=0.0, pattern="sequential"
        )
    results = run_workers(
        TestbedConfig(
            scheme="vanilla", condition="clean", cpu_model=_CPU_MODELS[host], seed=seed
        ),
        [spec],
        warmup_us=50_000.0,
        measure_us=measure_us,
        region_pages=8192,
    )
    worker = results["workers"][0]
    latency = worker["read_latency"] if op == "rnd-read" else worker["write_latency"]
    return {
        "host": host,
        "op": op,
        "size_kb": size_kb,
        "avg_latency_us": latency["mean"],
    }


def sweep(measure_us: float = 300_000.0, root_seed: int = 42):
    """Declare the figure's sweep points (one per host/size/op cell)."""
    return build_sweep(
        "fig02",
        {"host": ("server", "smartnic"), "size_kb": IO_SIZES_KB, "op": ("rnd-read", "seq-write")},
        _point,
        root_seed=root_seed,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "2", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["host"], row["op"], row["size_kb"], row["avg_latency_us"])
        for row in results["rows"]
    ]
    return format_table(
        ["host", "op", "size_KB", "avg_latency_us"],
        table_rows,
        title="Figure 2: unloaded latency vs IO size (server vs SmartNIC)",
    )
