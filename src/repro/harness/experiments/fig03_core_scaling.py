"""Figure 3: throughput vs number of cores, server vs SmartNIC JBOF.

Four SSDs, deep queues, sweeping the target's core count.  Paper
shape: the server saturates ~1.5 MIOPS of 4 KiB random reads with 2
cores; the SmartNIC needs ~3 of its wimpy cores for the same traffic;
one core suffices at 128 KiB.
"""

from __future__ import annotations

from typing import Dict

from repro.fabric.smartnic import SERVER_CPU, SMARTNIC_CPU
from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.report import format_table
from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec

CORE_COUNTS = (1, 2, 3, 4, 6, 8)
NUM_SSDS = 4
WORKERS_PER_SSD = 2

_CPU_MODELS = {"server": SERVER_CPU, "smartnic": SMARTNIC_CPU}

#: op -> (read_ratio, pattern)
_OPS = {
    "rnd-read": (1.0, "random"),
    "seq-write": (0.0, "sequential"),
}


def _point(host: str, cores: int, op: str, measure_us: float) -> dict:
    """One (host CPU, core count, op) throughput measurement."""
    read_ratio, pattern = _OPS[op]
    testbed = Testbed(
        TestbedConfig(
            scheme="vanilla",
            condition="clean",
            num_ssds=NUM_SSDS,
            num_cores=cores,
            cpu_model=_CPU_MODELS[host],
        )
    )
    for ssd_index in range(NUM_SSDS):
        for worker_index in range(WORKERS_PER_SSD):
            spec = FioSpec(
                f"{op}-{ssd_index}-{worker_index}",
                io_pages=1,
                queue_depth=64,
                read_ratio=read_ratio,
                pattern=pattern,
            )
            testbed.add_worker(spec, ssd=f"ssd{ssd_index}", region_pages=4096)
    results = testbed.run(warmup_us=100_000.0, measure_us=measure_us)
    kiops = sum(worker["iops"] for worker in results["workers"]) / 1000.0
    return {"host": host, "op": op, "cores": cores, "kiops": kiops}


def sweep(measure_us: float = 300_000.0, core_counts=CORE_COUNTS):
    """One point per (host, cores, op) in the original loop order."""
    return build_sweep(
        "fig03",
        {"host": ("server", "smartnic"), "cores": core_counts, "op": _OPS},
        _point,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "3", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["host"], row["op"], row["cores"], row["kiops"]) for row in results["rows"]
    ]
    return format_table(
        ["host", "op", "cores", "KIOPS"],
        table_rows,
        title="Figure 3: 4KB throughput vs core count (4 SSDs)",
    )
