"""Figure 16 (Appendix): bandwidth vs added per-IO processing cost.

All SmartNIC cores active against four SSDs; artificial per-IO
processing is added on the submission path.  Paper shape: small IOs
tolerate only ~1-5 us of added cost before bandwidth collapses (the
cores saturate), while 128 KiB IOs tolerate 5-10 us -- the headroom
argument behind "we can only add minimal computation per storage IO".
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.report import format_table
from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec

ADDED_COSTS_US = (0.0, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
NUM_SSDS = 4
NUM_CORES = 8

#: case label -> (io_pages, read)
CASES = {
    "4KB-read": (1, True),
    "128KB-read": (32, True),
    "4KB-write": (1, False),
    "128KB-write": (32, False),
}


def _case(
    io_pages: int, read: bool, added_cost: float, measure_us: float, seed: int = 42
) -> float:
    testbed = Testbed(
        TestbedConfig(
            scheme="vanilla",
            condition="clean",
            num_ssds=NUM_SSDS,
            num_cores=NUM_CORES,
            added_io_cost_us=added_cost,
            seed=seed,
        )
    )
    for ssd_index in range(NUM_SSDS):
        for worker_index in range(2):
            testbed.add_worker(
                FioSpec(
                    f"w{ssd_index}-{worker_index}",
                    io_pages=io_pages,
                    queue_depth=32 if io_pages == 1 else 8,
                    read_ratio=1.0 if read else 0.0,
                    pattern="random" if read else "sequential",
                ),
                ssd=f"ssd{ssd_index}",
                region_pages=4096,
            )
    results = testbed.run(warmup_us=100_000.0, measure_us=measure_us)
    return results["total_bandwidth_mbps"] / 1024.0  # GB/s


def _point(case: str, added_cost_us: float, measure_us: float, seed: int) -> dict:
    io_pages, read = CASES[case]
    bandwidth = _case(io_pages, read, added_cost_us, measure_us, seed=seed)
    return {"case": case, "added_cost_us": added_cost_us, "gbps": bandwidth}


def sweep(
    measure_us: float = 300_000.0, added_costs=ADDED_COSTS_US, root_seed: int = 42
):
    """Declare one point per (case, added cost) cell."""
    return build_sweep(
        "fig16",
        {"case": CASES, "added_cost_us": added_costs},
        _point,
        root_seed=root_seed,
        measure_us=measure_us,
    )


def finalize(results) -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "16", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["case"], row["added_cost_us"], row["gbps"]) for row in results["rows"]
    ]
    return format_table(
        ["case", "added per-IO cost us", "GB/s"],
        table_rows,
        title="Figure 16: JBOF bandwidth vs added per-IO processing cost",
    )
