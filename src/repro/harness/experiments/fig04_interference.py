"""Figure 4: multi-tenant interference on an unmanaged (vanilla) target.

A victim flow (4 KiB random reads, QD32) shares one SSD with one
neighbour of varying shape.  Paper shape: intensity wins regardless of
size or pattern -- the QD128 neighbour takes ~3x the victim's share --
and a write neighbour costs the victim ~59% of its bandwidth.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows, run_workers
from repro.harness.report import format_table
from repro.harness.testbed import TestbedConfig
from repro.workloads.fio import FioSpec

#: Neighbour shapes on the figure's x-axis.
NEIGHBOURS = (
    ("4KB-RD-QD32", FioSpec("nbr", io_pages=1, queue_depth=32, read_ratio=1.0)),
    ("4KB-RD-QD128", FioSpec("nbr", io_pages=1, queue_depth=128, read_ratio=1.0)),
    ("128KB-RD-QD1", FioSpec("nbr", io_pages=32, queue_depth=1, read_ratio=1.0)),
    ("128KB-RD-QD8", FioSpec("nbr", io_pages=32, queue_depth=8, read_ratio=1.0)),
    ("4KB-WR-QD32", FioSpec("nbr", io_pages=1, queue_depth=32, read_ratio=0.0)),
    ("4KB-WR-QD128", FioSpec("nbr", io_pages=1, queue_depth=128, read_ratio=0.0)),
)

_NEIGHBOUR_BY_LABEL = dict(NEIGHBOURS)

VICTIM = FioSpec("victim", io_pages=1, queue_depth=32, read_ratio=1.0)


def _point(neighbour: str, condition: str, measure_us: float, seed: int) -> dict:
    """One victim-vs-neighbour run on the vanilla target."""
    results = run_workers(
        TestbedConfig(scheme="vanilla", condition=condition, seed=seed),
        [VICTIM, _NEIGHBOUR_BY_LABEL[neighbour]],
        measure_us=measure_us,
        region_pages=8192,
    )
    victim_bw, neighbour_bw = (w["bandwidth_mbps"] for w in results["workers"])
    return {"neighbour": neighbour, "victim_mbps": victim_bw, "neighbour_mbps": neighbour_bw}


def sweep(
    measure_us: float = 600_000.0, condition: str = "clean", root_seed: int = 42
):
    """Declare one point per neighbour shape."""
    return build_sweep(
        "fig04",
        {"neighbour": [label for label, _ in NEIGHBOURS]},
        _point,
        root_seed=root_seed,
        condition=condition,
        measure_us=measure_us,
    )


def finalize(results, condition: str = "clean") -> Dict[str, object]:
    """Merge ordered point results into the figure's result dict."""
    return {"figure": "4", "condition": condition, "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (row["neighbour"], row["victim_mbps"], row["neighbour_mbps"])
        for row in results["rows"]
    ]
    return format_table(
        ["neighbour flow", "victim MB/s", "neighbour MB/s"],
        table_rows,
        title="Figure 4: interference against a 4KB-RD-QD32 victim (vanilla target)",
    )
