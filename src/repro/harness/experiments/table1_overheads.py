"""Table 1: Gimbal's CPU overhead versus the vanilla target.

(a) Mean per-IO core time on the submission and completion paths
    (reported in the paper's unit: 125 cycles = 1 us), for 4 KiB reads
    at QD1 and QD32.  The difference between the schemes is exactly
    the scheduler's ``submit_overhead_us``/``complete_overhead_us``.
(b) Maximum 4 KiB read IOPS against a NULL backend with 1 core /
    1 worker and 4 cores / 8 workers -- the SmartNIC core, not the
    storage, is the bottleneck, so this measures the switch's cost.

Paper shape: Gimbal adds ~40-60% scheduler cycles and loses ~9-12% of
NULL-device IOPS versus vanilla SPDK.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.experiments.common import Sweep, derived_run
from repro.harness.report import format_table
from repro.harness.testbed import Testbed, TestbedConfig
from repro.workloads.fio import FioSpec

CYCLE_CASES = (("1 worker (QD1)", 1, 1), ("16 workers (QD32)", 32, 16))
NULL_IOPS_CASES = (("1 core, 1 worker", 1, 1), ("4 cores, 8 workers", 4, 8))


def _cycles_case(
    scheme: str, queue_depth: int, workers: int, measure_us: float, seed: int = 42
) -> Dict[str, float]:
    testbed = Testbed(TestbedConfig(scheme=scheme, condition="clean", seed=seed))
    for index in range(workers):
        testbed.add_worker(
            FioSpec(f"w{index}", io_pages=1, queue_depth=queue_depth, read_ratio=1.0),
            region_pages=2048,
        )
    testbed.run(warmup_us=50_000.0, measure_us=measure_us)
    core = testbed.target.cores[0]
    cycles = core.mean_cycles_by_tag()
    return {"submit": cycles.get("submit", 0.0), "complete": cycles.get("complete", 0.0)}


def _null_iops_case(
    scheme: str, cores: int, workers: int, measure_us: float, seed: int = 42
) -> float:
    # One NULL backend per core: pipelines are pinned per SSD, so the
    # multi-core case distributes tenants across per-core pipelines
    # exactly as the paper's multi-core extension balances them.
    testbed = Testbed(
        TestbedConfig(
            scheme=scheme,
            condition="none",
            device_profile="null",
            num_cores=cores,
            num_ssds=cores,
            seed=seed,
        )
    )
    for index in range(workers):
        testbed.add_worker(
            FioSpec(f"w{index}", io_pages=1, queue_depth=64, read_ratio=1.0),
            ssd=f"ssd{index % cores}",
            region_pages=2048,
        )
    results = testbed.run(warmup_us=20_000.0, measure_us=measure_us)
    return sum(worker["iops"] for worker in results["workers"]) / 1000.0


def sweep(measure_us: float = 200_000.0, root_seed: int = 42):
    # Each (case, scheme) measurement is one sweep point; the
    # vanilla/gimbal pairing happens in finalize() on the ordered
    # results.
    sw = Sweep("table1", root_seed=root_seed)
    for label, queue_depth, workers in CYCLE_CASES:
        for scheme in ("vanilla", "gimbal"):
            point_label = f"cycles:{label}:{scheme}"
            sw.point(
                _cycles_case,
                label=point_label,
                scheme=scheme,
                queue_depth=queue_depth,
                workers=workers,
                measure_us=measure_us,
                seed=sw.seed_for(point_label),
            )
    for label, cores, workers in NULL_IOPS_CASES:
        for scheme in ("vanilla", "gimbal"):
            point_label = f"null-iops:{label}:{scheme}"
            sw.point(
                _null_iops_case,
                label=point_label,
                scheme=scheme,
                cores=cores,
                workers=workers,
                measure_us=measure_us,
                seed=sw.seed_for(point_label),
            )
    return sw


def finalize(results) -> Dict[str, object]:
    cycle_rows: List[dict] = []
    for case_index, (label, _queue_depth, _workers) in enumerate(CYCLE_CASES):
        vanilla = results[2 * case_index]
        gimbal = results[2 * case_index + 1]
        for path in ("submit", "complete"):
            overhead_pct = (
                (gimbal[path] - vanilla[path]) / vanilla[path] * 100.0 if vanilla[path] else 0.0
            )
            cycle_rows.append(
                {
                    "case": label,
                    "path": path,
                    "vanilla_cycles": vanilla[path],
                    "gimbal_cycles": gimbal[path],
                    "overhead_pct": overhead_pct,
                }
            )
    iops_rows: List[dict] = []
    offset = 2 * len(CYCLE_CASES)
    for case_index, (label, _cores, _workers) in enumerate(NULL_IOPS_CASES):
        vanilla = results[offset + 2 * case_index]
        gimbal = results[offset + 2 * case_index + 1]
        iops_rows.append(
            {
                "case": label,
                "vanilla_kiops": vanilla,
                "gimbal_kiops": gimbal,
                "loss_pct": (vanilla - gimbal) / vanilla * 100.0 if vanilla else 0.0,
            }
        )
    return {"table": "1", "cycles": cycle_rows, "null_iops": iops_rows}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    parts = [
        format_table(
            ["case", "path", "vanilla cycles", "gimbal cycles", "overhead %"],
            [
                (r["case"], r["path"], r["vanilla_cycles"], r["gimbal_cycles"], r["overhead_pct"])
                for r in results["cycles"]
            ],
            title="Table 1a: per-IO CPU cycles (125 cycles = 1us), 4KB read",
        ),
        format_table(
            ["case", "vanilla KIOPS", "gimbal KIOPS", "loss %"],
            [
                (r["case"], r["vanilla_kiops"], r["gimbal_kiops"], r["loss_pct"])
                for r in results["null_iops"]
            ],
            title="Table 1b: max IOPS with NULL device (4KB read)",
        ),
    ]
    return "\n\n".join(parts)
