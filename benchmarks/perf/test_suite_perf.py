"""Suite orchestration benchmark and regression gate.

Times the same experiment subset twice:

* **serial-experiment baseline** -- :func:`run_suite_serial`: each
  driver's ``run()`` executes to completion before the next starts,
  fanning its own sweep across a pool of its own (the
  pre-orchestrator behaviour);
* **orchestrated** -- :func:`run_suite`: every experiment's points on
  one shared persistent pool, cost-model LPT dispatch, streaming
  expansion and completion-order consumption.

The gate has two halves.  The identity half always runs: per-experiment
results must be byte-identical between the two paths (scheduling must
never change what is computed).  The speedup half -- orchestrated at
least ``required_speedup`` times faster than the baseline, from
``BASELINE_SUITE.json``, noise-tolerance-adjusted like the other perf
gates -- only applies when the machine actually grants >= 2 worker
processes.  On a single-core runner the orchestrator's one-worker
bypass keeps everything in-process, so instead of skipping silently
the gate asserts orchestration costs essentially nothing over the
serial baseline (>= 0.95x, tolerance-adjusted): cost-model planning
and streaming accounting must not tax the degenerate case.

``BENCH_suite.json`` at the repo root records the raw numbers.  Quick
mode (``REPRO_PERF_QUICK=1``) shrinks the measurement windows for CI
smoke runs and widens the tolerance accordingly.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.harness.orchestrator import ExperimentSpec, run_suite, run_suite_serial

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE_SUITE.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_suite.json"

QUICK = os.environ.get("REPRO_PERF_QUICK", "") not in ("", "0")
SPEEDUP_TOLERANCE = 0.75 if QUICK else 0.85

#: A subset of the evaluation with contrasting shapes: a wide cheap
#: sweep (fig02, 24 points), a narrow expensive one (fig04, 6 points),
#: a medium sweep (fig14, 18 points), and two short ones (table1,
#: table2) whose points batch.  Windows are scaled so the whole
#: baseline leg stays in benchmark territory, not CI-smoke territory.
def _specs() -> list:
    scale = 0.3 if QUICK else 1.0
    return [
        ExperimentSpec(
            "fig02",
            "repro.harness.experiments.fig02_unloaded_latency",
            {"measure_us": 50_000.0 * scale},
        ),
        ExperimentSpec(
            "fig04",
            "repro.harness.experiments.fig04_interference",
            {"measure_us": 80_000.0 * scale},
        ),
        ExperimentSpec(
            "fig14",
            "repro.harness.experiments.fig14_read_ratio",
            {"duration_us": 50_000.0 * scale},
        ),
        ExperimentSpec(
            "table1",
            "repro.harness.experiments.table1_overheads",
            {"measure_us": 40_000.0 * scale},
        ),
        ExperimentSpec("table2", "repro.harness.experiments.table2_comparison", {}),
    ]


def test_orchestrated_suite_vs_serial_baseline():
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    specs = _specs()
    jobs = os.cpu_count() or 1

    start = time.perf_counter()
    serial_results = run_suite_serial(specs, jobs=jobs, cache=False)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    suite = run_suite(specs, jobs=jobs, cache=False)
    orchestrated_s = time.perf_counter() - start

    speedup = serial_s / max(orchestrated_s, 1e-9)
    multi_core = suite.jobs >= 2
    required = (
        baseline["required_speedup"] if multi_core else 0.95
    ) * SPEEDUP_TOLERANCE
    report = {
        "suite": "suite",
        "quick": QUICK,
        "cpu_count": os.cpu_count(),
        "experiments": [spec.name for spec in specs],
        "points_total": suite.points_total,
        "batches": suite.batches,
        "stolen_idle_s": round(suite.stolen_idle_s, 3),
        "jobs_requested": jobs,
        "jobs_effective": suite.jobs,
        "serial_wall_seconds": round(serial_s, 3),
        "orchestrated_wall_seconds": round(orchestrated_s, 3),
        "speedup": round(speedup, 3),
        "speedup_gate": (
            f"enforced: >= {required:.2f}x"
            if multi_core
            else f"enforced (single worker, overhead-only): >= {required:.2f}x"
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    # Identity half: scheduling must never change results.
    assert json.dumps(suite.results, sort_keys=True) == json.dumps(
        serial_results, sort_keys=True
    ), "orchestrated suite results differ from the serial-experiment baseline"

    if multi_core:
        assert speedup >= required, (
            f"orchestrated suite is {speedup:.2f}x the serial baseline "
            f"({orchestrated_s:.1f}s vs {serial_s:.1f}s), below the gated "
            f"{baseline['required_speedup']}x (tolerance-adjusted floor {required:.2f}x)"
        )
    else:
        # One effective worker: orchestration cannot win, but with the
        # in-process bypass it must not lose either.  This replaces the
        # old silent skip -- a regression that taxes the degenerate
        # single-core path now fails loudly.
        assert speedup >= required, (
            f"single-worker orchestration costs too much: {speedup:.2f}x the "
            f"serial baseline ({orchestrated_s:.1f}s vs {serial_s:.1f}s), "
            f"below the overhead floor {required:.2f}x"
        )
