"""Every metric the ledger declares, and how the per-layer ones derive.

The root ``BENCHMARK.json`` is generated from the tables below
(``python -m benchmarks.ledger.metrics`` prints it; ``test_ledger.py``
checks the two agree), so a name, its unit and the end-to-end metric it
should move are written down in one place.

Host-time rows (``*.host_cu``) come from the profile pass: the self-time
share of ``repro.X`` (builtins and stdlib charged to the innermost
``repro`` caller) times the workload's untraced ``norm_wall``.  Count
rows come from the counters pass and repeat exactly.  A row that does
not apply to a workload reads 0 -- which is itself a prediction
(``core.calls = 0`` on ``fio-read``).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.ledger import profile_fold

#: ``(name, unit, better, bound, exact)``.  ``bound`` is the share of the
#: parent's median by which the metric may worsen (the contract's
#: reading, across seeds); ``exact`` marks simulated numbers, which
#: ``compare`` requires to be identical between two records of one seed.
END_TO_END: List[Tuple[str, str, str, float, bool]] = [
    ("setup_s", "s", "lower", 0.25, False),
    ("norm_wall", "cu", "lower", 0.15, False),
    ("peak_rss_mb", "MiB", "lower", 0.10, False),
    ("sim_ops_per_s", "sim_ops/s", "higher", 0.10, True),
    ("sim_read_tail_us", "sim_us", "lower", 0.25, True),
    ("sim_fairness", "ratio", "higher", 0.10, True),
    ("anchor_err_pct", "%", "lower", 0.25, True),
]

#: Carried by every ledger record and judged by ``compare`` (both must be
#: 0), but not declared in ``BENCHMARK.json``: the contract wants metrics
#: that are never 0 and reports failures through ``attempted``/``failed``.
LEDGER_ONLY = [
    ("failed_share", "fraction", "lower"),
    ("sim_drift", "count", "lower"),
]

_NORM = "norm_wall"

#: Every package of ``repro``, with the end-to-end metric it should move.
PACKAGE_MOVES: Dict[str, str] = {
    "sim": f"{_NORM} everywhere, most on fio-read",
    "fabric": f"{_NORM} on fio-read (largest layer there)",
    "core": f"{_NORM} on mt-mixed, then kv-rack; 0 on fio-read",
    "baselines": f"{_NORM} on mt-mixed/kv-rack (the scheduler base class); 0 on fio-read",
    "ssd": f"{_NORM} on fio-read (reads) and mt-mixed (programs, GC)",
    "kv": f"{_NORM} on kv-rack only; 0 elsewhere",
    "workloads": f"{_NORM}: fio on fio-read/mt-mixed, ycsb on kv-rack",
    "metrics": f"{_NORM} on fio-read (latency recording)",
    "harness": f"{_NORM} on suite-replay; ~0 on the simulation workloads",
    "obs": "none (must stay ~0 with tracing off)",
    "nvme": f"{_NORM} on fio-read/mt-mixed (namespace translation)",
}
PACKAGES = tuple(PACKAGE_MOVES)

#: Module rows; True adds the build phase to the timed region.  Rows are
#: self time, except ``ssd.conditioning``: preconditioning is a phase
#: that drives the FTL, so its row is inclusive (and overlaps ``ssd.ftl``).
INCLUSIVE_ROWS = ("ssd.conditioning",)
MODULE_ROWS: Dict[str, bool] = {
    "sim.engine": False,
    "sim.shard": False,
    "sim.batch": False,
    "fabric.pipeline": False,
    "fabric.network": False,
    "fabric.initiator": False,
    "fabric.smartnic": False,
    "fabric.boundary": False,
    "core.switch": False,
    "core.scheduler": False,
    "core.rate_control": False,
    "ssd.device": False,
    "ssd.ftl": False,
    "ssd.conditioning": True,
    "kv.lsm": False,
    "kv.blobstore": False,
    "kv.runner": False,
    "workloads.fio": False,
    "workloads.ycsb": False,
    "metrics.histogram": False,
    "harness.cache": False,
    "harness.orchestrator": False,
    "harness.parallel": False,
    "harness.testbed": True,
}

_COUNT_ROWS: List[Tuple[str, str, str, str]] = [
    # sim
    ("sim.events", "count", "lower", f"{_NORM} everywhere (host time follows events)"),
    ("sim.events_per_op", "events/op", "lower", f"{_NORM} on every simulation workload"),
    ("sim.heap_high_water", "count", "lower", "peak_rss_mb; a cancellation leak shows here first"),
    ("sim.shard_windows", "count", "lower", f"{_NORM} on kv-rack only"),
    ("sim.shard_messages", "count", "lower", f"{_NORM} on kv-rack only"),
    ("sim.events_per_window", "events/window", "higher", f"{_NORM} on kv-rack (window driver amortisation)"),
    ("sim.barrier_stall_s", "s", "lower", "none inline (0); wall of a multi-process leg"),
    ("sim.bare_event_cu", "cu/Mevent", "lower", f"{_NORM} everywhere: x sim.events / norm_wall is the kernel's floor share"),
    ("sim.batch_ratio", "ratio", "higher", f"{_NORM} under the batch backend (reference / batch; 0 = not measured)"),
    ("sim.shard_overhead_ratio", "ratio", "lower", f"{_NORM} on kv-rack (sharded / unsharded twin; 0 elsewhere)"),
    # fabric
    ("fabric.net_messages", "count", "lower", "sim_ops_per_s (model row: must not move on a host-only change)"),
    ("fabric.net_bytes", "bytes", "lower", "sim_ops_per_s (model row)"),
    ("fabric.pipeline_ios", "count", "higher", "sim_ops_per_s (model row)"),
    ("fabric.nic_busy_share", "share", "lower", "sim_ops_per_s once NIC cores saturate (simulated time)"),
    # core
    ("core.refill_wakeups", "count", "lower", f"{_NORM} on mt-mixed"),
    ("core.wakeups_per_io", "1/io", "lower", f"{_NORM} on mt-mixed (useful-work ratio of the pump)"),
    ("core.slot_deferrals", "count", "lower", "sim_fairness, sim_read_tail_us on mt-mixed"),
    ("core.bucket_denials", "count", "lower", "sim_read_tail_us on mt-mixed"),
    ("core.congestion_transitions", "count", "lower", "sim_read_tail_us on mt-mixed"),
    ("core.write_cost", "ratio", "lower", "sim_fairness, sim_ops_per_s on mt-mixed"),
    # ssd
    ("ssd.read_cmds", "count", "higher", "sim_ops_per_s on fio-read"),
    ("ssd.write_cmds", "count", "higher", "sim_ops_per_s on mt-mixed"),
    ("ssd.write_amp", "ratio", "lower", "sim_ops_per_s, anchor_err_pct on mt-mixed"),
    ("ssd.gc_programs", "count", "lower", f"{_NORM} and sim_ops_per_s on mt-mixed"),
    ("ssd.erases", "count", "lower", f"{_NORM} on mt-mixed"),
    ("ssd.buffer_read_hits", "count", "higher", "sim_read_tail_us on mt-mixed"),
    # kv
    ("kv.puts", "count", "higher", "sim_ops_per_s on kv-rack"),
    ("kv.gets", "count", "higher", "sim_ops_per_s on kv-rack"),
    ("kv.memtable_hit_share", "share", "higher", "sim_read_tail_us, sim_ops_per_s on kv-rack"),
    ("kv.flushes", "count", "lower", f"{_NORM} on kv-rack"),
    ("kv.compactions", "count", "lower", f"{_NORM}, sim_read_tail_us on kv-rack"),
    ("kv.stalled_puts", "count", "lower", "sim_ops_per_s on kv-rack"),
    ("kv.megas_allocated", "count", "lower", "failed_share on kv-rack (allocated = freed)"),
    ("kv.shadow_read_share", "share", "lower", "sim_fairness on kv-rack; differs sharded vs unsharded (a fidelity gap)"),
    # workloads
    ("workloads.ops_issued", "count", "higher", "sim_ops_per_s; the denominator of failed_share"),
    ("workloads.tenants", "count", "higher", "none (workload shape)"),
    # harness
    ("harness.points", "count", "higher", "none (workload shape, suite-replay)"),
    ("harness.cache_hits", "count", "higher", f"{_NORM} on suite-replay (warm passes)"),
    ("harness.cache_misses", "count", "lower", f"{_NORM} on suite-replay (cold pass only)"),
    ("harness.cache_bytes_written", "bytes", "lower", f"{_NORM} on suite-replay (cold pass)"),
    ("harness.cold_pass_cu", "cu", "lower", f"{_NORM} on suite-replay"),
    ("harness.warm_pass_cu", "cu", "lower", f"{_NORM} on suite-replay"),
    ("harness.cold_overhead_share", "share", "lower", f"{_NORM} on suite-replay (cold wall outside the points)"),
    ("harness.setup_cu", "cu", "lower", "setup_s on every workload (the stable reading)"),
    # obs
    ("obs.profile_overhead_ratio", "ratio", "lower", "none: the tracing overhead, stated"),
    ("obs.probe_overhead_ratio", "ratio", "lower", "none: the counters pass overhead, stated"),
]  # fmt: skip


def _per_layer() -> List[Tuple[str, str, str, str]]:
    rows: List[Tuple[str, str, str, str]] = []
    for package in PACKAGES:
        moves = PACKAGE_MOVES[package]
        rows.append((f"{package}.host_cu", "cu", "lower", moves))
        rows.append((f"{package}.calls", "count", "lower", moves))
    for module, with_build in MODULE_ROWS.items():
        package = module.partition(".")[0]
        moves = PACKAGE_MOVES[package]
        if with_build:
            moves = f"setup_s; {moves} (build phase + timed region)"
        if module in INCLUSIVE_ROWS:
            moves += "; inclusive of the FTL work it drives: two thirds of suite-replay's cold pass"
        rows.append((f"{module}.host_cu", "cu", "lower", moves))
    return rows + _COUNT_ROWS


#: ``(name, unit, better, the end-to-end metric and workload it should move)``.
PER_LAYER: List[Tuple[str, str, str, str]] = _per_layer()

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, *_ in END_TO_END},
    **{name: unit for name, unit, _ in LEDGER_ONLY},
    **{name: unit for name, unit, *_ in PER_LAYER},
}


def bound_of(name: str) -> float:
    return next(bound for metric, _, _, bound, _ in END_TO_END if metric == name)


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def norm_of(payload: Dict[str, Any], phase: Optional[str] = None) -> float:
    """Calibration units of a worker payload's timed region (or of one
    phase of it); the build slice is never part of the timed region."""
    return sum(
        wall / cal
        for (wall, cal), slice_phase in zip(payload["pairs"], payload["phases"])
        if slice_phase != "build" and phase in (None, slice_phase)
    )


def norm_wall_of(reps: List[Dict[str, Any]]) -> float:
    """``norm_wall`` of a set of repetitions: their median."""
    return statistics.median(norm_of(rep) for rep in reps)


def wall_of(payload: Dict[str, Any], phase: Optional[str] = None) -> float:
    return sum(
        wall
        for (wall, _), slice_phase in zip(payload["pairs"], payload["phases"])
        if slice_phase != "build" and phase in (None, slice_phase)
    )


def setup_cu_of(payload: Dict[str, Any]) -> float:
    wall, cal = payload["pairs"][0]
    return wall / cal


#: Calibration wall of the recording box.  ``setup_s`` is set-up wall
#: time rescaled to it (seconds at nominal machine speed): raw set-up
#: seconds of one commit moved 0.107 -> 0.179 s between back-to-back
#: invocations here, together with the calibration wall.
NOMINAL_CALIBRATION_S = 0.08


def setup_s_of(payload: Dict[str, Any]) -> float:
    return setup_cu_of(payload) * NOMINAL_CALIBRATION_S


def layer_metrics(
    reference: List[Dict[str, Any]],
    profile: Dict[str, Any],
    counters: Dict[str, Any],
    bare_event_cu: float,
    twin_norms: Dict[str, float],
) -> Dict[str, float]:
    """All per-layer metrics of one workload from the traced pass.

    ``reference`` are untraced repetitions taken in the same invocation:
    host rows are profile shares times *their* ``norm_wall``.
    ``twin_norms`` holds the ``norm_wall`` of the twin legs that ran.
    """
    norm_wall = norm_wall_of(reference)
    folds = profile["folds"]
    build = folds.get("build", {"modules": {}})
    timed = profile_fold.merge(fold for phase, fold in folds.items() if phase != "build")
    cu_per_profiled_s = norm_wall / timed["total_s"]
    values: Dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
    for package in PACKAGES:
        values[f"{package}.host_cu"] = profile_fold.total(timed, package) * cu_per_profiled_s
        values[f"{package}.calls"] = profile_fold.total(timed, package, "calls")
    for module, with_build in MODULE_ROWS.items():
        column = "inclusive_s" if module in INCLUSIVE_ROWS else "self_s"
        seconds = profile_fold.total(timed, module, column)
        if with_build:
            seconds += profile_fold.total(build, module, column)
        values[f"{module}.host_cu"] = seconds * cu_per_profiled_s

    counts = counters["counts"]
    values.update({name: value for name, value in counts.items() if name in values})
    ops = counts.get("workloads.ops_issued", 0)
    values["sim.events_per_op"] = counts["sim.events"] / ops if ops else 0.0
    values["sim.bare_event_cu"] = bare_event_cu
    if "batch" in twin_norms:
        values["sim.batch_ratio"] = norm_wall / twin_norms["batch"]
    if "unsharded" in twin_norms:
        values["sim.shard_overhead_ratio"] = norm_wall / twin_norms["unsharded"]

    values["harness.setup_cu"] = statistics.median(setup_cu_of(rep) for rep in reference)
    if "cold" in reference[0]["phases"]:
        values["harness.cold_pass_cu"] = statistics.median(
            norm_of(rep, "cold") for rep in reference
        )
        values["harness.warm_pass_cu"] = statistics.median(
            wall / cal
            for rep in reference
            for (wall, cal), phase in zip(rep["pairs"], rep["phases"])
            if phase == "warm"
        )
        values["harness.cold_overhead_share"] = statistics.median(
            1.0 - rep["result"]["host"]["journaled_point_s"] / wall_of(rep, "cold")
            for rep in reference
        )
    values["obs.profile_overhead_ratio"] = norm_of(profile) / norm_wall
    values["obs.probe_overhead_ratio"] = norm_of(counters) / norm_wall
    return values


def benchmark_json(workloads: Dict[str, Any], run_seconds: int) -> Dict[str, Any]:
    """The root ``BENCHMARK.json``, from the tables above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in workloads.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    from benchmarks.ledger import run

    json.dump(benchmark_json(run.WORKLOADS, run.DEFAULT_SECONDS), sys.stdout, indent=2)
    sys.stdout.write("\n")
