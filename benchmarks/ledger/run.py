"""The perf ledger's runner, and the command ``BENCHMARK.json`` names.

::

    python benchmarks/ledger/run.py [--workload NAME ...] [--seed 42]
        [--seconds 20] [--trace 0|1] [--out DIR] [--rebaseline]

``--trace 0`` (the default) measures the end-to-end metrics with tracing
off: repetitions of the workload, each a fresh ``worker.py`` process run
one after another, for ``--seconds`` seconds.  ``--trace 1`` (alias
``--traced``) is the traced pass -- a profile pass, a counters pass and
the twin runs -- and yields every per-layer metric plus the raw folded
spans; it is never used for end-to-end numbers.

Per workload the runner prints one line per metric (``name value unit
n=<samples>``), writes one JSON record under ``--out``, and ends with
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` as the
last line of standard output.  It exits non-zero when a conservation
check fails.  A digest mismatch against ``expected/`` is reported as
``sim_drift``, not as an exit code, so a model change can still be
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")

from repro.harness.cache import code_fingerprint  # noqa: E402
from repro.harness.surrogate import flatten_numeric  # noqa: E402
from repro.sim.engine import KERNEL_BACKEND_ENV  # noqa: E402

from benchmarks.ledger import metrics as ledger_metrics  # noqa: E402
from benchmarks.ledger.metrics import (  # noqa: E402
    UNITS,
    norm_of,
    norm_wall_of,
    setup_s_of,
    wall_of,
)
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = list(WORKLOADS)
#: How long one invocation measures (``BENCHMARK.json``'s run_seconds).
DEFAULT_SECONDS = 20
EXPECTED_DIR = LEDGER_DIR / "expected"
DEFAULT_OUT = LEDGER_DIR / "out"
RECORD_SCHEMA = 1
#: No single worker may outlive this (the contract allows a run 180 s).
WORKER_TIMEOUT_S = 150


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def spawn(
    workload: str,
    seed: int,
    mode: str = "timed",
    backend: Optional[str] = None,
    unsharded: bool = False,
) -> Dict[str, Any]:
    """Run one ``worker.py`` process to completion; return its payload."""
    env = dict(os.environ)
    # One hash seed for every repetition: dict and set layouts, and with
    # them call counts and timings, repeat from process to process.
    env["PYTHONHASHSEED"] = "0"
    env.pop(KERNEL_BACKEND_ENV, None)
    if backend is not None:
        env[KERNEL_BACKEND_ENV] = backend
    command = [sys.executable, str(LEDGER_DIR / "worker.py"), workload, str(seed), "--mode", mode]
    if unsharded:
        command.append("--unsharded")
    done = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def repeat(seconds: float, **spawn_args: Any) -> List[Dict[str, Any]]:
    """Sequential repetitions for about ``seconds`` (at least one)."""
    reps: List[Dict[str, Any]] = []
    start = perf_counter()
    while True:
        reps.append(spawn(**spawn_args))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def manifest(workload: str, seed: int, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Which code, seed, backend and machine produced this record."""
    calibrations = [cal for rep in reps for _, cal in rep["pairs"]]
    entry = WORKLOADS[workload]
    return {
        "git_sha": _git_sha(),
        "code_fingerprint": code_fingerprint(type(entry).build),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "kernel_backend": "reference",
        "shards": getattr(entry, "SHARDS", None),
        "shard_mode": "inline" if hasattr(entry, "SHARDS") else None,
        "jobs": 1,
        "seed": seed,
        "repetitions": len(reps),
        "calibration_wall_s": statistics.median(calibrations),
        "pythonhashseed": "0",
    }


def _sample(values: List[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "samples": values,
    }


def _exact(value: float, n: int = 1) -> Dict[str, Any]:
    return {"value": value, "n": n}


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}.seed{seed}.json"


def sim_drift(workload: str, seed: int, result: Dict[str, Any]) -> Optional[int]:
    """Numeric leaves of ``result`` that differ from the frozen digest;
    None when no digest exists for this seed."""
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    expected = json.loads(path.read_text(encoding="utf-8"))["leaves"]
    leaves = digest_leaves(result)
    return sum(
        1 for key in expected.keys() | leaves.keys() if expected.get(key) != leaves.get(key)
    )


def digest_leaves(result: Dict[str, Any]) -> Dict[str, float]:
    """Numeric leaves of a result dict, minus its ``host`` readings
    (wall seconds and byte counts are not simulation)."""
    simulated = {key: value for key, value in result.items() if key != "host"}
    return flatten_numeric(simulated, limit=10**9)


def reconcile(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attempted/failed over the repetitions of one deterministic run.

    Every repetition simulates the same thing, so the counts come from
    one of them; repetitions that disagree with the first are failures
    in their own right (the simulation is not deterministic).
    """
    first = reps[0]
    check = dict(first["check"], violations=list(first["check"]["violations"]))
    digest = digest_leaves(first["result"])
    for index, rep in enumerate(reps[1:], start=1):
        if rep["check"]["failed"] > check["failed"]:
            check["failed"] = rep["check"]["failed"]
            check["violations"] = list(rep["check"]["violations"])
        if digest_leaves(rep["result"]) != digest:
            check["failed"] += 1
            check["violations"].append(f"repetition {index} differs from repetition 0")
    return check


def _record(
    name: str,
    seed: int,
    traced: bool,
    legs: List[Dict[str, Any]],
    metrics: Dict[str, Dict[str, Any]],
    info: Dict[str, Any],
    check: Dict[str, Any],
    **extra: Any,
) -> Dict[str, Any]:
    """The one record schema, traced or not."""
    return {
        "schema": RECORD_SCHEMA,
        "workload": name,
        "seed": seed,
        "traced": traced,
        "manifest": manifest(name, seed, legs),
        "metrics": {key: dict(value, unit=UNITS[key]) for key, value in metrics.items()},
        "info": info,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "violations": check["violations"],
        "correct": check["failed"] == 0,
        **extra,
    }


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced record of one workload: every end-to-end metric."""
    workload = WORKLOADS[name]
    aux = spawn(name, seed, mode="aux") if hasattr(workload, "aux") else {}
    reps = repeat(seconds, workload=name, seed=seed)
    result = reps[0]["result"]
    headline = workload.headline(result, aux)
    check = reconcile(reps)
    values = {
        "setup_s": _sample([setup_s_of(rep) for rep in reps]),
        "norm_wall": _sample([norm_of(rep) for rep in reps]),
        "peak_rss_mb": _sample([rep["rss_mb"] for rep in reps]),
        "sim_ops_per_s": _exact(headline["sim_ops_per_s"]),
        "sim_read_tail_us": _exact(headline["sim_read_tail_us"], headline["read_samples"]),
        "sim_fairness": _exact(headline["sim_fairness"]),
        "anchor_err_pct": _exact(headline["anchor_err_pct"]),
        "failed_share": _exact(check["failed"] / check["attempted"], check["attempted"]),
        "sim_drift": _exact(sim_drift(name, seed, result)),
    }
    info = {
        "wall_s": statistics.median(wall_of(rep) for rep in reps),
        "setup_wall_s": statistics.median(rep["pairs"][0][0] for rep in reps),
        "slice_calibration_pairs": sum(len(rep["pairs"]) - 1 for rep in reps),
        "anchor": aux.get("anchor", "read off the workload's own output"),
        "aux": aux,
    }
    return _record(name, seed, False, reps, values, info, check, result=result)


def trace(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced record of one workload: every per-layer metric."""
    workload = WORKLOADS[name]
    reps_per_leg = max(1, int(seconds // 20))
    reference = [spawn(name, seed) for _ in range(reps_per_leg)]
    profile = spawn(name, seed, mode="profile")
    counters = spawn(name, seed, mode="counters")
    chain = spawn(name, seed, mode="chain")
    check = reconcile(reference + [profile, counters])
    twins: Dict[str, Any] = {}
    for twin, spawn_args in workload.twins.items():
        if spawn_args.get("backend") == "batch" and _numpy_version() is None:
            continue  # the batch kernel needs numpy; its row reads 0
        reps = [spawn(name, seed, **spawn_args) for _ in range(reps_per_leg)]
        twin_check = reconcile(reps)
        check["failed"] += twin_check["failed"]
        check["violations"] += twin_check["violations"]
        twins[twin] = {"norm_wall": norm_wall_of(reps), "check": twin_check}
        if hasattr(workload, "shadow_read_share"):
            twins[twin]["kv.shadow_read_share"] = workload.shadow_read_share(reps[0]["result"])
    values = ledger_metrics.layer_metrics(
        reference,
        profile,
        counters,
        chain["cu_per_mevent"],
        {twin: entry["norm_wall"] for twin, entry in twins.items()},
    )
    norm_wall = norm_wall_of(reference)
    wall_s = statistics.median(wall_of(rep) for rep in reference)
    info = {
        "reference_norm_wall": norm_wall,
        "reference_wall_s": wall_s,
        "events_per_s": values["sim.events"] / wall_s,
        "kernel_floor_share": values["sim.events"] * values["sim.bare_event_cu"] / 1e6 / norm_wall,
        "twins": twins,
        "top_callbacks": counters["top_callbacks"],
    }
    return _record(
        name,
        seed,
        True,
        reference + [profile, counters],
        {key: _exact(value) for key, value in values.items()},
        info,
        check,
        spans=profile["folds"],
        registry=counters["registry"],
    )


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _format(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(record: Dict[str, Any]) -> None:
    """One line per metric, then the contract's JSON object."""
    name = record["workload"]
    for key, metric in record["metrics"].items():
        line = f"{name} {key} {_format(metric['value'])} {metric['unit']} n={metric['n']}"
        if "min" in metric:
            line += f" min={_format(metric['min'])} max={_format(metric['max'])}"
        print(line)
    for key, value in record["info"].items():
        if isinstance(value, (int, float)):
            print(f"{name} info:{key} {_format(value)}")
    for violation in record["violations"]:
        print(f"{name} VIOLATION {violation}")
    declared = {entry[0] for entry in ledger_metrics.END_TO_END + ledger_metrics.PER_LAYER}
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    key: {"value": metric["value"], "unit": metric["unit"]}
                    for key, metric in record["metrics"].items()
                    if key in declared
                },
            }
        )
    )


def write_record(record: Dict[str, Any], out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    suffix = ".traced.json" if record["traced"] else ".json"
    path = out / f"{record['workload']}{suffix}"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def rebaseline(record: Dict[str, Any]) -> Path:
    """Freeze this record's result as the digest ``sim_drift`` compares."""
    path = expected_path(record["workload"], record["seed"])
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": record["workload"],
        "seed": record["seed"],
        "code_fingerprint": record["manifest"]["code_fingerprint"],
        "leaves": digest_leaves(record["result"]),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", nargs="+", choices=WORKLOAD_NAMES, metavar="NAME",
        help=f"one or more of {', '.join(WORKLOAD_NAMES)} (default: all)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="how long one workload measures (repetitions fill it)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="write expected/<workload>.seed<S>.json from this run",
    )  # fmt: skip
    args = parser.parse_args(argv)
    names = [name for group in args.workload or [WORKLOAD_NAMES] for name in group]
    traced = bool(args.trace or args.traced)
    if traced and args.rebaseline:
        parser.error("--rebaseline needs the untraced run")

    failed = 0
    for name in names:
        record = (trace if traced else measure)(name, args.seed, args.seconds)
        if args.rebaseline:
            print(f"{name} rebaselined {rebaseline(record)}")
            record["metrics"]["sim_drift"]["value"] = 0
        write_record(record, args.out)
        report(record)
        failed += record["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
