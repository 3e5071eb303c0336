"""One repetition of one workload, in a fresh process.

``python benchmarks/ledger/worker.py <workload> <seed> [--mode MODE]``
prints one JSON object on its last line of standard output.  Every
repetition is its own process and repetitions run one after another,
so set-up time, peak RSS, free lists and memo caches are per repetition
and never shared.  Modes:

``timed``     tracing off: set-up and sliced run, bracketed by calibrations
``profile``   the same run under cProfile; build and timed region folded apart
``counters``  the same run inside ``repro.obs.capture()``: exact count rows
``aux``       the short device-anchor run behind ``anchor_err_pct``
``chain``     a bare ``Simulator`` self-rescheduling chain (``sim.bare_event_cu``)
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.ledger.calibrate import Bracket  # noqa: E402


def _run(workload, seed: int, scratch: Path, mode: str, unsharded: bool) -> Dict[str, Any]:
    # Imported here so an import failure is reported, not a traceback
    # from module import time.
    from repro import obs

    from benchmarks.ledger import profile_fold

    bracket = Bracket()
    profiles: Dict[str, cProfile.Profile] = {}
    phases = []

    def timed(fn: Callable[[], Any], phase: str = "run") -> Any:
        phases.append(phase)
        if mode != "profile":
            return bracket.timed(fn)
        profiler = profiles.setdefault(phase, cProfile.Profile())

        def profiled() -> Any:
            profiler.enable()
            try:
                return fn()
            finally:
                profiler.disable()

        return bracket.timed(profiled)

    options = {"unsharded": unsharded, "counting": mode == "counters"}
    out: Dict[str, Any] = {"workload": workload.name, "seed": seed, "mode": mode}
    if mode == "counters":
        with obs.capture() as session:
            state = timed(lambda: workload.build(seed, scratch, **options), phase="build")
            result = workload.run(state, timed)
            out["counts"] = workload.counts(state, result, session)
            out["registry"] = {
                name: value
                for name, value in session.registry.snapshot().items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            out["top_callbacks"] = session.probe.top_callbacks(12)
    else:
        state = timed(lambda: workload.build(seed, scratch, **options), phase="build")
        result = workload.run(state, timed)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["check"] = workload.check(state, result)
    out["result"] = result
    out["phases"] = phases
    out["pairs"] = bracket.pairs()
    if mode == "profile":
        out["folds"] = {
            phase: profile_fold.fold(profiler) for phase, profiler in profiles.items()
        }
    return out


def _bare_chain(events: int = 100_000, rounds: int = 3) -> Dict[str, Any]:
    """Calibration units per 10^6 events of the kernel with no model on
    top: one callback that reschedules itself, driven directly."""
    from repro.sim import make_simulator

    readings = []
    for _ in range(rounds):
        sim = make_simulator()
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        bracket = Bracket()
        bracket.timed(sim.run)
        readings.append(bracket.norm_wall() / events * 1e6)
    return {"events": events, "cu_per_mevent": sorted(readings)[rounds // 2]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument(
        "--mode",
        choices=("timed", "profile", "counters", "aux", "chain"),
        default="timed",
    )
    parser.add_argument(
        "--unsharded", action="store_true", help="kv-rack twin: shards=None"
    )
    args = parser.parse_args(argv)

    from benchmarks.ledger.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.mode in ("aux", "chain"):
        print(json.dumps(workload.aux(args.seed) if args.mode == "aux" else _bare_chain()))
        return 0
    # Scratch stays inside the checkout (git-ignored), never in /tmp.
    out_dir = LEDGER_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="worker-", dir=out_dir))
    try:
        out = _run(workload, args.seed, scratch, args.mode, args.unsharded)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
