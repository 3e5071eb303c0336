"""Regenerate ``BASELINE_EXPLORE.json`` -- the frozen ground truth the
explore fidelity gate (``test_explore_gate.py``) compares adaptive runs against.

Runs the fig04 interference exploration grid *exhaustively* (every
point, no surrogate) and freezes the crossovers
:func:`repro.harness.adaptive.find_crossovers` extracts from the
actual signals.  The simulation is deterministic and machine
independent, so the file only needs regenerating when the simulator's
physics, the driver's grid, or the crossover definition changes:

    PYTHONPATH=src python tests/harness/regenerate_explore.py

``error_bound`` is the held-out relative-RMSE ceiling the gate holds
adaptive runs to; raise it only with a written justification in the
commit -- it is the claim the docs make about surrogate quality.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.harness.adaptive import find_crossovers
from repro.harness.experiments.fig04_interference import explore_space
from repro.harness.parallel import run_sweep
from repro.harness.surrogate import flatten_numeric

BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE_EXPLORE.json"

#: Gate parameters frozen alongside the ground truth.
BUDGET = 0.2           # adaptive runs may simulate at most this grid fraction
ERROR_BOUND = 0.55     # held-out relative RMSE ceiling per target


def main() -> None:
    space = explore_space()
    combos = space.combos()
    started = time.perf_counter()
    points = [space.point(index, combo) for index, combo in enumerate(combos)]
    values = run_sweep(points, jobs=1, cache=False, name="explore-baseline")
    wall_s = time.perf_counter() - started
    signals = {
        index: space.crossover.signal(flatten_numeric(value))
        for index, value in enumerate(values)
    }
    crossovers = find_crossovers(space, signals)
    baseline = {
        "space": space.name,
        "axes": space.axes,
        "fixed": space.fixed,
        "root_seed": space.root_seed,
        "grid_points": len(combos),
        "full_grid_wall_s": round(wall_s, 3),
        "budget": BUDGET,
        "error_bound": ERROR_BOUND,
        "crossovers": crossovers,
    }
    BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {BASELINE_PATH} ({len(crossovers)} crossovers, "
          f"{len(combos)} grid points, full grid {wall_s:.1f}s)")
    for crossover in crossovers:
        print(f"  {crossover['group']}: {crossover['along']} "
              f"~= {crossover['estimate']} "
              f"(between {crossover['lo']} and {crossover['hi']})")


if __name__ == "__main__":
    main()
