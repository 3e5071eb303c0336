"""Adaptive exploration fidelity gate.

The surrogate-guided engine (:mod:`repro.harness.adaptive`) exists to
answer grid-scale questions at a fraction of the grid's cost.  This
gate pins down all three halves of that claim against
``BASELINE_EXPLORE.json`` (the frozen full-grid ground truth; see
``regenerate_explore.py``):

* **Cost** -- the adaptive run may simulate at most the frozen
  ``budget`` fraction of the grid (20%).
* **Fidelity** -- every frozen crossover must be recovered as an
  *observed* (simulated-bracket) crossover in the same group, with the
  adaptive estimate inside the frozen bracket widened by one grid step
  on each side; and the adaptive run must not report spurious observed
  crossovers in groups the full grid says are flat.  Held-out relative
  RMSE (every prediction scored before its point was simulated) must
  stay under the frozen ``error_bound``.
* **Identity** -- every point the engine simulated must be
  byte-identical to executing that point directly through
  ``run_sweep`` (the engine reuses per-point seeds, labels and the
  ordinary dispatch path; this catches any drift).

There is one surrogate (pure-Python k-NN), so there is one
configuration to gate, and it is the one every install runs.  The run
is deterministic end to end, which is what makes exact crossover-set
comparison safe to assert in tier-1.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.harness.adaptive import explore
from repro.harness.experiments.fig04_interference import explore_space
from repro.harness.parallel import run_sweep

BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE_EXPLORE.json"


def _axis_interval(axis_values, lo, hi):
    """The frozen bracket [lo, hi] widened by one grid step each side."""
    lo_pos = axis_values.index(lo)
    hi_pos = axis_values.index(hi)
    return (
        axis_values[max(0, lo_pos - 1)],
        axis_values[min(len(axis_values) - 1, hi_pos + 1)],
    )


def test_adaptive_explore_recovers_frozen_crossovers():
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    space = explore_space()
    result = explore(
        space,
        budget=baseline["budget"],
        target_error=0.02,
        cache=False,
        bootstrap=False,
    )

    # Cost half: the budget is the whole point.
    assert result.fraction_simulated <= baseline["budget"] + 1e-9, (
        f"simulated {result.simulated_count}/{result.grid_points} "
        f"= {result.fraction_simulated:.1%}, over the {baseline['budget']:.0%} budget"
    )

    # Fidelity half 1: every frozen crossover recovered, within tolerance.
    axis_values = baseline["axes"][baseline["crossovers"][0]["along"]]
    observed = [c for c in result.crossovers if c.get("observed")]
    by_group = {tuple(sorted(c["group"].items())): c for c in observed}
    for frozen in baseline["crossovers"]:
        key = tuple(sorted(frozen["group"].items()))
        assert key in by_group, (
            f"frozen crossover in group {frozen['group']} "
            f"(~{frozen['estimate']}) was not recovered"
        )
        lo, hi = _axis_interval(axis_values, frozen["lo"], frozen["hi"])
        estimate = by_group[key]["estimate"]
        assert lo <= estimate <= hi, (
            f"group {frozen['group']} estimate {estimate} outside "
            f"tolerance [{lo}, {hi}] around frozen {frozen['estimate']}"
        )
    # Fidelity half 2: no spurious observed crossovers in flat groups.
    frozen_groups = {
        tuple(sorted(c["group"].items())) for c in baseline["crossovers"]
    }
    spurious = [c for c in observed if tuple(sorted(c["group"].items())) not in frozen_groups]
    assert not spurious, f"spurious observed crossovers: {spurious}"

    # Fidelity half 3: honest held-out error under the declared bound.
    assert result.heldout, "no held-out predictions were recorded"
    for target, stats in result.heldout.items():
        assert stats["rel_rmse"] <= baseline["error_bound"], (
            f"held-out relative RMSE for {target} is "
            f"{stats['rel_rmse']:.3f}, over the declared {baseline['error_bound']}"
        )

    # Identity half: engine-simulated points == direct run_sweep, bytes.
    combos = space.combos()
    by_label = {space.label(combo): index for index, combo in enumerate(combos)}
    sample = result.simulated_labels[:: max(1, len(result.simulated_labels) // 2)][:2]
    points = [
        space.point(position, combos[by_label[label]])
        for position, label in enumerate(sample)
    ]
    direct = run_sweep(points, jobs=1, cache=False)
    for label, value in zip(sample, direct):
        assert pickle.dumps(result.results[label]) == pickle.dumps(value), (
            f"point {label!r} differs between the adaptive engine "
            "and a direct run_sweep execution"
        )
