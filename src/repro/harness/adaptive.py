"""Surrogate-guided adaptive sweeps: screen huge grids, simulate few.

Brute-force sweeps -- even cached, parallel, and sharded -- cannot
touch the 10^4..10^6-point what-if grids the datacenter-offload sizing
questions ask (tenants x credits x offload capacity x skew).  This
module turns the result cache from a memoizer into a grid-screening
accelerator:

1. expand the full parameter grid declaratively (same axes protocol as
   :func:`repro.harness.parallel.sweep_axes`);
2. score every grid point with a surrogate model
   (:mod:`repro.harness.surrogate`) trained on the points simulated so
   far -- optionally warm-started from the cache journal's records of
   *previous* runs -- plus a neighbourhood-disagreement uncertainty;
3. simulate only the points near predicted crossovers/cliffs and in
   high-uncertainty regions, dispatching through the ordinary
   :func:`~repro.harness.parallel.run_sweep` path so per-point seeds,
   cache write-back and byte-identity semantics are reused unchanged;
4. retrain and repeat until a held-out error bound is met or the
   simulation budget is spent.

The held-out error is honest by construction: every batch is predicted
*before* it is simulated, so the reported RMSE is always out-of-sample.
Every point the engine does simulate is built with the same label
convention and :func:`~repro.harness.parallel.point_seed` derivation as
a declarative sweep, so its result is byte-identical to a direct
``run_sweep`` of that point (a property test and the explore perf gate
both enforce this).

``python -m repro explore <experiment>`` is the CLI entry point;
drivers participate by exposing ``explore_space() -> ExploreSpace``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import CacheSpec, resolve_cache
from repro.harness.parallel import SweepPoint, WorkerPool, point_seed, run_sweep, sweep_axes
from repro.harness.surrogate import SurrogateSet, flatten_numeric, journal_records
from repro.obs import bump
from repro.sim.rng import derive_seed

#: Acquisition weights: proximity to a predicted crossover/cliff vs
#: neighbourhood disagreement.  Both terms are normalized, so the exact
#: split matters less than having both.
CROSSOVER_WEIGHT = 0.6
UNCERTAINTY_WEIGHT = 0.4

#: Weight of the bisection term: an unsimulated point inside an
#: *observed* sign-flip bracket.  Deliberately above the other two
#: terms combined -- a confirmed bracket is ground truth, a prediction
#: is an opinion, so brackets refine first.
BISECTION_WEIGHT = 2.0


# ----------------------------------------------------------------------
# Declarative exploration space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossoverSpec:
    """Where the hunt is: a signal whose sign flips along one axis.

    ``metric - minus`` (two curves crossing) when ``minus`` is given,
    else ``metric - level`` (a curve crossing a threshold/cliff).
    Crossovers are reported per combination of the other axes.
    """

    along: str
    metric: str
    minus: Optional[str] = None
    level: float = 0.0

    def signal(self, outputs: Mapping[str, float]) -> Optional[float]:
        value = outputs.get(self.metric)
        if value is None:
            return None
        if self.minus is not None:
            other = outputs.get(self.minus)
            if other is None:
                return None
            return float(value) - float(other)
        return float(value) - self.level

    @property
    def metrics(self) -> Tuple[str, ...]:
        return (self.metric,) if self.minus is None else (self.metric, self.minus)


@dataclass
class ExploreSpace:
    """A parameter grid plus what to learn about it.

    ``axes`` expand exactly like a declarative sweep (last axis
    fastest); ``fixed`` kwargs ride along on every point; ``targets``
    are dotted output paths (as produced by
    :func:`~repro.harness.surrogate.flatten_numeric`) the surrogate
    must predict; ``crossover`` names the structure to locate.
    """

    name: str
    point_fn: Callable[..., Any]
    axes: Dict[str, List[Any]]
    fixed: Dict[str, Any] = field(default_factory=dict)
    targets: Tuple[str, ...] = ()
    crossover: Optional[CrossoverSpec] = None
    root_seed: int = 42

    def __post_init__(self) -> None:
        self.axes = {name: list(values) for name, values in self.axes.items()}
        if self.crossover is not None and self.crossover.along not in self.axes:
            raise ValueError(
                f"crossover axis {self.crossover.along!r} is not one of the "
                f"grid axes {list(self.axes)}"
            )
        targets = list(self.targets)
        if self.crossover is not None:
            for metric in self.crossover.metrics:
                if metric not in targets:
                    targets.append(metric)
        self.targets = tuple(targets)

    def combos(self) -> List[Dict[str, Any]]:
        return sweep_axes(self.axes)

    def label(self, combo: Mapping[str, Any]) -> str:
        """Same label convention as ``build_sweep``: axis order, k=v."""
        return ",".join(f"{key}={combo[key]}" for key in combo)

    def point(self, index: int, combo: Mapping[str, Any]) -> SweepPoint:
        """Build the grid point exactly as a declarative sweep would.

        The per-point seed derives from ``(root_seed, label)`` through
        :func:`~repro.harness.parallel.point_seed`, so simulating this
        point here, via ``run_sweep``, or from a driver's ``sweep()``
        with the same label produces byte-identical results.
        """
        label = self.label(combo)
        return SweepPoint(
            index=index,
            label=label,
            fn=self.point_fn,
            kwargs={
                "seed": point_seed(self.root_seed, label),
                **self.fixed,
                **combo,
            },
        )


# ----------------------------------------------------------------------
# Crossover extraction
# ----------------------------------------------------------------------
def _group_along(
    space: ExploreSpace, combos: Sequence[Mapping[str, Any]]
) -> Dict[Tuple, List[int]]:
    """Grid indices per combination of the non-``along`` axes.

    Within each group the indices follow the ``along`` axis's declared
    order (grid expansion order).  Insertion order of the groups is
    itself deterministic, so iterating the dict is reproducible.
    """
    spec = space.crossover
    groups: Dict[Tuple, List[int]] = {}
    for index, combo in enumerate(combos):
        key = tuple((axis, combo[axis]) for axis in space.axes if axis != spec.along)
        groups.setdefault(key, []).append(index)
    return groups


def find_crossovers(
    space: ExploreSpace, signals: Mapping[int, Optional[float]]
) -> List[Dict[str, Any]]:
    """Locate sign flips of the crossover signal along its axis.

    ``signals`` maps grid-combo index to the signal value (predicted or
    actual); indices absent or mapped to ``None`` are skipped, so a
    sparse (observed-points-only) mapping still locates flips across
    the gaps between simulated points.  For every combination of the
    non-``along`` axes, the ``along`` axis is scanned in declared
    order; each sign change between consecutive *known* signals is
    reported with its bracketing grid values and a linear-interpolation
    estimate.  Shared by the engine and the frozen-ground-truth
    regeneration, so "what counts as a crossover" can never drift
    between the two.
    """
    spec = space.crossover
    if spec is None:
        return []
    combos = space.combos()
    groups = _group_along(space, combos)
    out: List[Dict[str, Any]] = []
    for key in groups:
        # Grid expansion order == axis declared order; unknown-signal
        # points drop out so flips are found across sampling gaps.
        indices = [index for index in groups[key] if signals.get(index) is not None]
        for left, right in zip(indices, indices[1:]):
            s_left, s_right = signals[left], signals[right]
            if s_left == 0.0:
                flip = True
                estimate = float(combos[left][spec.along])
            elif s_left * s_right < 0.0:
                flip = True
                lo = float(combos[left][spec.along])
                hi = float(combos[right][spec.along])
                estimate = lo + (hi - lo) * (s_left / (s_left - s_right))
            else:
                flip = False
            if flip:
                out.append(
                    {
                        "group": {axis: value for axis, value in key},
                        "along": spec.along,
                        "lo": combos[left][spec.along],
                        "hi": combos[right][spec.along],
                        "estimate": round(estimate, 6),
                        "signal_lo": round(s_left, 6),
                        "signal_hi": round(s_right, 6),
                    }
                )
    return out


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class ExploreResult:
    """Everything one adaptive exploration produced."""

    space_name: str
    grid_points: int
    simulated_labels: List[str]
    rounds: int
    budget_points: int
    heldout: Dict[str, Dict[str, float]]
    crossovers: List[Dict[str, Any]]
    results: Dict[str, Any]
    predicted: Dict[str, List[float]]
    wall_s: float
    stopped_on: str

    @property
    def simulated_count(self) -> int:
        return len(self.simulated_labels)

    @property
    def fraction_simulated(self) -> float:
        return self.simulated_count / max(1, self.grid_points)

    def report(self) -> Dict[str, Any]:
        """JSON-safe summary (results themselves stay out of it)."""
        return {
            "space": self.space_name,
            "grid_points": self.grid_points,
            "simulated": self.simulated_count,
            "fraction_simulated": round(self.fraction_simulated, 4),
            "budget_points": self.budget_points,
            "rounds": self.rounds,
            "stopped_on": self.stopped_on,
            "heldout": self.heldout,
            "crossovers": self.crossovers,
            "wall_s": round(self.wall_s, 3),
        }


def _resolve_budget(budget: float, grid: int) -> int:
    """``budget`` <= 1 is a grid fraction; > 1 is an absolute count."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    points = int(budget) if budget > 1.0 else int(math.floor(budget * grid))
    return max(1, min(points, grid))


def explore(
    space: ExploreSpace,
    budget: float = 0.2,
    target_error: float = 0.05,
    batch_size: Optional[int] = None,
    jobs: int = 1,
    cache: CacheSpec = None,
    pool: Optional[WorkerPool] = None,
    bootstrap: bool = True,
    max_rounds: int = 12,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> ExploreResult:
    """Adaptively explore ``space``, simulating at most ``budget`` points.

    ``budget`` is a grid fraction (<= 1.0) or an absolute point count;
    ``target_error`` stops the loop early once every target's held-out
    relative RMSE (RMSE over the observed value range) is under it.
    ``jobs``/``cache``/``pool`` pass straight through to
    :func:`~repro.harness.parallel.run_sweep`, so cached points replay
    from disk and computed points write back -- an exploration warms
    the same cache a sweep would.  ``bootstrap`` seeds training with
    the cache journal's records of this point function under the
    current code fingerprint.

    The loop is a pure function of (space, arguments, journal
    contents): the initial design uses seeded RNG, the surrogate has
    no random state, and batch selection breaks ties deterministically
    -- never the wall clock.
    """
    started = time.perf_counter()
    combos = space.combos()
    grid = len(combos)
    budget_points = _resolve_budget(budget, grid)
    batch = batch_size if batch_size else max(1, budget_points // 4)
    init_n = min(budget_points, max(3, budget_points // 3))
    spec = space.crossover

    def emit(event: str, payload: Dict[str, Any]) -> None:
        if progress is not None:
            progress(event, payload)

    # -- journal warm start -------------------------------------------
    store = resolve_cache(cache)
    extra_training: List[Tuple[Dict[str, Any], Dict[str, float]]] = []
    if bootstrap and store is not None:
        probe = space.point(0, combos[0])
        keyed = store.key(probe)
        if keyed is not None:
            code_fp = keyed[2]
            fn_name = f"{probe.fn.__module__}:{probe.fn.__qualname__}"
            for record in journal_records(store, fn=fn_name, code_fingerprint=code_fp):
                outputs = record.get("outputs")
                if isinstance(outputs, dict):
                    extra_training.append((record["kwargs"], outputs))

    # -- state ---------------------------------------------------------
    observed: Dict[int, Dict[str, float]] = {}  # combo index -> flat outputs
    results_by_label: Dict[str, Any] = {}
    heldout_pairs: Dict[str, List[Tuple[float, float]]] = {t: [] for t in space.targets}
    pending_preds: List[Tuple[str, float, int]] = []  # (target, prediction, combo index)
    surrogate: Optional[SurrogateSet] = None
    rounds = 0
    stopped_on = "budget"

    def train() -> SurrogateSet:
        records = extra_training + [
            (combos[index], observed[index]) for index in sorted(observed)
        ]
        return SurrogateSet.fit(records, space.targets)

    def simulate(indices: List[int]) -> None:
        points = [space.point(pos, combos[index]) for pos, index in enumerate(indices)]
        # Held-out bookkeeping: predictions are recorded before the
        # batch runs, so the error is always out-of-sample.
        if surrogate is not None:
            predictions = surrogate.predict([combos[index] for index in indices])
            for target, (means, _) in predictions.items():
                for offset, index in enumerate(indices):
                    pending_preds.append((target, means[offset], index))
        values = run_sweep(
            points, jobs=jobs, cache=cache, name=f"explore:{space.name}", pool=pool
        )
        for point, index, value in zip(points, indices, values):
            flat = flatten_numeric(value)
            observed[index] = flat
            results_by_label[point.label] = value
        # Resolve the recorded predictions to (predicted, actual) pairs.
        still_pending: List[Tuple[str, float, int]] = []
        for target, pred, index in pending_preds:
            if index in observed and target in observed[index]:
                heldout_pairs[target].append((pred, observed[index][target]))
            else:
                still_pending.append((target, pred, index))
        pending_preds[:] = still_pending
        bump("explore.simulated", len(indices))
        emit("batch", {"simulated": len(observed), "budget": budget_points})

    # -- initial design ------------------------------------------------
    # Stratified when hunting crossovers: every group of the non-along
    # axes gets its along-axis endpoints, so a sign flip anywhere in a
    # group is bracketed from round one and bisection (the strongest
    # acquisition term) engages immediately.  Random fill tops up to
    # the target size; everything is seeded, so the design is a pure
    # function of (space, budget).
    rng = random.Random(derive_seed(space.root_seed, f"explore:{space.name}:init"))
    initial = {0, grid - 1}
    if spec is not None:
        for indices in _group_along(space, combos).values():
            if len(initial) + 2 > budget_points:
                break
            initial.add(indices[0])
            initial.add(indices[-1])
    while len(initial) < min(budget_points, max(init_n, len(initial))):
        initial.add(rng.randrange(grid))
    simulate(sorted(initial))
    rounds += 1

    # -- adaptive refinement -------------------------------------------
    while len(observed) < budget_points and rounds < max_rounds:
        surrogate = train()
        predictions = surrogate.predict(combos)
        scores = _acquisition(space, combos, predictions, observed)
        remaining = budget_points - len(observed)
        chosen = [index for index, _ in scores[: min(batch, remaining)]]
        if not chosen:
            stopped_on = "exhausted"
            break
        simulate(chosen)
        rounds += 1
        errors = _heldout_errors(heldout_pairs, observed, space.targets)
        if errors and all(
            stats["rel_rmse"] <= target_error for stats in errors.values()
        ):
            stopped_on = "target_error"
            break
    else:
        stopped_on = "budget" if len(observed) >= budget_points else "max_rounds"

    # -- final model + crossovers --------------------------------------
    surrogate = train()
    predictions = surrogate.predict(combos)
    predicted_means = {
        target: list(means) for target, (means, _) in predictions.items()
    }
    crossovers: List[Dict[str, Any]] = []
    if spec is not None:
        # Primary pass on actual signals only: a flip between two
        # simulated points is ground truth, and interpolating their
        # real signal values across the (possibly multi-step) bracket
        # beats trusting the surrogate inside it.
        signals_obs: Dict[int, Optional[float]] = {
            index: spec.signal(observed[index]) for index in observed
        }
        crossovers = find_crossovers(space, signals_obs)
        for crossover in crossovers:
            crossover["observed"] = True
        flipped = {
            tuple(sorted(crossover["group"].items())) for crossover in crossovers
        }
        # Secondary pass: groups with no observed flip fall back to the
        # surrogate's opinion (actual signals overriding predictions at
        # simulated points), flagged as unconfirmed.
        signals_all: Dict[int, Optional[float]] = {
            index: spec.signal(
                {t: predicted_means[t][index] for t in predicted_means}
            )
            for index in range(grid)
        }
        signals_all.update(signals_obs)
        for crossover in find_crossovers(space, signals_all):
            if tuple(sorted(crossover["group"].items())) not in flipped:
                crossover["observed"] = False
                crossovers.append(crossover)
    errors = _heldout_errors(heldout_pairs, observed, space.targets)

    result = ExploreResult(
        space_name=space.name,
        grid_points=grid,
        simulated_labels=[
            space.label(combos[index]) for index in sorted(observed)
        ],
        rounds=rounds,
        budget_points=budget_points,
        heldout=errors,
        crossovers=crossovers,
        results=results_by_label,
        predicted=predicted_means,
        wall_s=time.perf_counter() - started,
        stopped_on=stopped_on,
    )
    bump("explore.rounds", rounds)
    emit("done", result.report())
    return result


def _acquisition(
    space: ExploreSpace,
    combos: List[Dict[str, Any]],
    predictions: Dict[str, Tuple[List[float], List[float]]],
    observed: Mapping[int, Mapping[str, float]],
) -> List[Tuple[int, float]]:
    """Rank unsimulated combos for the next batch.

    Three terms, strongest first: **bisection** (the candidate sits
    between two simulated points whose *actual* signals disagree in
    sign -- the crossover is provably in there; midpoints of wide
    brackets score highest), **crossover proximity** (the surrogate
    predicts a small signal magnitude nearby), and **neighbourhood
    disagreement** (the nearest simulated points can't agree, so the
    region is under-sampled).  Deterministic: pure arithmetic over
    predictions and observations, ties break on grid index.
    """
    spec = space.crossover
    candidates = [index for index in range(len(combos)) if index not in observed]
    # Per-target uncertainty, normalized by that target's prediction spread.
    scales: Dict[str, float] = {}
    for target, (means, _) in predictions.items():
        spread = (max(means) - min(means)) if means else 0.0
        scales[target] = spread if spread > 0 else 1.0
    bisection: Dict[int, float] = {}
    if spec is not None:
        for indices in _group_along(space, combos).values():
            done = [
                (position, index)
                for position, index in enumerate(indices)
                if index in observed
            ]
            for (pos_a, idx_a), (pos_b, idx_b) in zip(done, done[1:]):
                if pos_b - pos_a < 2:
                    continue  # bracket already tight: adjacent grid points
                s_a = spec.signal(observed[idx_a])
                s_b = spec.signal(observed[idx_b])
                if s_a is None or s_b is None or s_a * s_b >= 0.0:
                    continue
                gap = pos_b - pos_a
                mid = pos_a + gap // 2
                for position in range(pos_a + 1, pos_b):
                    index = indices[position]
                    if index in observed:
                        continue
                    # The constant 1.0 keeps any refinable bracket above
                    # every exploration term; the midpoint halves the
                    # bracket fastest and wider brackets outrank narrow.
                    closeness = 1.0 - abs(position - mid) / gap
                    score = 1.0 + gap / len(indices) + 0.5 * closeness
                    bisection[index] = max(bisection.get(index, 0.0), score)
    proximity: Dict[int, float] = {}
    if spec is not None:
        signal_pred = {
            index: spec.signal({t: predictions[t][0][index] for t in predictions})
            for index in range(len(combos))
        }
        magnitudes = sorted(
            abs(s) for s in signal_pred.values() if s is not None
        )
        scale = magnitudes[len(magnitudes) // 2] if magnitudes else 1.0
        scale = scale if scale > 0 else 1.0
        for index in candidates:
            signal = signal_pred.get(index)
            proximity[index] = (
                0.0 if signal is None else 1.0 / (1.0 + abs(signal) / scale)
            )
    scored: List[Tuple[int, float]] = []
    for index in candidates:
        disagreement = sum(
            predictions[target][1][index] / scales[target] for target in predictions
        ) / max(1, len(predictions))
        score = UNCERTAINTY_WEIGHT * disagreement
        if spec is not None:
            score += CROSSOVER_WEIGHT * proximity[index]
            score += BISECTION_WEIGHT * bisection.get(index, 0.0)
        scored.append((index, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def _heldout_errors(
    heldout_pairs: Mapping[str, List[Tuple[float, float]]],
    observed: Mapping[int, Mapping[str, float]],
    targets: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Per-target RMSE of the pre-simulation predictions.

    ``rel_rmse`` normalizes by the observed value range so the bound
    is unit-free (a 5% error on MB/s and on Jain mean the same thing).
    """
    out: Dict[str, Dict[str, float]] = {}
    for target in targets:
        pairs = [
            (pred, actual)
            for pred, actual in heldout_pairs.get(target, [])
            if isinstance(actual, (int, float))
        ]
        if not pairs:
            continue
        rmse = math.sqrt(
            sum((pred - actual) ** 2 for pred, actual in pairs) / len(pairs)
        )
        values = [flat[target] for flat in observed.values() if target in flat]
        span = (max(values) - min(values)) if values else 0.0
        out[target] = {
            "rmse": round(rmse, 6),
            "rel_rmse": round(rmse / span, 6) if span > 0 else (0.0 if rmse == 0 else 1.0),
            "count": len(pairs),
            "range": round(span, 6),
        }
    return out
