"""Suite-scale orchestration: one worker pool for every experiment.

Regenerating the paper's evaluation means running ~20 experiment
drivers, each of which expands into an independent *sweep* of
simulation points.  Run one driver at a time and the machine spends
most of its life underused: a fresh worker pool is stood up per sweep,
points dispatch in declaration order so one expensive straggler
serializes the tail, and cores sit idle between experiments.  This
module schedules the whole suite as one flat pool of points instead:

* **Persistent pool** -- a single :class:`~repro.harness.parallel.WorkerPool`
  is created once per suite run (workers warmed with the experiment
  imports) and shared by every sweep, so worker spawn and ``repro.*``
  import costs are paid once, not once per figure.
* **Cost-model scheduling** -- each point's runtime is predicted by a
  :class:`CostModel` fed from the result cache's journaled per-point
  elapsed times (falling back to a per-experiment prior, then a flat
  default), and ready points dispatch longest-processing-time-first.
  Cheap points are chunked into batches so a worker round-trip
  amortizes its IPC over several points.
* **Streaming execution** -- experiments are expanded one after
  another while the pool is already computing earlier ones (cache
  lookups for experiment *k+1* overlap the simulation of experiment
  *k*), completions are consumed via
  :func:`concurrent.futures.as_completed`, and each experiment is
  finalized the moment its last point lands.

Scheduling never changes results: every point is keyed by
``(experiment, index)`` and each experiment's results are merged in
declared point order, so an orchestrated suite is byte-identical to
running the same drivers serially (``benchmarks/perf/test_suite_perf.py``
gates exactly that, plus the wall-clock win).

Drivers participate by exposing the declarative protocol::

    def sweep(**kwargs) -> Sweep        # declare the points
    def finalize(results, **kwargs)     # merge ordered results
    def run(..., jobs=1, cache=None, pool=None)  # == finalize(sweep().run())

``python -m repro suite`` is the CLI entry point.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from concurrent.futures import as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import CacheSpec, ResultCache, resolve_cache
from repro.harness.parallel import SweepPoint, WorkerPool, _clamp_jobs, _execute_point_timed
from repro.obs import bump
from repro.sim.shard import EFFECTIVE_JOBS_ENV


@contextmanager
def _advertise_jobs(effective_jobs: int):
    """Expose the suite's job budget to points executed in-process.

    Worker processes learn the budget from their pool initializer;
    points running in the orchestrating process itself (serial paths)
    read it from the environment, so a sharded point under ``repro
    suite`` clamps its shard fan-out rather than multiplying the
    suite's parallelism.
    """
    previous = os.environ.get(EFFECTIVE_JOBS_ENV)
    os.environ[EFFECTIVE_JOBS_ENV] = str(max(1, effective_jobs))
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(EFFECTIVE_JOBS_ENV, None)
        else:
            os.environ[EFFECTIVE_JOBS_ENV] = previous

#: Name of the per-cache-directory suite journal (one JSON line per
#: orchestrated suite run; distinct from the per-sweep ``journal.jsonl``).
SUITE_JOURNAL_NAME = "suite.jsonl"

#: Points predicted to cost no more than this many seconds are batched.
DEFAULT_BATCH_COST_S = 0.25

#: Upper bound on how many cheap points share one worker round-trip.
DEFAULT_BATCH_MAX = 8

#: Cost assumed for a point with no cache history and no prior.
DEFAULT_POINT_COST_S = 2.0


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment in a suite: a driver module plus its kwargs."""

    name: str
    module_path: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def load(self):
        return importlib.import_module(self.module_path)


def suite_experiments(
    quick: bool = True, names: Optional[Sequence[str]] = None
) -> List[ExperimentSpec]:
    """The full evaluation suite, straight from the CLI registry.

    ``quick`` selects each experiment's scaled-down kwargs (the same
    ones ``repro run --quick`` uses); ``names`` restricts to a subset,
    preserving registry order.
    """
    from repro.cli import EXPERIMENTS, _resolve_experiment

    if names is None:
        selected = list(EXPERIMENTS)
    else:
        wanted = set()
        for name in names:
            resolved = _resolve_experiment(name)
            if resolved is None:
                raise KeyError(f"unknown experiment {name!r}")
            wanted.add(resolved)
        selected = [name for name in EXPERIMENTS if name in wanted]
    specs = []
    for name in selected:
        module_path, quick_kwargs = EXPERIMENTS[name]
        specs.append(
            ExperimentSpec(
                name=name,
                module_path=module_path,
                kwargs=dict(quick_kwargs) if quick else {},
            )
        )
    return specs


def _accepted_kwargs(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """Filter ``kwargs`` down to the parameters ``fn`` accepts.

    Driver ``sweep``/``finalize`` signatures list only the knobs they
    use; the suite hands every driver the same registry kwargs and
    lets each take what it understands (a ``**kwargs`` catch-all
    accepts everything).
    """
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in params}


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class CostModel:
    """Predict a sweep point's runtime from journaled cache timings.

    Every cache entry records the seconds its point took to compute
    (``elapsed_s``); that is exactly the signal LPT scheduling needs.
    Prediction degrades through five tiers:

    1. exact content-address match (same fn, kwargs and code) -- the
       recorded time itself;
    2. a per-function surrogate model
       (:class:`~repro.harness.surrogate.SurrogateSet`) trained on the
       cache journal's per-point records, which interpolates runtime
       across *parameter values* (a qd=64 point near journaled qd=48
       and qd=96 points gets a kwargs-aware estimate, not the fn-wide
       mean);
    3. mean recorded time of the same point function;
    4. a caller-supplied per-experiment prior;
    5. a flat default.

    Built defensively: an absent, empty, or corrupt cache or journal
    never raises here -- it just pushes predictions down the tiers.
    ``tier_hits`` counts which tier answered each prediction.
    """

    #: Fewer journal records than this and the surrogate tier is skipped
    #: for that function (too little signal to beat the per-fn mean).
    SURROGATE_MIN_RECORDS = 8

    #: Newest journal records kept per function when training.
    SURROGATE_MAX_RECORDS = 512

    def __init__(
        self,
        by_fingerprint: Optional[Dict[str, float]] = None,
        by_fn: Optional[Dict[str, float]] = None,
        priors: Optional[Dict[str, float]] = None,
        default_s: float = DEFAULT_POINT_COST_S,
        store: Optional[ResultCache] = None,
        surrogates: Optional[Dict[str, Any]] = None,
    ):
        self.by_fingerprint = by_fingerprint or {}
        self.by_fn = by_fn or {}
        self.priors = priors or {}
        self.default_s = default_s
        self._store = store
        self.surrogates = surrogates or {}
        self.tier_hits = {
            "exact": 0, "surrogate": 0, "by_fn": 0, "prior": 0, "default": 0,
        }

    @classmethod
    def from_cache(
        cls,
        store: Optional[ResultCache],
        priors: Optional[Dict[str, float]] = None,
        default_s: float = DEFAULT_POINT_COST_S,
        surrogate: bool = True,
    ) -> "CostModel":
        by_fingerprint: Dict[str, float] = {}
        sums: Dict[str, Tuple[float, int]] = {}
        if store is not None:
            try:
                entries = store.entries()
            except Exception:
                entries = []
            for entry in entries:
                elapsed = entry.get("elapsed_s")
                if not isinstance(elapsed, (int, float)) or elapsed < 0:
                    continue
                by_fingerprint[entry["fingerprint"]] = float(elapsed)
                total, count = sums.get(entry.get("fn", "?"), (0.0, 0))
                sums[entry.get("fn", "?")] = (total + float(elapsed), count + 1)
        by_fn = {fn: total / count for fn, (total, count) in sums.items() if count}
        surrogates = cls._train_surrogates(store) if surrogate else {}
        return cls(
            by_fingerprint=by_fingerprint,
            by_fn=by_fn,
            priors=priors,
            default_s=default_s,
            store=store,
            surrogates=surrogates,
        )

    @staticmethod
    def _train_surrogates(store: Optional[ResultCache]) -> Dict[str, Any]:
        """Per-fn elapsed_s surrogates from journal point records.

        Never raises: missing numpy falls back to the pure-Python
        k-NN inside :class:`SurrogateSet`, and any journal corruption
        or training failure just drops that function back to tier 3.
        """
        if store is None:
            return {}
        try:
            from repro.harness.surrogate import SurrogateSet, journal_records

            per_fn: Dict[str, List[Tuple[Dict[str, Any], Dict[str, float]]]] = {}
            for record in journal_records(store):
                fn = record.get("fn")
                elapsed = record.get("elapsed_s")
                if not isinstance(fn, str) or not isinstance(elapsed, (int, float)):
                    continue
                if elapsed < 0:
                    continue
                per_fn.setdefault(fn, []).append(
                    (record["kwargs"], {"elapsed_s": float(elapsed)})
                )
        except Exception:
            return {}
        surrogates: Dict[str, Any] = {}
        for fn, records in per_fn.items():
            if len(records) < CostModel.SURROGATE_MIN_RECORDS:
                continue
            try:
                surrogates[fn] = SurrogateSet.fit(
                    records[-CostModel.SURROGATE_MAX_RECORDS:],
                    targets=("elapsed_s",),
                    seed=0,
                )
            except Exception:
                continue
        return surrogates

    def predict(self, point: SweepPoint, experiment: Optional[str] = None, key=None) -> float:
        """Predicted seconds for ``point`` (never raises).  ``key`` is
        the point's :meth:`ResultCache.key` when the caller has it."""
        if self.by_fingerprint and self._store is not None:
            keyed = key or self._store.key(point)
            if keyed is not None:
                exact = self.by_fingerprint.get(keyed[0])
                if exact is not None:
                    self.tier_hits["exact"] += 1
                    return exact
        fn_name = f"{getattr(point.fn, '__module__', '?')}:{getattr(point.fn, '__qualname__', '?')}"
        surrogate = self.surrogates.get(fn_name)
        if surrogate is not None:
            try:
                means, _ = surrogate.predict([point.kwargs])["elapsed_s"]
                predicted = float(means[0])
                if predicted == predicted and predicted != float("inf"):
                    self.tier_hits["surrogate"] += 1
                    return max(0.0, predicted)
            except Exception:
                pass
        by_fn = self.by_fn.get(fn_name)
        if by_fn is not None:
            self.tier_hits["by_fn"] += 1
            return by_fn
        if experiment is not None:
            prior = self.priors.get(experiment)
            if prior is not None:
                self.tier_hits["prior"] += 1
                return prior
        self.tier_hits["default"] += 1
        return self.default_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostModel(exact={len(self.by_fingerprint)}, fns={len(self.by_fn)}, "
            f"surrogates={len(self.surrogates)}, priors={len(self.priors)}, "
            f"default={self.default_s}s)"
        )


# ----------------------------------------------------------------------
# Dispatch planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Task:
    """One schedulable point: (experiment ordinal, point, predicted cost)."""

    exp: int
    point: SweepPoint
    cost: float


def plan_dispatch(
    tasks: Sequence[_Task],
    batch_cost_s: float = DEFAULT_BATCH_COST_S,
    batch_max: int = DEFAULT_BATCH_MAX,
) -> List[List[_Task]]:
    """Order tasks LPT and chunk the cheap ones into batches.

    Returns dispatch *units* (each a list of tasks executed by one
    worker round-trip), sorted most-expensive-first.  Expensive points
    stay singletons; points predicted under ``batch_cost_s`` are
    grouped -- still in LPT order -- into units of up to ``batch_max``
    so the per-task IPC overhead amortizes.  The plan is a pure
    function of (tasks, costs): ties break on declaration order, so
    planning is deterministic even though execution is not ordered.
    """
    ordered = sorted(tasks, key=lambda task: (-task.cost, task.exp, task.point.index))
    units: List[List[_Task]] = []
    batch: List[_Task] = []
    for task in ordered:
        if task.cost > batch_cost_s or batch_max <= 1:
            units.append([task])
            continue
        batch.append(task)
        if len(batch) >= batch_max:
            units.append(batch)
            batch = []
    if batch:
        units.append(batch)
    units.sort(key=lambda unit: (-sum(t.cost for t in unit), unit[0].exp, unit[0].point.index))
    return units


def _execute_unit(tasks: List[Tuple[int, SweepPoint]]) -> List[Tuple[int, int, float, Any]]:
    """Worker-side trampoline: run one dispatch unit's points in order.

    Module-level so units pickle by reference; returns per-point
    ``(experiment ordinal, point index, elapsed seconds, value)`` so
    the parent can merge and write back the cache without ambiguity.
    """
    out: List[Tuple[int, int, float, Any]] = []
    for exp, point in tasks:
        index, elapsed, value = _execute_point_timed(point)
        out.append((exp, index, elapsed, value))
    return out


# ----------------------------------------------------------------------
# The suite runner
# ----------------------------------------------------------------------
@dataclass
class ExperimentRun:
    """Outcome of one experiment inside a suite run."""

    name: str
    result: Any
    points: int
    cache_hits: int
    computed: int
    wall_s: float


@dataclass
class SuiteResult:
    """Everything a suite run produced, in declared experiment order."""

    experiments: List[ExperimentRun]
    wall_s: float
    jobs: int
    points_total: int
    cache_hits: int
    batches: int
    stolen_idle_s: float

    @property
    def results(self) -> Dict[str, Any]:
        return {run.name: run.result for run in self.experiments}

    def report(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 3),
            "experiments": len(self.experiments),
            "points_total": self.points_total,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "stolen_idle_s": round(self.stolen_idle_s, 3),
            "per_experiment": [
                {
                    "name": run.name,
                    "points": run.points,
                    "cache_hits": run.cache_hits,
                    "computed": run.computed,
                    "wall_s": round(run.wall_s, 3),
                }
                for run in self.experiments
            ],
        }


class _ExpState:
    """Parent-side bookkeeping for one experiment's in-flight points."""

    __slots__ = (
        "spec", "module", "sweep", "results", "points_by_index", "keys",
        "pending", "hits", "computed", "started_at", "finished_at", "result",
    )

    def __init__(self, spec: ExperimentSpec, module, sweep):
        self.spec = spec
        self.module = module
        self.sweep = sweep
        self.results: Dict[int, Any] = {}
        self.points_by_index = {point.index: point for point in sweep.points}
        self.keys: Dict[int, Any] = {}  # missed point index -> ResultCache.key from its lookup
        self.pending = 0
        self.hits = 0
        self.computed = 0
        self.started_at = time.perf_counter()
        self.finished_at: Optional[float] = None
        self.result: Any = None

    def finalize(self) -> None:
        ordered = [self.results[point.index] for point in self.sweep.points]
        finalize = getattr(self.module, "finalize")
        self.result = finalize(ordered, **_accepted_kwargs(finalize, self.spec.kwargs))
        self.finished_at = time.perf_counter()

    @property
    def done(self) -> bool:
        return self.finished_at is not None


def run_suite(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    pool: Optional[WorkerPool] = None,
    cost_model: Optional[CostModel] = None,
    priors: Optional[Dict[str, float]] = None,
    batch_cost_s: float = DEFAULT_BATCH_COST_S,
    batch_max: int = DEFAULT_BATCH_MAX,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> SuiteResult:
    """Run every experiment's sweep points on one shared worker pool.

    ``jobs`` defaults to the machine's CPU count (``jobs <= 1`` runs
    in-process, still cost-ordered, still streaming).  ``pool`` lends
    an existing :class:`WorkerPool`; otherwise one is created for the
    run and torn down afterwards.  ``cache`` follows
    :func:`repro.harness.parallel.run_sweep` semantics -- lookups
    happen before dispatch, computed points are written back, and the
    per-experiment merge respects declared point order, so results are
    byte-identical to the serial path.

    ``progress`` (when given) receives ``(event, payload)`` pairs:
    ``point`` per completed point, ``experiment`` per finalized
    experiment, ``suite`` once at the end.
    """
    specs = list(specs)
    started = time.perf_counter()
    store = resolve_cache(cache)
    stats_before = store.stats.snapshot() if store is not None else None
    model = cost_model  # else built from the cache when the first point misses

    own_pool = False
    if pool is None:
        effective_jobs = _clamp_jobs(jobs if jobs is not None and jobs > 0 else 0x7FFFFFFF)
        if effective_jobs > 1:
            pool = WorkerPool(effective_jobs)
            own_pool = True
    else:
        effective_jobs = pool.jobs
        if effective_jobs <= 1:
            # A one-worker pool buys no parallelism, only per-unit
            # pickling and IPC round-trips.  Take the in-process path
            # instead (the caller's pool is untouched -- its lazy
            # executor is never spawned by us and never closed).
            pool = None

    states: List[_ExpState] = []
    futures: Dict[Any, List[Tuple[int, int]]] = {}
    serial_units: List[List[_Task]] = []
    points_total = 0
    cache_hits = 0
    batches = 0
    stolen_idle_s = 0.0

    def emit(event: str, payload: Dict[str, Any]) -> None:
        if progress is not None:
            progress(event, payload)

    def account(state: _ExpState, exp_ord: int, index: int, elapsed: float, value: Any) -> None:
        nonlocal stolen_idle_s
        point = state.points_by_index[index]
        if store is not None:
            value = store.store(point, value, elapsed, state.keys[index])
        state.results[index] = value
        state.pending -= 1
        state.computed += 1
        bump("suite.points_done")
        # Work on a later experiment while an earlier one is still in
        # flight is time the serial-experiment baseline would have
        # spent with those cores idle.
        if any(not earlier.done for earlier in states[:exp_ord]):
            stolen_idle_s += elapsed
        emit(
            "point",
            {
                "experiment": state.spec.name,
                "label": point.label,
                "elapsed_s": elapsed,
                "remaining": state.pending,
            },
        )
        if state.pending == 0:
            state.finalize()
            bump("suite.experiments_done")
            emit(
                "experiment",
                {
                    "experiment": state.spec.name,
                    "points": len(state.points_by_index),
                    "cache_hits": state.hits,
                    "wall_s": state.finished_at - state.started_at,
                },
            )

    try:
        # -- expansion, cache lookup, dispatch (streaming) -------------
        for exp_ord, spec in enumerate(specs):
            module = spec.load()
            sweep_fn = getattr(module, "sweep", None)
            if sweep_fn is None:
                raise TypeError(
                    f"experiment {spec.name!r} ({spec.module_path}) does not expose "
                    "the declarative sweep()/finalize() protocol"
                )
            sweep = sweep_fn(**_accepted_kwargs(sweep_fn, spec.kwargs))
            state = _ExpState(spec, module, sweep)
            states.append(state)
            tasks: List[_Task] = []
            for point in sweep.points:
                points_total += 1
                key = None
                if store is not None:
                    key = store.key(point)
                    hit, value = store.lookup(point, key)
                    if hit:
                        state.results[point.index] = value
                        state.hits += 1
                        cache_hits += 1
                        bump("suite.cache_hits")
                        bump("suite.points_done")
                        continue
                if model is None:
                    model = CostModel.from_cache(store, priors=priors)
                state.keys[point.index] = key
                tasks.append(_Task(exp_ord, point, model.predict(point, spec.name, key)))
            state.pending = len(tasks)
            if not tasks:
                state.finalize()
                emit(
                    "experiment",
                    {
                        "experiment": spec.name,
                        "points": len(state.points_by_index),
                        "cache_hits": state.hits,
                        "wall_s": state.finished_at - state.started_at,
                    },
                )
                continue
            units = plan_dispatch(tasks, batch_cost_s=batch_cost_s, batch_max=batch_max)
            batches += sum(1 for unit in units if len(unit) > 1)
            if pool is not None:
                # Submitting is non-blocking, so expanding and looking
                # up experiment k+1 overlaps computing experiment k.
                for unit in units:
                    payload = [(task.exp, task.point) for task in unit]
                    future = pool.submit(_execute_unit, payload)
                    futures[future] = [(task.exp, task.point.index) for task in unit]
            else:
                serial_units.extend(units)

        bump("suite.points_total", points_total)

        # -- consumption -----------------------------------------------
        if pool is not None:
            try:
                for future in as_completed(futures):
                    for exp_ord, index, elapsed, value in future.result():
                        account(states[exp_ord], exp_ord, index, elapsed, value)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        else:
            with _advertise_jobs(effective_jobs):
                for unit in serial_units:
                    for exp_ord, point in ((task.exp, task.point) for task in unit):
                        index, elapsed, value = _execute_point_timed(point)
                        account(states[exp_ord], exp_ord, index, elapsed, value)
    finally:
        if own_pool and pool is not None:
            pool.close(cancel_pending=True)

    wall_s = time.perf_counter() - started
    bump("suite.stolen_idle_sec", stolen_idle_s)
    result = SuiteResult(
        experiments=[
            ExperimentRun(
                name=state.spec.name,
                result=state.result,
                points=len(state.points_by_index),
                cache_hits=state.hits,
                computed=state.computed,
                wall_s=(state.finished_at or started) - state.started_at,
            )
            for state in states
        ],
        wall_s=wall_s,
        jobs=effective_jobs,
        points_total=points_total,
        cache_hits=cache_hits,
        batches=batches,
        stolen_idle_s=stolen_idle_s,
    )
    emit("suite", result.report())
    _journal_suite(store, stats_before, result)
    return result


def _journal_suite(
    store: Optional[ResultCache],
    stats_before: Optional[Dict[str, Any]],
    result: SuiteResult,
) -> None:
    """Append one line to the cache directory's suite journal."""
    if store is None:
        return
    record = {"at": round(time.time(), 3)}
    record.update(result.report())
    if stats_before is not None:
        record["cache"] = store.stats.delta_since(stats_before)
    try:
        store.root.mkdir(parents=True, exist_ok=True)
        with open(store.root / SUITE_JOURNAL_NAME, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        pass


def run_suite_serial(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache: CacheSpec = None,
) -> Dict[str, Any]:
    """The pre-orchestrator baseline: experiments one at a time.

    Each driver's ``run()`` executes to completion (fanning its own
    points across ``jobs`` workers with a per-sweep executor) before
    the next driver starts.  This is both the reference the perf gate
    compares against and the identity oracle for CI: orchestrated and
    serial suites must produce equal per-experiment results.
    """
    results: Dict[str, Any] = {}
    with _advertise_jobs(jobs):
        for spec in specs:
            module = spec.load()
            run_fn = module.run
            kwargs = _accepted_kwargs(run_fn, spec.kwargs)
            params = inspect.signature(run_fn).parameters
            if "jobs" in params:
                kwargs["jobs"] = jobs
            if "cache" in params:
                kwargs["cache"] = cache
            results[spec.name] = run_fn(**kwargs)
    return results
