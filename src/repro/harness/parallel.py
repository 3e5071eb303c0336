"""Deterministic sweep runner: one loop for a sweep and for a suite.

Every paper figure is a *sweep*: a list of independent simulation
points (one testbed stood up per combination of scheme, condition,
IO shape, ...), each fully determined by its inputs and its RNG seed.
That independence is what this module exploits: points may run in this
process or fan out across a :class:`WorkerPool`, and the results are
merged back **in declared point order**, so a parallel run produces
output byte-identical to the serial run.

:func:`run_groups` is the only place points are keyed, looked up in
the result cache, executed, stored and journaled.  It takes
``(name, points, finalize)`` groups: :func:`run_sweep` (and so every
driver's ``run()``) is a suite of one group,
:func:`repro.harness.orchestrator.run_suite` one group per experiment.
Two executors sit behind it, chosen from the worker count alone: this
process, or a :class:`WorkerPool` (lent by the caller, or created for
the call when ``jobs > 1``).

* **Cost-model scheduling** -- each missed point's runtime is predicted
  by a :class:`CostModel` fed from the result cache's journaled
  per-point elapsed times, and ready points dispatch
  longest-processing-time-first.  Cheap points are chunked into batches
  so a worker round-trip amortizes its IPC over several points.  With
  no cache there is no history: every point costs the flat default and
  dispatch is declaration order, unbatched.
* **Streaming execution** -- groups are expanded one after another
  while the pool is already computing earlier ones, completions are
  consumed via :func:`concurrent.futures.as_completed` (a failed point
  cancels its unstarted siblings), and each group is finalized the
  moment its last point lands.
* **One journal** -- every call appends one run line (hits, misses,
  worker counts, the :meth:`SuiteResult.report` fields including the
  cost model's ``tier_hits``) to the cache directory's
  ``journal.jsonl`` and mirrors ``cache.*`` into the active
  observability session.

Determinism contract
--------------------

* A point function must be a module-level callable (picklable by
  reference) whose result depends only on its keyword arguments.
  Global state it touches (RNG streams, per-process caches) must be
  derived from those arguments, never from execution order.
* Per-point seeds are derived with :func:`repro.sim.rng.derive_seed`
  from the sweep's root seed and the point's label, so they are stable
  across processes, Python versions and point orderings.
* Merging happens in point-declaration order using order-free
  reducers: list results concatenate, and metric objects fold with
  :meth:`LatencyHistogram.merge() <repro.metrics.histogram.LatencyHistogram.merge>` and
  :meth:`IntervalSeries.merge() <repro.metrics.throughput.IntervalSeries.merge>`.

``jobs <= 1`` runs the points in-process (no executor, no pickling),
which is also what the experiment drivers default to.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import CacheSpec, ResultCache, resolve_cache
from repro.obs import bump
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep."""

    index: int
    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


def point_seed(root_seed: int, label: str) -> int:
    """The child seed for one sweep point.

    Stable across processes and independent of sibling points, so a
    point computes the same result whether it runs first, last, or in
    a worker process of its own.
    """
    return derive_seed(root_seed, f"sweep-point:{label}")


def _execute_point_timed(point: SweepPoint) -> Tuple[int, float, Any]:
    """Run one point, reporting wall time so the cache can record how
    many seconds a future hit will save."""
    start = time.perf_counter()
    value = point.execute()
    return point.index, time.perf_counter() - start, value


def _clamp_jobs(jobs: int) -> int:
    """Clamp a requested worker count to the machine's CPU count.

    Oversubscribing a sweep with more worker processes than cores only
    adds scheduler churn and memory pressure; results are unchanged
    either way (the merge is order-independent), so the clamp is safe.
    A clamp is surfaced through the active observability session (when
    one is capturing) rather than stdout, so drivers stay quiet.
    """
    cpu_count = os.cpu_count() or 1
    if jobs <= cpu_count:
        return jobs
    bump("sweep.jobs_clamped")
    return cpu_count


class WorkerPool:
    """A persistent process pool shared across sweeps.

    Given only ``jobs > 1``, a sweep or suite creates one of these for
    the call and tears it down afterwards; lending one is the
    suite-scale alternative -- workers are created once and reused by
    every sweep handed the pool::

        with WorkerPool(jobs=8) as pool:
            rows_a = sweep_a.run(pool=pool)
            rows_b = sweep_b.run(pool=pool)

    The executor is created lazily on first use, so building a pool is
    free until something actually dispatches to it.  ``jobs`` defaults
    to (and is clamped at) ``os.cpu_count()``.
    """

    def __init__(self, jobs: Optional[int] = None):
        requested = jobs if jobs is not None and jobs > 0 else (os.cpu_count() or 1)
        self.jobs = _clamp_jobs(requested)
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any):
        return self.executor.submit(fn, *args)

    def close(self, cancel_pending: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel_pending)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(cancel_pending=exc_type is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._executor is not None else "lazy"
        return f"WorkerPool(jobs={self.jobs}, {state})"


#: Points predicted to cost no more than this many seconds are batched.
DEFAULT_BATCH_COST_S = 0.25

#: Upper bound on how many cheap points share one worker round-trip.
DEFAULT_BATCH_MAX = 8

#: Cost assumed for a point whose function has no journaled timing.
DEFAULT_POINT_COST_S = 2.0


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class CostModel:
    """Predict a sweep point's runtime from journaled cache timings.

    Every point the cache stores appends a journal record with the
    seconds it took to compute (``elapsed_s``) -- a record that, unlike
    the entry file, survives code edits and pruning; that is exactly
    the signal LPT scheduling needs.  Prediction has two tiers: the
    mean recorded time of the same point function, then a flat
    default.  (A point whose exact fingerprint has an entry is a cache
    *hit* and is never predicted, so there is no exact-match tier.)
    Built defensively: an absent, empty, or corrupt journal never
    raises here -- it just leaves every prediction at the default.
    ``tier_hits`` counts which tier answered each prediction.
    """

    #: Newest journal records kept per function.
    MAX_RECORDS = 512

    def __init__(
        self,
        by_fn: Optional[Dict[str, float]] = None,
        default_s: float = DEFAULT_POINT_COST_S,
    ):
        self.by_fn = by_fn or {}
        self.default_s = default_s
        self.tier_hits = {"by_fn": 0, "default": 0}

    @classmethod
    def from_cache(
        cls, store: Optional[ResultCache], default_s: float = DEFAULT_POINT_COST_S
    ) -> "CostModel":
        """Per-fn means from ``store``'s journal point records (an empty
        model when there is no store)."""
        try:
            records = store.point_records() if store is not None else []
        except Exception:
            records = []
        per_fn: Dict[str, List[float]] = {}
        for record in records:
            fn = record.get("fn")
            elapsed = record.get("elapsed_s")
            if isinstance(fn, str) and isinstance(elapsed, (int, float)) and elapsed >= 0:
                per_fn.setdefault(fn, []).append(float(elapsed))
        by_fn = {}
        for fn, times in per_fn.items():
            times = times[-cls.MAX_RECORDS:]
            by_fn[fn] = sum(times) / len(times)
        return cls(by_fn=by_fn, default_s=default_s)

    def predict(self, point: SweepPoint) -> float:
        """Predicted seconds for ``point`` (never raises)."""
        fn_name = f"{getattr(point.fn, '__module__', '?')}:{getattr(point.fn, '__qualname__', '?')}"
        by_fn = self.by_fn.get(fn_name)
        if by_fn is not None:
            self.tier_hits["by_fn"] += 1
            return by_fn
        self.tier_hits["default"] += 1
        return self.default_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostModel(fns={len(self.by_fn)}, default={self.default_s}s)"


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
# The loop
# ----------------------------------------------------------------------
@dataclass
class ExperimentRun:
    """Outcome of one group (experiment) inside a run."""

    name: str
    result: Any
    points: int
    cache_hits: int
    computed: int
    wall_s: float


@dataclass
class SuiteResult:
    """Everything a run produced, in declared group order."""

    experiments: List[ExperimentRun]
    wall_s: float
    jobs: int
    points_total: int
    cache_hits: int
    batches: int
    stolen_idle_s: float
    tier_hits: Dict[str, int]

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
            "tier_hits": self.tier_hits,
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


#: One unit of work for :func:`run_groups`: a name, the points to run,
#: and the reducer that turns their results (declared point order) into
#: the group's result.
Group = Tuple[str, Sequence[SweepPoint], Callable[[List[Any]], Any]]


class _GroupState:
    """Parent-side bookkeeping for one group's in-flight points."""

    __slots__ = (
        "name", "points", "reduce", "results", "points_by_index", "keys",
        "pending", "hits", "computed", "started_at", "finished_at", "result",
    )

    def __init__(self, group: Group):
        self.name, points, self.reduce = group
        self.points = list(points)
        self.results: Dict[int, Any] = {}
        self.points_by_index = {point.index: point for point in self.points}
        self.keys: Dict[int, Any] = {}  # missed point index -> ResultCache.key from its lookup
        self.pending = 0
        self.hits = 0
        self.computed = 0
        self.started_at = time.perf_counter()
        self.finished_at: Optional[float] = None
        self.result: Any = None

    def finalize(self) -> None:
        self.result = self.reduce([self.results[point.index] for point in self.points])
        self.finished_at = time.perf_counter()

    @property
    def done(self) -> bool:
        return self.finished_at is not None


def run_groups(
    groups: Iterable[Group],
    name: Optional[str],
    jobs_requested: int,
    jobs: int,
    cache: CacheSpec = None,
    pool: Optional[WorkerPool] = None,
    cost_model: Optional[CostModel] = None,
    batch_cost_s: float = DEFAULT_BATCH_COST_S,
    batch_max: int = DEFAULT_BATCH_MAX,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> SuiteResult:
    """Key, look up, run, store and journal every point of ``groups``.

    ``groups`` may be a generator: each group is expanded, looked up
    and dispatched before the next one is asked for.  ``jobs`` is the
    effective worker count and ``jobs_requested`` what the caller asked
    for (:func:`_resolve_jobs`; both land in the journal).  ``jobs <=
    1`` runs every missed point in this process; otherwise points go
    to ``pool``, or to a pool created for the call and torn down
    afterwards.  Lookups happen before dispatch, each
    point's :meth:`ResultCache.key` is taken before it runs, computed
    values are merged as read back from their JSON round-trip, and each
    group's merge respects declared point order -- so results do not
    depend on the executor, the plan, or the cache's temperature.

    ``cost_model`` substitutes the model the plan is drawn from (else
    one is built from the cache when the first point misses).
    ``progress`` (when given) receives ``(event, payload)`` pairs:
    ``point`` per computed point, ``experiment`` per finalized group,
    ``suite`` once at the end.  ``name`` labels the run's journal line.
    """
    started = time.perf_counter()
    store = resolve_cache(cache)
    stats_before = store.stats.snapshot() if store is not None else None
    model = cost_model  # else built from the cache when the first point misses

    own_pool = pool is None and jobs > 1
    if own_pool:
        pool = WorkerPool(jobs)
    elif jobs <= 1:
        # One worker buys no parallelism, only per-unit pickling and IPC
        # round-trips: a lent one-worker pool is left untouched (its
        # lazy executor is never spawned by us and never closed).
        pool = None

    states: List[_GroupState] = []
    futures: List[Any] = []
    points_total = 0
    cache_hits = 0
    batches = 0
    stolen_idle_s = 0.0

    def emit(event: str, payload: Dict[str, Any]) -> None:
        if progress is not None:
            progress(event, payload)

    def finish(state: _GroupState) -> None:
        state.finalize()
        bump("suite.experiments_done")
        emit(
            "experiment",
            {
                "experiment": state.name,
                "points": len(state.points),
                "cache_hits": state.hits,
                "wall_s": state.finished_at - state.started_at,
            },
        )

    def account(exp_ord: int, index: int, elapsed: float, value: Any) -> None:
        nonlocal stolen_idle_s
        state = states[exp_ord]
        point = state.points_by_index[index]
        if store is not None:
            value = store.store(point, value, elapsed, state.keys[index])
        state.results[index] = value
        state.pending -= 1
        state.computed += 1
        bump("suite.points_done")
        # Work on a later group while an earlier one is still in flight
        # is time the one-group-at-a-time baseline would have spent
        # with those cores idle.
        if any(not earlier.done for earlier in states[:exp_ord]):
            stolen_idle_s += elapsed
        emit(
            "point",
            {
                "experiment": state.name,
                "label": point.label,
                "elapsed_s": elapsed,
                "remaining": state.pending,
            },
        )
        if state.pending == 0:
            finish(state)

    try:
        # -- expansion, cache lookup, dispatch (streaming) -------------
        for exp_ord, group in enumerate(groups):
            state = _GroupState(group)
            states.append(state)
            tasks: List[_Task] = []
            for point in state.points:
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
                    model = CostModel.from_cache(store)
                state.keys[point.index] = key
                tasks.append(_Task(exp_ord, point, model.predict(point)))
            state.pending = len(tasks)
            if not tasks:
                finish(state)
                continue
            units = plan_dispatch(tasks, batch_cost_s=batch_cost_s, batch_max=batch_max)
            batches += sum(1 for unit in units if len(unit) > 1)
            for unit in units:
                if pool is not None:
                    # Submitting is non-blocking, so expanding and looking
                    # up group k+1 overlaps computing group k.
                    futures.append(
                        pool.submit(_execute_unit, [(task.exp, task.point) for task in unit])
                    )
                else:
                    for task in unit:
                        account(exp_ord, *_execute_point_timed(task.point))
        bump("suite.points_total", points_total)

        # -- consumption: completion order, so a failure surfaces as
        # soon as its future settles, not behind slower siblings -------
        for future in as_completed(futures):
            for row in future.result():
                account(*row)
    except BaseException:
        for future in futures:
            future.cancel()  # unstarted siblings of a doomed run
        raise
    finally:
        if own_pool:
            pool.close(cancel_pending=True)

    bump("suite.stolen_idle_sec", stolen_idle_s)
    if model is None:  # every point hit: nothing was ever predicted
        model = CostModel()
    result = SuiteResult(
        experiments=[
            ExperimentRun(
                name=state.name,
                result=state.result,
                points=len(state.points),
                cache_hits=state.hits,
                computed=state.computed,
                wall_s=(state.finished_at or started) - state.started_at,
            )
            for state in states
        ],
        wall_s=time.perf_counter() - started,
        jobs=jobs,
        points_total=points_total,
        cache_hits=cache_hits,
        batches=batches,
        stolen_idle_s=stolen_idle_s,
        tier_hits=dict(model.tier_hits),
    )
    report = result.report()
    emit("suite", report)
    if store is not None:
        store.record_run(
            name,
            {
                **report,
                **store.stats.delta_since(stats_before),
                "jobs_requested": jobs_requested,
                "jobs_effective": jobs,
            },
        )
    return result


def _resolve_jobs(jobs: int, pool: Optional[WorkerPool]) -> Tuple[int, int]:
    """``(requested, effective)`` worker counts for one run: a lent
    pool's size wins over ``jobs``; the effective count is clamped to
    the machine (see :func:`_clamp_jobs`) and is never below one."""
    requested = pool.jobs if pool is not None else jobs
    return requested, max(1, _clamp_jobs(requested))


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    cache: CacheSpec = None,
    name: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> List[Any]:
    """Execute ``points`` and return their results in point order.

    ``jobs`` is the worker-process count; values <= 1 run in-process,
    and values above ``os.cpu_count()`` are clamped to it (see
    :func:`_clamp_jobs`).  ``pool`` lends a persistent
    :class:`WorkerPool` (its size then replaces ``jobs``); without one,
    ``jobs > 1`` creates a pool for this call.  The returned list
    always lines up with ``points`` by index, regardless of completion
    order.

    ``cache`` selects the result cache: ``None`` uses the ambient
    configuration (:func:`repro.harness.cache.active_cache`, off unless
    configured or ``REPRO_CACHE`` is set), ``False`` disables caching,
    ``True``/a path/a :class:`~repro.harness.cache.ResultCache` enable
    it.  Cached points are looked up before dispatch and computed
    points are written back afterwards; the merge happens in declared
    point order either way, so warm, cold and mixed runs produce
    byte-identical results.
    """
    points = list(points)
    if len({point.index for point in points}) != len(points):
        raise ValueError("sweep points must have unique indices")
    requested, effective = _resolve_jobs(jobs, pool)
    suite = run_groups(
        [(name or "", points, list)],
        name,
        jobs_requested=requested,
        jobs=effective,
        cache=cache,
        pool=pool,
    )
    return suite.experiments[0].result


class Sweep:
    """Declarative builder: add points, run them, merge the results.

    >>> sweep = Sweep("fig0")
    >>> for size in (4, 128):
    ...     sweep.point(_one_size, label=f"size-{size}", size_kb=size)
    >>> rows = sweep.run(jobs=4)      # == sweep.run(jobs=1), point order
    """

    def __init__(self, name: str, root_seed: int = 42):
        self.name = name
        self.root_seed = root_seed
        self._points: List[SweepPoint] = []
        self._labels: set = set()

    def point(self, fn: Callable[..., Any], label: Optional[str] = None, **kwargs: Any) -> None:
        """Declare the next point; ``label`` defaults to the kwargs.

        Labels must be unique within the sweep: :func:`point_seed`
        derives each point's RNG seed from its label, so two points
        sharing a label would silently share a random stream (and the
        cost model could not tell their timings apart).
        """
        index = len(self._points)
        if label is None:
            label = ",".join(f"{k}={kwargs[k]}" for k in sorted(kwargs)) or str(index)
        if label in self._labels:
            raise ValueError(
                f"duplicate sweep point label {label!r} in sweep {self.name!r}: "
                "labels derive per-point seeds, so they must be unique"
            )
        self._labels.add(label)
        self._points.append(SweepPoint(index=index, label=label, fn=fn, kwargs=kwargs))

    def seed_for(self, label: str) -> int:
        return point_seed(self.root_seed, label)

    @property
    def points(self) -> List[SweepPoint]:
        return list(self._points)

    def run(
        self,
        jobs: int = 1,
        cache: CacheSpec = None,
        pool: Optional[WorkerPool] = None,
    ) -> List[Any]:
        return run_sweep(
            self._points, jobs=jobs, cache=cache, name=self.name, pool=pool
        )

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sweep({self.name!r}, points={len(self._points)})"


# ----------------------------------------------------------------------
# The driver protocol: sweep() + finalize() (+ summarize()); run() derived
# ----------------------------------------------------------------------
def accepted_kwargs(fn: Callable[..., Any], kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """Filter ``kwargs`` down to the parameters ``fn`` accepts (a
    ``**kwargs`` catch-all accepts everything)."""
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in params}


def split_kwargs(
    sweep: Callable[..., "Sweep"], finalize: Callable[..., Any], kwargs: Mapping[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """Split ``kwargs`` between a driver's ``sweep()`` and ``finalize()``.

    Driver signatures list only the knobs they use, so the signatures
    decide: returns ``(sweep_kwargs, finalize_kwargs, unknown)`` where
    ``unknown`` names the keywords neither function takes.  A suite
    hands every driver the same registry kwargs and ignores ``unknown``
    (each driver takes what it understands); a driver's own ``run()``
    refuses them.
    """
    sweep_kwargs = accepted_kwargs(sweep, kwargs)
    finalize_kwargs = accepted_kwargs(finalize, kwargs)
    unknown = [key for key in kwargs if key not in sweep_kwargs and key not in finalize_kwargs]
    return sweep_kwargs, finalize_kwargs, unknown


def derived_run(sweep: Callable[..., "Sweep"], finalize: Callable[..., Any]) -> Callable[..., Any]:
    """A driver's ``run()``: ``finalize(sweep(...).run(jobs, cache, pool))``.

    Every keyword other than ``jobs``/``cache``/``pool`` goes to
    whichever of ``sweep``/``finalize`` declares it (both, if both do),
    with their defaults; one neither declares is a ``TypeError`` before
    any point is built.
    """

    def run(
        jobs: int = 1, cache: CacheSpec = None, pool: Optional[WorkerPool] = None, **kwargs: Any
    ) -> Any:
        sweep_kwargs, finalize_kwargs, unknown = split_kwargs(sweep, finalize, kwargs)
        if unknown:
            raise TypeError(
                f"{sweep.__module__}.run() got unexpected keyword argument(s) "
                + ", ".join(repr(key) for key in unknown)
            )
        results = sweep(**sweep_kwargs).run(jobs=jobs, cache=cache, pool=pool)
        return finalize(results, **finalize_kwargs)

    return run


def sweep_axes(axes: Mapping[str, Iterable[Any]]) -> List[Dict[str, Any]]:
    """Expand named axes into the cartesian product of point kwargs.

    The product iterates in the axes' declared order with the last
    axis varying fastest -- exactly the nested-loop order the serial
    drivers used, so porting a driver to a sweep preserves its row
    order.
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


# ----------------------------------------------------------------------
# Reducers
# ----------------------------------------------------------------------
def merge_rows(results: Iterable[Any]) -> List[Any]:
    """Concatenate per-point row lists in point order.

    A point may return one row (a dict) or a list of rows; the merge
    flattens one level so sweeps over multi-row points stay ordered.
    """
    rows: List[Any] = []
    for result in results:
        if isinstance(result, list):
            rows.extend(result)
        else:
            rows.append(result)
    return rows
