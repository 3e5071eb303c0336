"""Deterministic sweep runner: one loop for a sweep and for a suite.

Every paper figure is a *sweep*: a list of independent simulation
points (one testbed stood up per combination of scheme, condition,
IO shape, ...), each fully determined by its inputs and its RNG seed.
That independence is what this module exploits: points may run in this
process or fan out across worker processes, and the results are merged
back **in declared point order**, so a parallel run produces output
byte-identical to the serial run.

:func:`run_groups` is the only place points are keyed, looked up in
the result cache, executed, stored and journaled.  It takes
``(name, points, finalize)`` groups: :func:`run_sweep` (and so every
driver's ``run()``) is a suite of one group,
:func:`repro.harness.orchestrator.run_suite` one group per experiment.
Two executors sit behind it, chosen from the worker count alone: this
process, or a :class:`~concurrent.futures.ProcessPoolExecutor` created
for the call when more than one worker is left after the clamp to the
machine's cores.

* **Declared order** -- missed points run in the order they were
  declared: in this process with one worker, otherwise one future per
  point on the pool.
* **Streaming execution** -- groups are expanded one after another
  while the pool is already computing earlier ones, completions are
  consumed via :func:`concurrent.futures.as_completed` (a failed point
  cancels its unstarted siblings), and each group is finalized the
  moment its last point lands.
* **One journal** -- every call appends one run line (hits, misses,
  worker counts, the :meth:`SuiteResult.report` fields) to the cache
  directory's ``journal.jsonl`` and mirrors ``cache.*`` into the
  active observability session.

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

from repro.harness.cache import CacheSpec, resolve_cache
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
    jobs: int,
    cache: CacheSpec = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> SuiteResult:
    """Key, look up, run, store and journal every point of ``groups``.

    ``groups`` may be a generator: each group is expanded, looked up
    and dispatched before the next one is asked for.  ``jobs`` is the
    requested worker count; it is clamped once (:func:`_clamp_jobs`,
    never below one), and both counts land in the journal.  One worker
    runs every missed point in this process; more go to a process pool
    created for the call and torn down afterwards.  Missed points are
    dispatched in declared order.  Lookups happen before dispatch, each
    point's :meth:`ResultCache.key` is taken before it runs, computed
    values are merged as read back from their JSON round-trip, and each
    group's merge respects declared point order -- so results do not
    depend on the executor, the completion order, or the cache's
    temperature.

    ``progress`` (when given) receives ``(event, payload)`` pairs:
    ``point`` per computed point, ``experiment`` per finalized group,
    ``suite`` once at the end.  ``name`` labels the run's journal line.
    """
    started = time.perf_counter()
    store = resolve_cache(cache)
    stats_before = store.stats.snapshot() if store is not None else None

    jobs_requested = jobs
    jobs = max(1, _clamp_jobs(jobs))
    # One worker buys no parallelism, only per-point pickling and IPC
    # round-trips: it runs in this process, with no executor at all.
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    states: List[_GroupState] = []
    # future -> ordinal of the group its point belongs to
    futures: Dict[Any, int] = {}
    points_total = 0
    cache_hits = 0
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
            missed: List[SweepPoint] = []
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
                state.keys[point.index] = key
                missed.append(point)
            state.pending = len(missed)
            if not missed:
                finish(state)
                continue
            for point in missed:
                if pool is not None:
                    # Submitting is non-blocking, so expanding and looking
                    # up group k+1 overlaps computing group k.
                    futures[pool.submit(_execute_point_timed, point)] = exp_ord
                else:
                    account(exp_ord, *_execute_point_timed(point))
        bump("suite.points_total", points_total)

        # -- consumption: completion order, so a failure surfaces as
        # soon as its future settles, not behind slower siblings -------
        for future in as_completed(futures):
            account(futures[future], *future.result())
    except BaseException:
        if pool is not None:
            # Unstarted siblings of a doomed run are cancelled, and the
            # error does not wait out the ones already running.
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool is not None:
        pool.shutdown()

    bump("suite.stolen_idle_sec", stolen_idle_s)
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
        stolen_idle_s=stolen_idle_s,
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


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    cache: CacheSpec = None,
    name: Optional[str] = None,
) -> List[Any]:
    """Execute ``points`` and return their results in point order.

    ``jobs`` is the worker-process count; values <= 1 run in-process,
    and values above ``os.cpu_count()`` are clamped to it (see
    :func:`_clamp_jobs`); more than one worker creates a process pool
    for this call.  The returned list always lines up with ``points``
    by index, regardless of completion order.

    ``cache`` selects the result cache: ``None`` uses the ambient one
    (:func:`repro.harness.cache.active_cache`, off unless
    ``REPRO_CACHE`` is set), ``False`` disables caching, and a path or
    a :class:`~repro.harness.cache.ResultCache` enables it.  Cached
    points are looked up before dispatch and computed points are
    written back afterwards; the merge happens in declared point order
    either way, so warm, cold and mixed runs produce byte-identical
    results.
    """
    points = list(points)
    if len({point.index for point in points}) != len(points):
        raise ValueError("sweep points must have unique indices")
    suite = run_groups([(name or "", points, list)], name, jobs=jobs, cache=cache)
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
        result cache's journal would file their timings under one
        name).
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

    def run(self, jobs: int = 1, cache: CacheSpec = None) -> List[Any]:
        return run_sweep(self._points, jobs=jobs, cache=cache, name=self.name)

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
    """A driver's ``run()``: ``finalize(sweep(...).run(jobs, cache))``.

    Every keyword other than ``jobs``/``cache`` goes to
    whichever of ``sweep``/``finalize`` declares it (both, if both do),
    with their defaults; one neither declares is a ``TypeError`` before
    any point is built.
    """

    def run(jobs: int = 1, cache: CacheSpec = None, **kwargs: Any) -> Any:
        sweep_kwargs, finalize_kwargs, unknown = split_kwargs(sweep, finalize, kwargs)
        if unknown:
            raise TypeError(
                f"{sweep.__module__}.run() got unexpected keyword argument(s) "
                + ", ".join(repr(key) for key in unknown)
            )
        results = sweep(**sweep_kwargs).run(jobs=jobs, cache=cache)
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
