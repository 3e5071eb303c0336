"""Deterministic parallel sweep runner.

Every paper figure is a *sweep*: a list of independent simulation
points (one testbed stood up per combination of scheme, condition,
IO shape, ...), each fully determined by its inputs and its RNG seed.
That independence is what this module exploits: points fan out across
a :class:`concurrent.futures.ProcessPoolExecutor` and the results are
merged back **in declared point order**, so a parallel run produces
output byte-identical to the serial run.

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
  :meth:`LatencyHistogram.merge() <repro.metrics.histogram.LatencyHistogram.merge>`,
  :meth:`IntervalSeries.merge() <repro.metrics.throughput.IntervalSeries.merge>` and
  :meth:`PercentileTimeline.merge() <repro.metrics.timeline.PercentileTimeline.merge>`.

``jobs <= 1`` runs the points serially in-process (no executor, no
pickling), which is also the fallback the experiment drivers default
to, so single-threaded behaviour is unchanged.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import CacheSpec, ResultCache, resolve_cache
from repro.metrics import IntervalSeries, LatencyHistogram, PercentileTimeline
from repro.obs import bump
from repro.sim.rng import derive_seed
from repro.sim.shard import EFFECTIVE_JOBS_ENV


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


def _execute_point(point: SweepPoint):
    """Module-level trampoline so points pickle by reference."""
    return point.index, point.execute()


def _execute_point_timed(point: SweepPoint) -> Tuple[int, float, Any]:
    """Like :func:`_execute_point`, but also reports wall time so the
    cache can record how many seconds a future hit will save."""
    start = time.perf_counter()
    value = point.execute()
    return point.index, time.perf_counter() - start, value


def _consume(futures: List) -> List[Tuple[int, float, Any]]:
    """Drain futures in *completion* order, failing fast.

    The merge is index-keyed, so completion order is fine -- and a
    point that crashes (or a worker that dies) surfaces as soon as its
    future settles instead of queueing behind every earlier-submitted
    future.  Unstarted siblings are cancelled on the way out so the
    caller is not left feeding a doomed sweep.
    """
    results: List[Tuple[int, float, Any]] = []
    try:
        for future in as_completed(futures):
            results.append(future.result())
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results


def _execute_pending(
    pending: Sequence[SweepPoint],
    jobs: int,
    executor: Optional[ProcessPoolExecutor],
) -> List[Tuple[int, float, Any]]:
    if jobs <= 1 and executor is None:
        return [_execute_point_timed(point) for point in pending]
    if executor is not None:
        return _consume(
            [executor.submit(_execute_point_timed, point) for point in pending]
        )
    with ProcessPoolExecutor(
        max_workers=min(jobs, max(1, len(pending))),
        initializer=_warm_worker,
        initargs=(jobs,),
    ) as pool:
        # Consume inside the with-block so worker crashes surface here
        # rather than as a BrokenProcessPool on exit.
        return _consume([pool.submit(_execute_point_timed, point) for point in pending])


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


def _warm_worker(
    effective_jobs: Optional[int] = None,
) -> None:  # pragma: no cover - runs in worker processes
    """Pool initializer: pre-import the heavy ``repro`` surface.

    With the ``spawn`` start method a fresh worker pays the full
    interpreter boot plus ``repro.*`` import cost on its first task;
    importing here moves that cost to pool construction, where it is
    paid once per suite instead of once per sweep.  Under ``fork`` the
    modules are already inherited and these imports are no-ops.

    ``effective_jobs`` advertises the pool's job budget to the worker
    (via ``REPRO_EFFECTIVE_JOBS``), so a sharded point running inside
    it clamps its own shard-process fan-out instead of multiplying the
    pool's parallelism (see :func:`repro.sim.shard.plan_shards`).
    """
    if effective_jobs is not None:
        os.environ[EFFECTIVE_JOBS_ENV] = str(effective_jobs)
    import repro.harness.experiments  # noqa: F401
    import repro.harness.kvcluster  # noqa: F401
    import repro.harness.testbed  # noqa: F401


class WorkerPool:
    """A persistent process pool shared across sweeps.

    ``run_sweep`` creates (and tears down) a fresh
    :class:`~concurrent.futures.ProcessPoolExecutor` per sweep when
    given only ``jobs``; a :class:`WorkerPool` is the suite-scale
    alternative -- workers are created once, warmed with the
    experiment imports, and reused by every sweep handed the pool::

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
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_warm_worker,
                initargs=(self.jobs,),
            )
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


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    executor: Optional[ProcessPoolExecutor] = None,
    cache: CacheSpec = None,
    name: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> List[Any]:
    """Execute ``points`` and return their results in point order.

    ``jobs`` is the worker-process count; values <= 1 run serially
    in-process, and values above ``os.cpu_count()`` are clamped to it
    (see :func:`_clamp_jobs`).  The returned list always lines up with
    ``points`` by index, regardless of completion order.

    ``pool`` hands the sweep a persistent :class:`WorkerPool` whose
    executor is reused instead of standing up (and tearing down) a
    fresh per-sweep executor -- the suite orchestrator's path.  When
    neither ``pool`` nor ``executor`` is given and ``jobs > 1``, the
    per-sweep executor remains the fallback.

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
    indices = [p.index for p in points]
    if len(set(indices)) != len(indices):
        raise ValueError("sweep points must have unique indices")
    if pool is not None and executor is None:
        if pool.jobs <= 1:
            # Degenerate one-worker pool: a worker round-trip buys no
            # parallelism, only pickling and IPC.  Run in-process (the
            # pool's lazy executor is never even spawned).
            jobs = 1
        else:
            executor = pool.executor
            jobs = pool.jobs
    jobs_requested = jobs
    jobs = _clamp_jobs(jobs)
    store: Optional[ResultCache] = resolve_cache(cache)
    results: Dict[int, Any] = {}
    if store is None:
        pending = points
        before = None
    else:
        before = store.stats.snapshot()
        pending = []
        keys: Dict[int, Any] = {}  # pending point index -> key taken before it runs
        for point in points:
            key = store.key(point)
            hit, value = store.lookup(point, key)
            if hit:
                results[point.index] = value
            else:
                pending.append(point)
                keys[point.index] = key
    if pending:
        by_index = {point.index: point for point in pending}
        for index, elapsed, value in _execute_pending(pending, jobs, executor):
            if store is not None:
                value = store.store(by_index[index], value, elapsed, keys[index])
            results[index] = value
    if store is not None and before is not None:
        delta = store.stats.delta_since(before)
        delta["jobs_requested"] = jobs_requested
        delta["jobs_effective"] = jobs
        store.record_run(name, delta)
    return [results[point.index] for point in points]


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


def merge_histograms(shards: Iterable[LatencyHistogram]) -> LatencyHistogram:
    """Fold per-shard latency histograms into one (first shard's config)."""
    merged: Optional[LatencyHistogram] = None
    for shard in shards:
        if merged is None:
            merged = LatencyHistogram(shard.min_value, shard.max_value, shard.growth)
        merged.merge(shard)
    if merged is None:
        raise ValueError("no histograms to merge")
    return merged


def merge_interval_series(shards: Iterable[IntervalSeries]) -> IntervalSeries:
    """Fold per-shard interval series into one (sum/mean modes)."""
    merged: Optional[IntervalSeries] = None
    for shard in shards:
        if merged is None:
            merged = IntervalSeries(shard.window_us, shard.mode)
        merged.merge(shard)
    if merged is None:
        raise ValueError("no series to merge")
    return merged


def merge_timelines(shards: Iterable[PercentileTimeline]) -> PercentileTimeline:
    """Fold per-shard percentile timelines into one."""
    merged: Optional[PercentileTimeline] = None
    for shard in shards:
        if merged is None:
            merged = PercentileTimeline(
                shard.window_us, shard.min_value, shard.max_value
            )
        merged.merge(shard)
    if merged is None:
        raise ValueError("no timelines to merge")
    return merged
