"""Suite-scale orchestration: every experiment's points as one run.

Regenerating the paper's evaluation means running ~20 experiment
drivers, each of which expands into an independent *sweep* of
simulation points.  Run one driver at a time and the machine spends
most of its life underused: a worker pool is stood up per sweep, one
expensive straggler serializes each sweep's tail, and cores sit idle
between experiments.  :func:`run_suite` instead hands every
experiment to :func:`repro.harness.parallel.run_groups` -- the one
loop that keys, looks up, dispatches, stores and journals sweep points
-- as one ``(name, points, finalize)`` group each, expanded lazily so
the lookups of experiment *k+1* overlap the simulation of experiment
*k* on one process pool for the whole run.  A
driver's own ``run()`` enters the same loop as a suite of one
(:func:`~repro.harness.parallel.run_sweep`).

What this module adds to the loop is what makes a list of drivers a
suite: the registry (:func:`suite_experiments`), the expansion of an
:class:`ExperimentSpec` into a group, and the suite's job budget
(every core by default).

Scheduling never changes results: every point is keyed by
``(experiment, index)`` and each experiment's results are merged in
declared point order, so an orchestrated suite is byte-identical to
:func:`run_suite_serial` -- the identity oracle, which still enters
through each driver's own ``run()``, one driver at a time
(``tests/harness/test_orchestrator.py`` gates exactly that).

Drivers participate by exposing the declarative protocol -- three
functions, from which ``run`` is derived once
(:func:`repro.harness.parallel.derived_run`)::

    def sweep(**kwargs) -> Sweep        # declare the points
    def finalize(results, **kwargs)     # merge ordered results
    def summarize(result) -> str        # print the paper's rows
    run = derived_run(sweep, finalize)  # run(jobs=1, cache=None, **kwargs)

``python -m repro suite`` is the CLI entry point.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.harness.cache import CacheSpec
from repro.harness.parallel import Group, SuiteResult, run_groups, split_kwargs


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


def run_suite(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SuiteResult:
    """Run every experiment's sweep points as one
    :func:`~repro.harness.parallel.run_groups` call.

    ``jobs`` defaults to the machine's CPU count (``jobs <= 1`` runs
    in-process, in declared order, still streaming); more than one
    worker gets a process pool created for the run and torn down
    afterwards.  ``cache`` follows
    :func:`repro.harness.parallel.run_sweep` semantics, so results are
    byte-identical to the serial path.
    """

    def groups() -> Iterable[Group]:
        for spec in specs:
            module = spec.load()
            sweep_fn = getattr(module, "sweep", None)
            if sweep_fn is None:
                raise TypeError(
                    f"experiment {spec.name!r} ({spec.module_path}) does not expose "
                    "the declarative sweep()/finalize() protocol"
                )
            sweep_kwargs, finalize_kwargs = split_kwargs(
                sweep_fn, module.finalize, spec.kwargs
            )
            yield spec.name, sweep_fn(**sweep_kwargs).points, partial(
                module.finalize, **finalize_kwargs
            )

    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return run_groups(groups(), "suite", jobs=jobs, cache=cache, progress=progress)


def run_suite_serial(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache: CacheSpec = None,
) -> Dict[str, Any]:
    """The pre-orchestrator baseline: experiments one at a time.

    Each driver's ``run()`` executes to completion (fanning its own
    points across ``jobs`` workers, one pool per sweep) before the
    next driver starts.  This is both the reference the perf gate
    compares against and the identity oracle for CI: orchestrated and
    serial suites must produce equal per-experiment results.
    """
    results: Dict[str, Any] = {}
    for spec in specs:
        module = spec.load()
        sweep_kwargs, finalize_kwargs = split_kwargs(
            module.sweep, module.finalize, spec.kwargs
        )
        results[spec.name] = module.run(
            jobs=jobs, cache=cache, **{**sweep_kwargs, **finalize_kwargs}
        )
    return results
