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
suite: the registry (:data:`EXPERIMENTS`, :func:`suite_experiments`),
the expansion of an :class:`ExperimentSpec` into a group, and the
suite's job budget (every core by default).

Scheduling never changes results: every point is keyed by
``(experiment, index)`` and each experiment's results are merged in
declared point order, so a suite is byte-identical to calling each
driver's own ``run()`` one at a time
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.cache import CacheSpec
from repro.harness.parallel import Group, SuiteResult, run_groups, split_kwargs


# ----------------------------------------------------------------------
# Experiment registry
# ----------------------------------------------------------------------
#: experiment name -> (module path, quick-mode kwargs).
EXPERIMENTS: Dict[str, Tuple[str, dict]] = {
    "fig02": ("repro.harness.experiments.fig02_unloaded_latency", {"measure_us": 100_000.0}),
    "fig03": ("repro.harness.experiments.fig03_core_scaling", {"measure_us": 100_000.0, "core_counts": (1, 2, 4)}),
    "fig04": ("repro.harness.experiments.fig04_interference", {"measure_us": 200_000.0}),
    "fig06": ("repro.harness.experiments.fig06_utilization", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "num_workers": 8}),
    "fig07": ("repro.harness.experiments.fig07_fairness", {"measure_us": 500_000.0, "warmup_us": 300_000.0, "workers_per_class": 8}),
    "fig08": ("repro.harness.experiments.fig08_latency", {"measure_us": 500_000.0, "warmup_us": 300_000.0, "workers_per_class": 8}),
    "fig09": ("repro.harness.experiments.fig09_dynamic", {"phase_us": 250_000.0}),
    "fig10": ("repro.harness.experiments.fig10_rocksdb", {"instances": 4, "measure_us": 300_000.0, "workloads": ("A", "C")}),
    "fig11-12": ("repro.harness.experiments.fig11_12_scaling", {"instance_counts": (1, 2, 4), "measure_us": 300_000.0}),
    "fig13": ("repro.harness.experiments.fig13_virtual_view", {"instances": 4, "measure_us": 300_000.0, "workloads": ("A", "B")}),
    "fig14": ("repro.harness.experiments.fig14_read_ratio", {"duration_us": 200_000.0}),
    "fig15": ("repro.harness.experiments.fig15_latency_scenarios", {"duration_us": 150_000.0}),
    "fig16": ("repro.harness.experiments.fig16_processing_cost", {"measure_us": 150_000.0, "added_costs": (0.0, 5.0, 40.0, 320.0)}),
    "fig17": ("repro.harness.experiments.fig17_congestion_dynamics", {"phase_us": 200_000.0, "steps": 4}),
    "fig18": ("repro.harness.experiments.fig18_threshold_trace", {"phase_us": 150_000.0, "steps": 8}),
    "fig19-23": ("repro.harness.experiments.fig19_23_appendix_d", {"measure_us": 200_000.0}),
    "rack": ("repro.harness.experiments.rack", {"tenants": 16, "rack": (2,), "ssds_per_jbof": 2, "horizon_us": 200_000.0}),
    "table1": ("repro.harness.experiments.table1_overheads", {"measure_us": 100_000.0}),
    "table2": ("repro.harness.experiments.table2_comparison", {}),
    "sec5.8": ("repro.harness.experiments.sec58_generalization", {"measure_us": 500_000.0, "warmup_us": 250_000.0, "workers_per_class": 4}),
    "ablations": ("repro.harness.experiments.ablations", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "workers": 4}),
    "ext-qlc": ("repro.harness.experiments.ext_qlc", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "workers_per_class": 4}),
}


def resolve_experiment(name: str) -> Optional[str]:
    """Accept either the short key (``fig09``) or the driver module's
    basename (``fig09_dynamic``)."""
    if name in EXPERIMENTS:
        return name
    for key, (module_path, _) in EXPERIMENTS.items():
        if module_path.rsplit(".", 1)[-1] == name:
            return key
    return None


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
    """The full evaluation suite, straight from :data:`EXPERIMENTS`.

    ``quick`` selects each experiment's scaled-down kwargs (the same
    ones ``repro run --quick`` uses); ``names`` restricts to a subset,
    preserving registry order.
    """
    if names is None:
        selected = list(EXPERIMENTS)
    else:
        wanted = set()
        for name in names:
            resolved = resolve_experiment(name)
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
    byte-identical to each driver's own ``run()``.
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
