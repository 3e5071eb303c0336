"""Per-figure/table experiment drivers.

Every module regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md) by writing three functions --
``sweep(**kwargs)`` declares the independent points, ``finalize(results,
**kwargs)`` merges them into structured results, ``summarize(result)``
formats the same rows/series the paper reports -- and deriving
``run = derived_run(sweep, finalize)`` from the first two
(:func:`repro.harness.parallel.derived_run`).  ``python -m repro run
<name>`` is the command-line entry; the benchmark suite calls ``run``
with scaled-down durations; EXPERIMENTS.md records paper-vs-measured.
"""

from repro.harness.experiments import (  # noqa: F401
    ablations,
    aging,
    ext_qlc,
    fig02_unloaded_latency,
    fig03_core_scaling,
    fig04_interference,
    fig06_utilization,
    fig07_fairness,
    fig08_latency,
    fig09_dynamic,
    fig10_rocksdb,
    fig11_12_scaling,
    fig13_virtual_view,
    fig14_read_ratio,
    fig15_latency_scenarios,
    fig16_processing_cost,
    fig17_congestion_dynamics,
    fig18_threshold_trace,
    fig19_23_appendix_d,
    sec58_generalization,
    table1_overheads,
    table2_comparison,
)
