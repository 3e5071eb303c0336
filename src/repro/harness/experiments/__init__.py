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
