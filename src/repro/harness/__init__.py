"""Experiment harness: testbed construction and per-figure drivers.

:mod:`repro.harness.testbed` builds the paper's rack -- client hosts,
a 100 Gbps network, and SmartNIC JBOF targets -- for any of the five
configurations (gimbal, reflex, parda, flashfq, vanilla).  The modules
under :mod:`repro.harness.experiments` each regenerate one table or
figure of the paper and are what the benchmark suite calls.
"""

from repro.harness.cache import ResultCache, resolve_cache
from repro.harness.parallel import (
    Sweep,
    SweepPoint,
    merge_rows,
    point_seed,
    run_sweep,
    sweep_axes,
)
from repro.harness.report import format_series, format_table
from repro.harness.testbed import SCHEMES, Testbed, TestbedConfig

__all__ = [
    "Testbed",
    "TestbedConfig",
    "SCHEMES",
    "ResultCache",
    "resolve_cache",
    "format_table",
    "format_series",
    "Sweep",
    "SweepPoint",
    "run_sweep",
    "sweep_axes",
    "point_seed",
    "merge_rows",
]
