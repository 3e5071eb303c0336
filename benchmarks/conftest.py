"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures at a
scaled-down measurement window (see DESIGN.md's per-experiment index)
and prints the corresponding rows/series, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the whole evaluation.  Each benchmark also asserts the
paper's qualitative shape (who wins, roughly by how much), making the
suite a regression harness for the reproduction itself.

``--jobs N`` fans each experiment's sweep points across N worker
processes; results are identical to a serial run, only wall-clock
changes.

``--cache`` / ``--cache-dir DIR`` reuse sweep-point results from the
content-addressed result cache (:mod:`repro.harness.cache`), so a
repeat benchmark invocation replays cached figures instead of
resimulating; ``--no-cache`` forces recomputation even when the
``REPRO_CACHE`` environment toggle is set.  Cached or not, the
printed rows are byte-identical.
"""

from __future__ import annotations

import pytest

_JOBS = 1
_CACHE = None


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per experiment sweep (deterministic)",
    )
    parser.addoption(
        "--cache",
        action="store_true",
        dest="repro_cache",
        default=False,
        help="reuse sweep results from the repro result cache "
        "(default directory .repro-cache)",
    )
    parser.addoption(
        "--no-cache",
        action="store_true",
        dest="repro_no_cache",
        default=False,
        help="disable the repro result cache even if REPRO_CACHE is set",
    )
    parser.addoption(
        "--cache-dir",
        dest="repro_cache_dir",
        default=None,
        metavar="DIR",
        help="repro result-cache directory (implies --cache)",
    )


@pytest.hookimpl
def pytest_configure(config):
    global _JOBS, _CACHE
    _JOBS = config.getoption("--jobs")
    if config.getoption("repro_no_cache"):
        _CACHE = False
    elif config.getoption("repro_cache_dir"):
        from repro.harness.cache import ResultCache

        _CACHE = ResultCache(config.getoption("repro_cache_dir"))
    elif config.getoption("repro_cache"):
        from repro.harness.cache import ResultCache

        _CACHE = ResultCache()
    else:
        _CACHE = None  # defer to the ambient REPRO_CACHE configuration


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment driver's ``run`` exactly once under
    pytest-benchmark timing (every driver takes ``jobs``/``cache``)."""
    if _JOBS != 1:
        kwargs.setdefault("jobs", _JOBS)
    if _CACHE is not None:
        kwargs.setdefault("cache", _CACHE)
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
