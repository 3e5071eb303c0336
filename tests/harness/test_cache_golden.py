"""Acceptance test: warm re-runs of the golden sweeps are nearly free.

Runs the fig02 and fig07 sweeps at the golden-test configurations
(the same ones ``tests/golden`` regresses against) three ways --
uncached, cold-cached, warm-cached -- and asserts that

* the warm run is at least 5x faster than the cold run, and
* all three produce byte-identical JSON output.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiments import fig02_unloaded_latency as fig02
from repro.harness.experiments import fig07_fairness as fig07
from tests.golden.records import GOLDEN_CONFIGS

MIN_WARM_SPEEDUP = 5.0


@pytest.mark.parametrize("name,module", [("fig02", fig02), ("fig07", fig07)])
def test_warm_rerun_is_fast_and_byte_identical(name, module, tmp_path):
    kwargs = GOLDEN_CONFIGS[name]
    cache = ResultCache(tmp_path / "cache")

    uncached = module.run(**kwargs, cache=False)

    start = time.perf_counter()
    cold = module.run(**kwargs, cache=cache)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = module.run(**kwargs, cache=cache)
    warm_s = time.perf_counter() - start

    assert cache.stats.misses > 0 and cache.stats.hits == cache.stats.misses

    as_json = lambda results: json.dumps(results, sort_keys=True)  # noqa: E731
    assert as_json(cold) == as_json(uncached), "cold cached run diverged"
    assert as_json(warm) == as_json(uncached), "warm cached run diverged"

    speedup = cold_s / max(warm_s, 1e-9)
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm {name} rerun only {speedup:.1f}x faster than cold "
        f"(cold {cold_s:.2f}s, warm {warm_s:.3f}s); expected >= {MIN_WARM_SPEEDUP}x"
    )
