"""Golden figures under the DFTL backend at infinite cache.

The strongest end-to-end statement of the fidelity contract: flip
every device profile to the DFTL mapping-cache code path with a cache
large enough to hold any translation table, regenerate the golden
figures, and compare against the *same* checked-in goldens the
reference FTL is pinned to.  The cache code (lookup interception, LRU
bookkeeping, traffic draining, conditioning keying) all runs; the
figures must not move at all.

This test exists so a future change to the cache path cannot silently
perturb paper figures: the unit-level differential tests compare two
devices, this one compares whole experiment pipelines.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiments import common
from repro.harness.experiments import fig02_unloaded_latency as fig02
from repro.harness.experiments import table1_overheads as table1
from repro.ssd import profiles as profiles_module
from repro.ssd.conditioning import clear_conditioning_cache
from repro.ssd.profiles import profile_by_name
from tests.golden.regenerate import GOLDEN_CONFIGS
from tests.golden.test_golden_figures import _assert_close, _load

#: Holds every translation table used by the golden configs.
INFINITE_CACHE = 1 << 22


@pytest.fixture
def dftl_profiles(monkeypatch):
    """Re-register every real profile with an infinite mapping cache."""
    patched = {}
    for name, profile in profiles_module._PROFILES.items():
        if name == "null":  # the null device has no FTL
            patched[name] = profile
        else:
            patched[name] = profile.with_overrides(map_cache_pages=INFINITE_CACHE)
    monkeypatch.setattr(profiles_module, "_PROFILES", patched)
    # Conditioning snapshots and standalone-bandwidth baselines are
    # keyed per-process; scrub them on both sides so reference state
    # never leaks in and DFTL state never leaks out.
    clear_conditioning_cache()
    monkeypatch.setattr(common, "_standalone_cache", {})
    yield
    clear_conditioning_cache()


@pytest.mark.parametrize("name", ["fig02", "table1"])
def test_golden_figures_identical_under_dftl(name, dftl_profiles):
    assert profile_by_name("dct983").map_cache_pages == INFINITE_CACHE
    module = {"fig02": fig02, "table1": table1}[name]
    kwargs = dict(GOLDEN_CONFIGS[name])
    results = json.loads(json.dumps(module.run(cache=False, **kwargs)))
    _assert_close(results, _load(name), name)
