"""Layout identity of the conditioning routines.

The golden figures and the ledger's digests pin what runs *on* a
conditioned device; this pins the device itself.  Every field of the
FTL snapshot that ``precondition_clean``, ``precondition_fragmented``
and ``age_device`` leave behind is hashed and compared against a digest
frozen under ``tests/golden/data/`` (generated at commit 99b8e82, before
the FTL's write and GC path was flattened).  A write-path change that
places one page in a different slot, closes a block one write late or
touches the mapping cache in a different order fails here.  Each rig's
FTL must also pass ``Ftl.check_invariants()`` as built and as restored
from the conditioning cache.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from array import array

import pytest

from repro.harness.experiments import aging
from repro.sim.engine import Simulator
from repro.ssd.conditioning import (
    age_device,
    clear_conditioning_cache,
    precondition_clean,
    precondition_fragmented,
)
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry
from repro.ssd.profiles import profile_by_name
from tests.golden.regenerate import conditioning_digest
from tests.golden.test_golden_figures import _load


def test_conditioned_layouts_match_frozen_digest():
    digest = conditioning_digest()
    # Rigs that never collected (or never missed the mapping cache)
    # would pin only the sequential fill.
    assert digest["fragmented"]["gc_programs"] > 3 * digest["fragmented"]["host_programs"]
    assert digest["aged_dftl_endurance"]["erases"] > 1_000
    assert digest == _load("conditioning_identity")


def _rig(name):
    """``conditioning_digest``'s four rigs: (condition, kwargs, geometry, profile)."""
    profile = profile_by_name("dct983")
    if name == "aged_dftl_endurance":
        return age_device, {"age": 0.5}, aging._aged_geometry(), profile.with_overrides(
            map_cache_pages=8,
            endurance_cycles=aging.ENDURANCE_CYCLES,
            static_wear_threshold=aging.STATIC_WL_THRESHOLD,
        )
    condition = {
        "clean": (precondition_clean, {}),
        "fragmented": (precondition_fragmented, {}),
        "aged": (age_device, {"age": 0.5}),
    }[name]
    return (*condition, SsdGeometry(), profile)


def _assert_flat(ftl):
    for pages in (ftl.page_map, ftl._rmap):
        assert isinstance(pages, array) and pages.itemsize == 4


@pytest.mark.parametrize("name", ["clean", "fragmented", "aged", "aged_dftl_endurance"])
def test_conditioned_and_restored_ftls_keep_their_invariants(name):
    """Each rig's FTL is consistent as built and as restored from the
    cache, and an older list-format snapshot restores to the same arrays."""
    condition, kwargs, geometry, profile = _rig(name)
    clear_conditioning_cache()
    try:
        built = SsdDevice(Simulator(), profile=profile, geometry=geometry)
        condition(built, **kwargs)
        built.ftl.check_invariants()
        restored = SsdDevice(Simulator(), profile=profile, geometry=geometry)
        condition(restored, **kwargs)
    finally:
        clear_conditioning_cache()
    restored.ftl.check_invariants()
    snap = built.ftl.snapshot()
    assert restored.ftl.snapshot() == snap
    _assert_flat(restored.ftl)

    listed = dict(snap, page_map=snap["page_map"].tolist(), rmap=snap["rmap"].tolist())
    legacy = SsdDevice(Simulator(), profile=profile, geometry=geometry).ftl
    legacy.restore(listed)
    _assert_flat(legacy)
    assert legacy.snapshot() == snap
    legacy.check_invariants()
