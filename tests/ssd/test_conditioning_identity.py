"""Invariants of the conditioned layouts.

The layouts themselves are pinned by the ``conditioning_identity``
record of ``tests/golden/records.py``; this checks that each rig's FTL
passes ``check_invariants`` as built and as restored from the
conditioning cache, and that a list-format snapshot restores to the
same flat arrays.
"""

from __future__ import annotations

from array import array

import pytest

from repro.sim.engine import Simulator
from repro.ssd.conditioning import clear_conditioning_cache, condition_device
from repro.ssd.device import SsdDevice
from tests.ssd.invariants import check_invariants


def _assert_flat(ftl):
    for pages in (ftl.page_map, ftl._rmap):
        assert isinstance(pages, array) and pages.itemsize == 4


@pytest.mark.parametrize("condition", ["clean", "fragmented"])
def test_conditioned_and_restored_ftls_keep_their_invariants(condition):
    """Each rig's FTL is consistent as built and as restored from the
    cache, and a list-format snapshot restores to the same arrays."""
    clear_conditioning_cache()
    try:
        built = SsdDevice(Simulator())
        condition_device(built, condition)
        check_invariants(built.ftl)
        restored = SsdDevice(Simulator())
        condition_device(restored, condition)
    finally:
        clear_conditioning_cache()
    check_invariants(restored.ftl)
    snap = built.ftl.snapshot()
    assert restored.ftl.snapshot() == snap
    _assert_flat(restored.ftl)

    listed = dict(snap, page_map=snap["page_map"].tolist(), rmap=snap["rmap"].tolist())
    legacy = SsdDevice(Simulator()).ftl
    legacy.restore(listed)
    _assert_flat(legacy)
    assert legacy.snapshot() == snap
    check_invariants(legacy)
