"""Layout identity of the conditioning routines.

The golden figures and the ledger's digests pin what runs *on* a
conditioned device; this pins the device itself.  Every field of the
FTL snapshot that ``condition_device`` leaves behind for ``clean`` and
``fragmented`` is hashed and compared against a digest frozen under
``tests/golden/data/`` (first generated at commit 99b8e82, before the
FTL's write and GC path was flattened).  A write-path change that
places one page in a different slot or closes a block one write late
fails here.  Each rig's FTL must also pass ``check_invariants``
as built and as restored from the conditioning cache.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from array import array

import pytest

from repro.sim.engine import Simulator
from repro.ssd.conditioning import clear_conditioning_cache, condition_device
from repro.ssd.device import SsdDevice
from tests.golden.regenerate import conditioning_digest
from tests.golden.test_golden_figures import _load
from tests.ssd.invariants import check_invariants


def test_conditioned_layouts_match_frozen_digest():
    digest = conditioning_digest()
    # A rig that never collected would pin only the sequential fill.
    assert digest["fragmented"]["gc_programs"] > 3 * digest["fragmented"]["host_programs"]
    assert digest == _load("conditioning_identity")


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
