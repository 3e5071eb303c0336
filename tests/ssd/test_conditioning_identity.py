"""Layout identity of the conditioning routines.

The golden figures and the ledger's digests pin what runs *on* a
conditioned device; this pins the device itself.  Every field of the
FTL snapshot that ``precondition_clean`` and ``precondition_fragmented``
leave behind is hashed and compared against a digest frozen under
``tests/golden/data/`` (first generated at commit 99b8e82, before the
FTL's write and GC path was flattened).  A write-path change that
places one page in a different slot or closes a block one write late
fails here.  Each rig's FTL must also pass ``Ftl.check_invariants()``
as built and as restored from the conditioning cache.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from array import array

import pytest

from repro.sim.engine import Simulator
from repro.ssd.conditioning import (
    clear_conditioning_cache,
    precondition_clean,
    precondition_fragmented,
)
from repro.ssd.device import SsdDevice
from tests.golden.regenerate import conditioning_digest
from tests.golden.test_golden_figures import _load


def test_conditioned_layouts_match_frozen_digest():
    digest = conditioning_digest()
    # A rig that never collected would pin only the sequential fill.
    assert digest["fragmented"]["gc_programs"] > 3 * digest["fragmented"]["host_programs"]
    assert digest == _load("conditioning_identity")


def _assert_flat(ftl):
    for pages in (ftl.page_map, ftl._rmap):
        assert isinstance(pages, array) and pages.itemsize == 4


@pytest.mark.parametrize(
    "condition", [precondition_clean, precondition_fragmented], ids=["clean", "fragmented"]
)
def test_conditioned_and_restored_ftls_keep_their_invariants(condition):
    """Each rig's FTL is consistent as built and as restored from the
    cache, and a list-format snapshot restores to the same arrays."""
    clear_conditioning_cache()
    try:
        built = SsdDevice(Simulator())
        condition(built)
        built.ftl.check_invariants()
        restored = SsdDevice(Simulator())
        condition(restored)
    finally:
        clear_conditioning_cache()
    restored.ftl.check_invariants()
    snap = built.ftl.snapshot()
    assert restored.ftl.snapshot() == snap
    _assert_flat(restored.ftl)

    listed = dict(snap, page_map=snap["page_map"].tolist(), rmap=snap["rmap"].tolist())
    legacy = SsdDevice(Simulator()).ftl
    legacy.restore(listed)
    _assert_flat(legacy)
    assert legacy.snapshot() == snap
    legacy.check_invariants()
