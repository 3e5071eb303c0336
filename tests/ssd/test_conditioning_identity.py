"""Layout identity of the conditioning routines.

The golden figures and the ledger's digests pin what runs *on* a
conditioned device; this pins the device itself.  Every field of the
FTL snapshot that ``precondition_clean``, ``precondition_fragmented``
and ``age_device`` leave behind is hashed and compared against a digest
frozen under ``tests/golden/data/`` (generated at commit 99b8e82, before
the FTL's write and GC path was flattened).  A write-path change that
places one page in a different slot, closes a block one write late or
touches the mapping cache in a different order fails here.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from tests.golden.regenerate import conditioning_digest
from tests.golden.test_golden_figures import _load


def test_conditioned_layouts_match_frozen_digest():
    digest = conditioning_digest()
    # Rigs that never collected (or never missed the mapping cache)
    # would pin only the sequential fill.
    assert digest["fragmented"]["gc_programs"] > 3 * digest["fragmented"]["host_programs"]
    assert digest["aged_dftl_endurance"]["erases"] > 1_000
    assert digest == _load("conditioning_identity")
