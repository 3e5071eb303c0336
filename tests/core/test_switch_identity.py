"""Decision identity of the Gimbal switch's per-IO path.

The golden figures pin aggregates; this pins *decisions*.  A short
seeded run hashes every admission the switch makes, in order, and the
rate / write-cost value after every completion, and compares against
a digest frozen under ``tests/golden/data/``.  A hot-path refactor that
reorders one float addition, admits one IO a pump earlier or skips one
completion signal fails here even when every aggregate still matches.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from tests.golden.regenerate import switch_identity_digest
from tests.golden.test_golden_figures import _load


def test_switch_decisions_match_frozen_digest():
    digest = switch_identity_digest()
    # A rig that went idle or never bound a limiter would pin nothing.
    assert digest["submits"] > 4_000
    assert digest["completions"] > 4_000
    assert digest == _load("switch_identity")
