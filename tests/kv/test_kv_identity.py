"""Operation identity of the closed-loop KV path.

The ledger's ``kv-rack`` digest pins the rack's aggregates; this pins
the *operations* in tier-1.  A short hand-written churn (workloads A,
C, D, E and F overlapping) hashes every ``get`` / ``put`` / ``scan``
entering an LSM tree, in order and with its timestamp, plus every
tenant's latency histograms, and compares against a digest frozen
under ``tests/golden/data/`` -- once through the plain event loop and
once in two inline shards.  A key drawn from a different random
number, a completion firing one event early or a latency recorded into
the wrong histogram fails here even when every aggregate still matches.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

from tests.golden.regenerate import KV_IDENTITY_CONFIG, kv_identity_digest
from tests.golden.test_golden_figures import _load


def test_kv_operations_match_frozen_digest():
    digest = kv_identity_digest()
    assert set(digest) == set(KV_IDENTITY_CONFIG["legs"])
    for leg in digest.values():
        # A rig that never left the memtable, never scanned or never
        # measured an update would pin only part of the path.
        assert leg["get"] > 10_000 and leg["put"] > 2_000 and leg["scan"] > 1_000
        assert leg["measured_reads"] > 10_000 and leg["measured_updates"] > 1_000
    assert digest["shards2"]["shard"]["windows"] > 5_000
    assert digest == _load("kv_identity")
