"""The claims table of ``tools/claims.py`` against its committed record.

No simulation runs here: these check that ``CLAIMS``,
``benchmarks/claims.json`` and EXPERIMENTS.md agree, and that every
row's window is one its driver really takes.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.harness.orchestrator import EXPERIMENTS
from repro.harness.parallel import split_kwargs

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("claims", ROOT / "tools" / "claims.py")
claims = importlib.util.module_from_spec(_SPEC)
sys.modules["claims"] = claims  # dataclasses resolve annotations through it
_SPEC.loader.exec_module(claims)

RECORD = json.loads((ROOT / "benchmarks" / "claims.json").read_text(encoding="utf-8"))


def test_experiments_md_is_the_rendered_record():
    doc = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert claims.splice(doc, claims.render(RECORD)) == doc


def test_record_has_every_claim_at_its_window():
    assert len({claim.id for claim in claims.CLAIMS}) == len(claims.CLAIMS)
    recorded = {row["id"]: row["window"] for row in RECORD["claims"]}
    declared = {claim.id: json.loads(json.dumps(claim.window)) for claim in claims.CLAIMS}
    assert recorded.keys() == declared.keys()
    assert recorded == declared, "a window changed since the record was taken"


def test_every_figure_is_a_registered_experiment():
    # Both ways: a claim names a driver, and no driver runs without a claim.
    assert {claim.figure for claim in claims.CLAIMS} == set(EXPERIMENTS)


@pytest.mark.parametrize("figure", sorted({claim.figure for claim in claims.CLAIMS}))
def test_window_is_accepted_strictly(figure):
    # A renamed parameter fails the claims run by name; this catches it
    # without simulating anything.
    module = importlib.import_module(EXPERIMENTS[figure][0])
    for claim in claims.CLAIMS:
        if claim.figure == figure:
            split_kwargs(module.sweep, module.finalize, claim.window)
