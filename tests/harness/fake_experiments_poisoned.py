"""A driver whose middle point raises (for fail-fast tests)."""

from __future__ import annotations

from typing import Dict

from repro.harness.parallel import Sweep, derived_run, merge_rows
from tests.harness.fake_experiments import _calc, _explode


def sweep(n: int = 3) -> Sweep:
    sw = Sweep("fake-poisoned")
    for i in range(n):
        fn = _explode if i == 1 else _calc
        sw.point(fn, label=f"p={i}", value=i)
    return sw


def finalize(results) -> Dict[str, object]:
    return {"experiment": "poisoned", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results) -> str:
    return "poisoned"
