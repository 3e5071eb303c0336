"""Second synthetic driver (distinct point fn) for suite tests."""

from __future__ import annotations

from typing import Dict

from repro.harness.parallel import Sweep, derived_run, merge_rows
from tests.harness.fake_experiments import _negate


def sweep(n: int = 3, root_seed: int = 7) -> Sweep:
    sw = Sweep("fake-beta", root_seed=root_seed)
    for i in range(n):
        label = f"neg={i}"
        sw.point(_negate, label=label, value=i, seed=sw.seed_for(label))
    return sw


def finalize(results) -> Dict[str, object]:
    return {"experiment": "beta", "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    return f"beta: {len(results['rows'])} rows"
