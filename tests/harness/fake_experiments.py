"""Tiny synthetic experiment drivers for orchestrator tests.

These follow the same declarative protocol as the real drivers in
:mod:`repro.harness.experiments` (``sweep``/``finalize``/``run``) but
compute in microseconds, so suite-level scheduling behaviour can be
tested without standing up simulations.  Module-level so the point
functions pickle by reference into worker processes.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.parallel import Sweep, derived_run, merge_rows


#: ``(point function, value)`` per point this process computed, in order.
EXECUTED = []


def _calc(value: int, scale: int = 1, seed: int = 0) -> dict:
    EXECUTED.append(("_calc", value))
    return {"value": value, "scaled": value * scale, "seed": seed}


def _negate(value: int, seed: int = 0) -> dict:
    EXECUTED.append(("_negate", value))
    return {"value": value, "negated": -value, "seed": seed}


def _explode(value: int) -> dict:
    raise RuntimeError(f"fake point {value} exploded")


def sweep(n: int = 4, scale: int = 1, root_seed: int = 42) -> Sweep:
    sw = Sweep("fake-alpha", root_seed=root_seed)
    for i in range(n):
        label = f"v={i}"
        sw.point(_calc, label=label, value=i, scale=scale, seed=sw.seed_for(label))
    return sw


def finalize(results, tag: str = "alpha") -> Dict[str, object]:
    return {"experiment": tag, "rows": merge_rows(results)}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    return f"fake: {len(results['rows'])} rows"
