"""Golden-figure regression tests.

Each test regenerates one paper artefact (Figures 2, 7, 13, 14 and 15,
Table 1) at a small fixed configuration and seed, and compares every value
against the checked-in golden JSON under ``tests/golden/data/``.

Comparisons are tolerance-based, not byte-exact: the simulation itself
is deterministic, but histogram bucket boundaries go through
``math.log``/``math.exp``, whose last-ulp rounding is allowed to
differ between libm implementations, shifting a percentile-derived
value by up to the bucket growth factor (~2%).  Counts, labels and
structure must match exactly.

Regenerating the goldens (after an intentional behaviour change)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.golden.regenerate import GOLDEN_CONFIGS, golden_module

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Relative tolerance for values that pass through histogram buckets
#: or divide two measured quantities.
RTOL = 0.02


def _load(name: str) -> dict:
    return json.loads((DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _assert_close(actual, expected, path: str) -> None:
    """Structural comparison: exact for structure/strings/ints, rtol for floats."""
    assert type(actual) is type(expected), f"{path}: type {type(actual)} != {type(expected)}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length differs"
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        tolerance = RTOL * max(abs(expected), 1e-9)
        assert abs(actual - expected) <= tolerance, (
            f"{path}: {actual!r} differs from golden {expected!r} "
            f"by more than rtol={RTOL}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != golden {expected!r}"


@pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
def test_golden(name):
    kwargs = GOLDEN_CONFIGS[name]
    results = json.loads(json.dumps(golden_module(name).run(**kwargs)))  # normalise tuples
    _assert_close(results, _load(name), name)
