"""Tests for ``flatten_numeric``, the perf ledger's result digest."""

from __future__ import annotations

from repro.harness.surrogate import FLATTEN_LIMIT, flatten_numeric


class TestFlattenNumeric:
    def test_flattens_nested_paths(self):
        flat = flatten_numeric({"a": 1, "b": {"c": 2.5, "d": [3, 4]}})
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d.0": 3.0, "b.d.1": 4.0}

    def test_skips_non_numeric_and_non_finite(self):
        flat = flatten_numeric(
            {"s": "text", "nan": float("nan"), "inf": float("inf"), "ok": 7,
             "flag": True}
        )
        assert flat == {"ok": 7.0}

    def test_caps_path_count(self):
        flat = flatten_numeric({f"k{i:04d}": i for i in range(FLATTEN_LIMIT * 2)})
        assert len(flat) == FLATTEN_LIMIT
        # Lexicographically first paths are the ones kept.
        assert "k0000" in flat and f"k{FLATTEN_LIMIT * 2 - 1:04d}" not in flat

    def test_scalar_value_keeps_empty_path(self):
        assert flatten_numeric(3.5) == {"": 3.5}
        assert flatten_numeric(3.5, prefix="value") == {"value": 3.5}
