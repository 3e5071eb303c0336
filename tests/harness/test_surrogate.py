"""Unit tests for the surrogate models over the cache journal."""

from __future__ import annotations

import random

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import SweepPoint, run_sweep
from repro.harness.surrogate import (
    FLATTEN_LIMIT,
    FeatureCodec,
    KnnSurrogate,
    SurrogateSet,
    flatten_numeric,
    journal_records,
)
from tests.harness.fake_experiments import _calc


# ----------------------------------------------------------------------
# flatten_numeric
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# FeatureCodec
# ----------------------------------------------------------------------
class TestFeatureCodec:
    def test_numeric_and_categorical_encoding(self):
        records = [
            {"x": 1.0, "mode": "a"},
            {"x": 3.0, "mode": "b"},
        ]
        codec = FeatureCodec.from_records(records)
        va = codec.encode({"x": 1.0, "mode": "a"})
        vb = codec.encode({"x": 3.0, "mode": "b"})
        assert va != vb and len(va) == len(vb)

    def test_unseen_category_encodes_to_zeros(self):
        codec = FeatureCodec.from_records([{"mode": "a"}, {"mode": "b"}])
        unseen = codec.encode({"mode": "zz"})
        assert all(value == 0.0 for value in unseen)

    def test_missing_numeric_key_uses_mean(self):
        codec = FeatureCodec.from_records([{"x": 2.0}, {"x": 6.0}])
        assert codec.encode({}) == codec.encode({"x": 4.0}) == [0.0]

    def test_numeric_features_are_centred_and_scaled_by_spread(self):
        codec = FeatureCodec.from_records([{"x": 2.0}, {"x": 6.0}])
        assert codec.encode_many([{"x": 2.0}, {"x": 6.0}]) == [[-0.5], [0.5]]

    def test_bool_is_categorical_not_numeric(self):
        codec = FeatureCodec.from_records([{"flag": True}, {"flag": False}])
        assert codec.numeric == []
        assert codec.encode({"flag": True}) != codec.encode({"flag": False})


# ----------------------------------------------------------------------
# Model quality + determinism
# ----------------------------------------------------------------------
def _make_records(n=64, seed=0):
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        x = rng.uniform(0, 10)
        y = rng.uniform(0, 10)
        records.append(({"x": x, "y": y}, {"out": 2.0 * x + 0.5 * y}))
    return records


class TestSurrogateQuality:
    def test_interpolates_smooth_function(self):
        surrogate = SurrogateSet.fit(_make_records(), ("out",))
        queries = [{"x": 2.5, "y": 5.0}, {"x": 7.5, "y": 1.0}]
        means, _ = surrogate.predict(queries)["out"]
        for mean, query in zip(means, queries):
            truth = 2.0 * query["x"] + 0.5 * query["y"]
            assert abs(mean - truth) < 2.5

    def test_deterministic_bit_equal(self):
        a = SurrogateSet.fit(_make_records(), ("out",))
        b = SurrogateSet.fit(_make_records(), ("out",))
        grid = [{"x": float(x), "y": float(y)} for x in range(11) for y in range(11)]
        mean_a, std_a = a.predict(grid)["out"]
        mean_b, std_b = b.predict(grid)["out"]
        assert list(mean_a) == list(mean_b)
        assert list(std_a) == list(std_b)

    def test_uncertainty_non_negative(self):
        surrogate = SurrogateSet.fit(_make_records(16), ("out",))
        _, stds = surrogate.predict([{"x": 5.0, "y": 5.0}])["out"]
        assert stds[0] >= 0.0


class TestKnnSpecifics:
    def test_exact_match_has_zero_uncertainty(self):
        records = [({"x": float(i)}, {"out": float(i * i)}) for i in range(8)]
        surrogate = SurrogateSet.fit(records, ("out",))
        means, stds = surrogate.predict([{"x": 3.0}])["out"]
        assert means[0] == pytest.approx(9.0)
        assert stds[0] == 0.0

    def test_knn_is_pure_python(self):
        model = KnnSurrogate()
        model.fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        means, _ = model.predict([[0.5]])
        assert 0.0 < means[0] < 1.0

    def test_harness_never_imports_numpy(self):
        """One surrogate, and it runs on every supported install: the
        package has no third-party dependency."""
        import subprocess
        import sys

        probe = (
            "import sys, repro.harness, repro.harness.testbed, repro.harness.adaptive; "
            "sys.exit('numpy' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", probe], timeout=120).returncode == 0


# ----------------------------------------------------------------------
# Journal plumbing
# ----------------------------------------------------------------------
def _sweep_points(n=4):
    return [
        SweepPoint(index=i, label=f"value={i}", fn=_calc, kwargs={"value": i, "seed": 1})
        for i in range(n)
    ]


class TestJournalRecords:
    def test_round_trip_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_sweep_points(), cache=cache, name="t")
        records = journal_records(cache)
        assert len(records) == 4
        sample = records[0]
        assert sample["kwargs"]["value"] in (0, 1, 2, 3)
        assert "value" in sample["outputs"] and "elapsed_s" in sample

    def test_fn_and_code_fingerprint_filters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_sweep_points(), cache=cache, name="t")
        records = journal_records(cache)
        fn = records[0]["fn"]
        code_fp = records[0]["code_fingerprint"]
        assert len(journal_records(cache, fn=fn)) == 4
        assert journal_records(cache, fn="nope:nope") == []
        assert len(journal_records(cache, code_fingerprint=code_fp)) == 4
        assert journal_records(cache, code_fingerprint="stale") == []

    def test_max_records_keeps_newest(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_sweep_points(6), cache=cache, name="t")
        records = journal_records(cache, max_records=2)
        assert len(records) == 2
        assert [r["kwargs"]["value"] for r in records] == [4, 5]

    def test_corrupt_journal_never_raises(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_sweep_points(2), cache=cache, name="t")
        journal = cache.root / "journal.jsonl"
        journal.write_text(
            journal.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8"
        )
        assert len(journal_records(cache)) == 2

    def test_training_from_journal_matches_direct(self, tmp_path):
        """A surrogate trained via the journal sees the real outputs."""
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_sweep_points(8), cache=cache, name="t")
        records = [
            (record["kwargs"], record["outputs"]) for record in journal_records(cache)
        ]
        surrogate = SurrogateSet.fit(records, ("value",))
        means, _ = surrogate.predict([{"value": 3, "seed": 1}])["value"]
        assert abs(means[0] - 3.0) < 2.0
