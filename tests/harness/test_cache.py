"""Tests for the content-addressed sweep-point result cache."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.harness.cache import (
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    Uncacheable,
    _imports_of,
    canonical_value,
    clear_fingerprint_caches,
    code_fingerprint,
    configure,
    point_fingerprint,
    resolve_cache,
)
from repro.harness.parallel import Sweep, SweepPoint, run_sweep

CALLS = []


def point_fn(x, seed=0):
    """Module-level point function (cacheable by reference)."""
    CALLS.append(("point_fn", x, seed))
    return {"x": x, "seed": seed, "value": x * 2.5}


def tuple_point(shape=(4, 8)):
    CALLS.append(("tuple_point", shape))
    return {"shape": list(shape)}


def object_result_point(x):
    CALLS.append(("object_result_point", x))
    return object()  # not JSON-serialisable


def slow_point(x):
    CALLS.append(("slow_point", x))
    time.sleep(0.01)
    return {"x": x}


@pytest.fixture(autouse=True)
def _reset():
    CALLS.clear()
    configure(False)
    yield
    configure(False)


def make_point(fn, index=0, label="p", **kwargs):
    return SweepPoint(index=index, label=label, fn=fn, kwargs=kwargs)


class TestCanonicalisation:
    def test_tuples_become_lists(self):
        assert canonical_value((1, 2, (3,))) == [1, 2, [3]]

    def test_dict_keys_sorted(self):
        assert list(canonical_value({"b": 1, "a": 2})) == ["a", "b"]

    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert canonical_value(value) == value

    def test_objects_rejected(self):
        with pytest.raises(Uncacheable):
            canonical_value(object())
        with pytest.raises(Uncacheable):
            canonical_value({1: "non-string key"})


class TestFingerprints:
    def test_stable_across_calls(self):
        a = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        b = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        assert a[0] == b[0]

    def test_kwargs_change_key(self):
        a, _, _ = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        b, _, _ = point_fingerprint(point_fn, {"x": 2, "seed": 7})
        c, _, _ = point_fingerprint(point_fn, {"x": 1, "seed": 8})
        assert len({a, b, c}) == 3

    def test_schema_version_changes_key(self):
        a, _, _ = point_fingerprint(point_fn, {"x": 1}, schema_version=1)
        b, _, _ = point_fingerprint(point_fn, {"x": 1}, schema_version=2)
        assert a != b

    def test_lambdas_are_uncacheable(self):
        with pytest.raises(Uncacheable):
            point_fingerprint(lambda x: x, {"x": 1})

    def test_code_fingerprint_covers_repro_closure(self):
        from repro.harness.experiments import fig02_unloaded_latency as fig02
        from repro.harness.cache import transitive_sources

        # The driver's closure reaches the simulation core: editing the
        # SSD timing model must invalidate figure sweeps.
        sources = transitive_sources(fig02._point.__module__, roots={"repro"})
        assert "repro.ssd.device" in sources
        assert "repro.sim.engine" in sources
        # And a function outside that closure fingerprints differently.
        assert code_fingerprint(fig02._point) != code_fingerprint(point_fn)


# ----------------------------------------------------------------------
# Reference model: the fingerprint algorithm as it stood before the
# statement-level scan and the closure memo (``ast.walk`` over every
# node, a full closure walk and a re-read of every file per call).
# Production must return exactly these values, or every existing cache
# directory goes cold.
# ----------------------------------------------------------------------
def _reference_imports(path, package):
    names = set()
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = package.split(".") if package else []
                if node.level - 1 > len(parts):
                    continue
                kept = parts[: len(parts) - (node.level - 1)]
                base = ".".join(kept)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if not base:
                continue
            names.add(base)
            for alias in node.names:
                if alias.name != "*":
                    names.add(f"{base}.{alias.name}")
    return frozenset(names)


def _reference_code_fingerprint(module_name, roots):
    def parents(name):
        parts = name.split(".")
        return [".".join(parts[:i]) for i in range(1, len(parts))]

    seen = {}
    queue = [module_name] + parents(module_name)
    while queue:
        name = queue.pop()
        if name in seen or name.partition(".")[0] not in roots:
            continue
        try:
            spec = importlib.util.find_spec(name)
        except (ImportError, AttributeError, ValueError):
            spec = None
        if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
            continue
        seen[name] = hashlib.sha256(Path(spec.origin).read_bytes()).hexdigest()
        package = name if spec.submodule_search_locations else name.rpartition(".")[0]
        for imported in _reference_imports(spec.origin, package):
            if imported.partition(".")[0] in roots and imported not in seen:
                queue.append(imported)
                queue.extend(parent for parent in parents(imported) if parent not in seen)
    digest = hashlib.sha256()
    for name in sorted(seen):
        digest.update(f"{name}\x00{seen[name]}\n".encode("utf-8"))
    return digest.hexdigest()


NESTED_IMPORTS = textwrap.dedent(
    """
    import top_a, top_b.sub as alias
    from . import rel_one
    from .. import rel_two
    from ... import rel_three
    from .... import too_deep
    from .sibling import name_a, name_b
    from ..uncle.cousin import name_c
    from star_pkg import *
    from plain_pkg.mod import thing

    def fn():
        import in_def
        def inner():
            from in_inner_def import x
        return [lambda: 0 for _ in ()]

    async def afn():
        import in_async_def
        async with ctx() as c:
            import in_async_with
        async for _ in it():
            import in_async_for
        else:
            import in_async_for_else

    class K:
        import in_class
        def method(self):
            import in_method

    if cond:
        import in_if
    elif other:
        import in_elif
    else:
        import in_else

    for _ in ():
        import in_for
    else:
        import in_for_else

    while cond:
        import in_while
    else:
        import in_while_else

    with ctx():
        import in_with

    try:
        import in_try
    except ValueError:
        import in_except
    except (KeyError, OSError) as exc:
        import in_except_as
    else:
        import in_try_else
    finally:
        import in_finally

    match value:
        case 1:
            import in_case
        case [x, y] if x:
            import in_guarded_case
        case _:
            if deep:
                with ctx():
                    from in_deep_case import z
    """
)
if sys.version_info >= (3, 11):  # ``except*`` does not parse before 3.11
    NESTED_IMPORTS += textwrap.dedent(
        """
        try:
            import in_try_star
        except* ValueError:
            import in_except_star
        """
    )


class TestImportScan:
    """The statement-level scan finds what ``ast.walk`` finds."""

    def test_every_repro_source_file(self):
        src = Path(repro.__file__).resolve().parent
        files = sorted(src.rglob("*.py"))
        assert len(files) > 100
        found = 0
        for path in files:
            relative = path.relative_to(src.parent).with_suffix("")
            package = ".".join(relative.parts[:-1])
            expected = _reference_imports(str(path), package)
            assert _imports_of(str(path), package) == expected, path
            found += len(expected)
        assert found > 1000  # the comparison is not between empty sets

    def test_imports_nested_in_every_statement_kind(self, tmp_path):
        path = tmp_path / "nested.py"
        path.write_text(NESTED_IMPORTS, encoding="utf-8")
        package = "pkg.sub.leaf"
        found = _imports_of(str(path), package)
        assert found == _reference_imports(str(path), package)
        nested = {line.split()[1] for line in NESTED_IMPORTS.splitlines() if " in_" in line}
        assert len(nested) >= 24 and nested <= found
        assert {
            "top_a", "top_b.sub", "star_pkg", "plain_pkg.mod", "plain_pkg.mod.thing",
            "pkg.sub.leaf.rel_one", "pkg.sub.rel_two", "pkg.rel_three",
            "pkg.sub.leaf.sibling.name_a", "pkg.sub.uncle.cousin.name_c",
        } <= found  # fmt: skip
        assert not any("too_deep" in name or name.endswith("*") for name in found)


class TestMatchesReferenceAlgorithm:
    """Unchanged sources keep their fingerprints: old caches stay warm."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.harness.experiments.fig02_unloaded_latency",
            "repro.harness.experiments.fig14_read_ratio",
            "repro.harness.experiments.rack",
            "repro.kv.lsm",
        ],
    )
    def test_code_fingerprint_of_repro_modules(self, module_name):
        class _Fn:
            __module__ = module_name

        expected = _reference_code_fingerprint(module_name, {"repro"})
        assert code_fingerprint(_Fn) == expected  # cold walk
        assert code_fingerprint(_Fn) == expected  # served by the closure memo
        clear_fingerprint_caches()
        assert code_fingerprint(_Fn) == expected

    def test_test_local_point_function_and_explicit_roots(self):
        assert code_fingerprint(point_fn) == _reference_code_fingerprint(
            __name__, {"repro", "tests"}
        )
        assert code_fingerprint(point_fn, roots={"tests"}) == _reference_code_fingerprint(
            __name__, {"tests"}
        )

    def test_point_fingerprint_key_material(self):
        kwargs = {"x": 3, "seed": 11, "shape": (4, 8)}
        fingerprint, canonical, code_fp = point_fingerprint(point_fn, kwargs)
        assert code_fp == _reference_code_fingerprint(__name__, {"repro", "tests"})
        assert canonical == {"seed": 11, "shape": [4, 8], "x": 3}
        material = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "fn": f"{__name__}:point_fn",
                "kwargs": canonical,
                "code": code_fp,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert fingerprint == hashlib.sha256(material.encode("utf-8")).hexdigest()


class TestKeyPassing:
    def test_lookup_and_store_use_the_key_they_are_given(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1)
        other = make_point(point_fn, x=2)
        key = cache.key(point)
        assert key == point_fingerprint(point_fn, {"x": 1})
        cache.store(other, {"x": "filed under point's key"}, elapsed_s=0.0, key=key)
        assert cache.lookup(point) == (True, {"x": "filed under point's key"})
        assert cache.lookup(other, key) == (True, {"x": "filed under point's key"})
        assert cache.lookup(other) == (False, None)

    def test_uncacheable_point_has_no_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.key(make_point(point_fn, x=object())) is None
        assert cache.key(make_point(lambda x: x, x=1)) is None


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=3, seed=1)
        hit, _ = cache.lookup(point)
        assert not hit
        stored = cache.store(point, point_fn(**point.kwargs), elapsed_s=0.5)
        hit, value = cache.lookup(point)
        assert hit
        assert value == stored == {"x": 3, "seed": 1, "value": 7.5}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert cache.stats.seconds_saved == pytest.approx(0.5)

    def test_store_round_trips_tuples_like_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(tuple_point, shape=(4, 8))
        stored = cache.store(point, {"pair": (1, 2)}, elapsed_s=0.0)
        assert stored == {"pair": [1, 2]}
        hit, value = cache.lookup(point)
        assert hit and value == stored

    def test_unserialisable_result_bypasses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(object_result_point, x=1)
        result = object()
        assert cache.store(point, result, elapsed_s=0.0) is result
        assert cache.stats.uncacheable == 1
        assert cache.entries() == []

    def test_uncacheable_kwargs_bypass(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=object())
        hit, _ = cache.lookup(point)
        assert not hit
        assert cache.stats.uncacheable == 1
        assert cache.stats.misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1, seed=0)
        cache.store(point, point_fn(1), elapsed_s=0.0)
        [entry] = cache.entries()
        with open(entry["path"], "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        hit, _ = cache.lookup(point)
        assert not hit

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for x in range(3):
            point = make_point(point_fn, index=x, x=x)
            cache.store(point, point_fn(x), elapsed_s=0.0)
        assert cache.clear() == 3
        assert cache.entries() == []


class TestPrune:
    def _filled(self, tmp_path, count=4):
        cache = ResultCache(tmp_path / "cache")
        points = []
        for x in range(count):
            point = make_point(point_fn, index=x, x=x)
            cache.store(point, point_fn(x), elapsed_s=0.0)
            points.append(point)
        # Stage strictly increasing mtimes: entry 0 is the LRU victim.
        base = time.time() - 1000
        for offset, point in enumerate(points):
            fingerprint, _, _ = point_fingerprint(point.fn, point.kwargs)
            path = cache._entry_path(fingerprint)
            stamp = base + offset
            os.utime(path, (stamp, stamp))
        return cache, points

    def test_prune_evicts_lru_first(self, tmp_path):
        cache, points = self._filled(tmp_path)
        removed = cache.prune(max_entries=2)
        assert removed == 2
        # The two oldest (x=0, x=1) are gone, the newest remain.
        assert not cache.lookup(points[0])[0]
        assert not cache.lookup(points[1])[0]
        assert cache.lookup(points[2])[0]
        assert cache.lookup(points[3])[0]

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache, points = self._filled(tmp_path)
        assert cache.lookup(points[0])[0]  # refreshes mtime of the oldest
        removed = cache.prune(max_entries=2)
        assert removed == 2
        assert cache.lookup(points[0])[0]  # survived thanks to the hit
        assert not cache.lookup(points[1])[0]

    def test_prune_by_bytes(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        # Entry sizes differ by a byte or two (the "saved_at" float's
        # JSON width varies), so budget exactly the two newest entries
        # rather than assuming uniform sizes.
        by_age = sorted(cache.entries(), key=lambda entry: entry["mtime"])
        budget = sum(entry["size_bytes"] for entry in by_age[2:])
        removed = cache.prune(max_bytes=budget)
        assert removed == 2
        assert len(cache.entries()) == 2


class TestRunSweepIntegration:
    def _points(self, n=4):
        return [
            SweepPoint(index=i, label=f"x={i}", fn=point_fn, kwargs={"x": i, "seed": i})
            for i in range(n)
        ]

    def test_warm_run_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(self._points(), cache=cache, name="t")
        executed_cold = len(CALLS)
        warm = run_sweep(self._points(), cache=cache, name="t")
        assert warm == cold
        assert len(CALLS) == executed_cold  # nothing re-executed
        assert cache.stats.hits == 4

    def test_mixed_run_merges_in_point_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(2), cache=cache, name="t")
        # Two cached points plus two fresh ones, interleaved by index.
        mixed = run_sweep(self._points(4), cache=cache, name="t")
        assert [row["x"] for row in mixed] == [0, 1, 2, 3]
        uncached = run_sweep(self._points(4), cache=False)
        assert json.dumps(mixed, sort_keys=True) == json.dumps(uncached, sort_keys=True)

    def test_cache_false_disables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(), cache=cache, name="t")
        before = len(CALLS)
        run_sweep(self._points(), cache=False)
        assert len(CALLS) == before + 4

    def test_journal_records_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_points = self._points(3)
        run_sweep(sweep_points, cache=cache, name="alpha")
        run_sweep(sweep_points, cache=cache, name="alpha")
        journal = [record for record in cache.read_journal() if "sweep" in record]
        assert [record["sweep"] for record in journal] == ["alpha", "alpha"]
        assert journal[0]["misses"] == 3 and journal[0]["hits"] == 0
        assert journal[1]["hits"] == 3 and journal[1]["misses"] == 0
        assert journal[1]["seconds_saved"] >= 0.0
        # Each computed point also journals a training record; cache
        # hits on the second sweep do not re-journal.
        points = cache.point_records()
        assert len(points) == 3
        assert all(record["type"] == "point" for record in points)
        assert all("outputs" in record and "elapsed_s" in record for record in points)

    def test_sweep_run_accepts_cache(self, tmp_path):
        sweep = Sweep("mini")
        for x in (1, 2):
            sweep.point(point_fn, label=f"x={x}", x=x, seed=sweep.seed_for(f"x={x}"))
        first = sweep.run(cache=tmp_path / "cache")
        second = sweep.run(cache=tmp_path / "cache")
        assert first == second

    def test_ambient_configure(self, tmp_path):
        configure(tmp_path / "ambient")
        try:
            run_sweep(self._points(2), name="amb")  # cache=None -> ambient
            before = len(CALLS)
            run_sweep(self._points(2), name="amb")
            assert len(CALLS) == before
        finally:
            configure(False)

    def test_env_toggle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache(None) is not None
        run_sweep(self._points(2), name="env")
        before = len(CALLS)
        run_sweep(self._points(2), name="env")
        assert len(CALLS) == before
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache(None) is None


class TestObsIntegration:
    def test_counters_and_trace_event(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [
            SweepPoint(index=i, label=f"x={i}", fn=point_fn, kwargs={"x": i})
            for i in range(2)
        ]
        with obs.capture(trace=True) as session:
            run_sweep(points, cache=cache, name="obs-sweep")
            run_sweep(points, cache=cache, name="obs-sweep")
        snapshot = session.registry.snapshot()
        assert snapshot["cache.misses"] == 2
        assert snapshot["cache.hits"] == 2
        assert snapshot["cache.writes"] == 2
        events = session.tracer.of_type("cache")
        assert len(events) == 2
        assert events[0]["sweep"] == "obs-sweep"
        assert events[1]["hits"] == 2

    def test_register_metrics_gauges(self, tmp_path):
        from repro.obs.registry import Registry

        cache = ResultCache(tmp_path / "cache")
        registry = Registry()
        cache.register_metrics(registry)
        point = make_point(point_fn, x=1)
        cache.store(point, point_fn(1), elapsed_s=0.25)
        cache.lookup(point)
        snapshot = registry.snapshot()
        assert snapshot["cache.writes"] == 1
        assert snapshot["cache.hits"] == 1
        assert snapshot["cache.seconds_saved"] == pytest.approx(0.25)


class TestCacheStats:
    def test_delta_since(self):
        stats = CacheStats()
        before = stats.snapshot()
        stats.hits += 3
        stats.seconds_saved += 1.5
        delta = stats.delta_since(before)
        assert delta["hits"] == 3
        assert delta["seconds_saved"] == pytest.approx(1.5)
        assert delta["misses"] == 0


class TestCompactJournal:
    def _fill(self, cache, n=3):
        points = [make_point(point_fn, index=i, label=f"x={i}", x=i) for i in range(n)]
        run_sweep(points, cache=cache, name="fill")

    def test_superseded_points_dropped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache)
        # Recomputing after pruning appends duplicate (fn, kwargs)
        # records; only the newest of each pair must survive.
        cache.prune(max_entries=0)
        self._fill(cache)
        assert len(cache.point_records()) == 6
        stats = cache.compact_journal()
        assert stats["dropped_superseded"] == 3
        assert len(cache.point_records()) == 3

    def test_sweep_records_survive(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache)
        sweeps_before = [r for r in cache.read_journal() if "sweep" in r]
        cache.compact_journal()
        sweeps_after = [r for r in cache.read_journal() if "sweep" in r]
        assert sweeps_after == sweeps_before

    def test_max_records_caps_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, n=5)
        stats = cache.compact_journal(max_records=2)
        assert stats["dropped_over_cap"] > 0
        records = cache.read_journal()
        assert len(records) == 2
        # The newest point records are the survivors.
        kept = [r["kwargs"]["x"] for r in records if r.get("type") == "point"]
        assert kept == sorted(kept) and kept[-1] == 4

    def test_stats_accounting(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, n=4)
        before = len(cache.read_journal())
        stats = cache.compact_journal()
        assert stats["records_before"] == before
        assert stats["records_kept"] == before - stats["dropped_superseded"] - stats["dropped_over_cap"]

    def test_missing_journal_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.compact_journal()
        assert stats == {
            "records_before": 0,
            "records_kept": 0,
            "dropped_superseded": 0,
            "dropped_over_cap": 0,
        }
        assert not (cache.root / "journal.jsonl").exists()

    def test_corrupt_lines_removed_by_rewrite(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, n=2)
        journal = cache.root / "journal.jsonl"
        journal.write_text(
            journal.read_text(encoding="utf-8") + "{torn line\n", encoding="utf-8"
        )
        cache.compact_journal()
        for line in journal.read_text(encoding="utf-8").splitlines():
            json.loads(line)
