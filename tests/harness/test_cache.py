"""Tests for the content-addressed sweep-point result cache."""

from __future__ import annotations

import ast
import builtins
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.harness.cache as cache_module
from repro.cli import EXPERIMENTS
from repro.harness.cache import (
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    Uncacheable,
    canonical_value,
    clear_fingerprint_caches,
    code_fingerprint,
    point_fingerprint,
    resolve_cache,
)
from repro.harness.orchestrator import ExperimentSpec, run_suite
from repro.harness.parallel import Sweep, SweepPoint, run_sweep

CALLS = []
REPO = Path(repro.__file__).resolve().parents[2]


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

    def test_schema_version_changes_key(self, monkeypatch):
        import repro.harness.cache as cache_mod

        a, _, _ = point_fingerprint(point_fn, {"x": 1})
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        b, _, _ = point_fingerprint(point_fn, {"x": 1})
        assert a != b

    def test_lambdas_are_uncacheable(self):
        with pytest.raises(Uncacheable):
            point_fingerprint(lambda x: x, {"x": 1})

    def test_function_without_module_source_is_uncacheable(self):
        """No edit to its body could change the key."""
        from repro.harness.kvcluster import run_one

        class _Fn:
            __module__ = "no_such_module_anywhere"
            __qualname__ = "point"

        with pytest.raises(Uncacheable):
            point_fingerprint(_Fn, {"x": 1})
        # The digest itself stays available (the ledger manifest takes
        # it): the tree alone, as for a point function in a shared module.
        assert code_fingerprint(_Fn) == code_fingerprint(run_one)

    def test_point_fingerprint_key_material(self):
        kwargs = {"x": 3, "seed": 11, "shape": (4, 8)}
        fingerprint, canonical, code_fp = point_fingerprint(point_fn, kwargs)
        assert code_fp == code_fingerprint(point_fn)
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

    def test_edited_main_script_recomputes(self, tmp_path):
        """A point function defined in a script run as ``__main__`` used
        to be keyed under the fingerprint of nothing: the second run of
        an edited script was served the first run's result."""
        script = tmp_path / "script.py"
        template = textwrap.dedent(
            """
            from repro.harness.cache import ResultCache
            from repro.harness.parallel import SweepPoint, run_sweep

            def point(x):
                return {{"value": x * {scale}}}

            if __name__ == "__main__":
                cache = ResultCache({cache!r})
                [row] = run_sweep([SweepPoint(0, "p", point, {{"x": 2}})], cache=cache, name="main")
                print(row["value"], cache.stats.hits, cache.stats.uncacheable > 0)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        outputs = []
        for scale in (10, 100):
            script.write_text(template.format(scale=scale, cache=str(tmp_path / "cache")), encoding="utf-8")
            done = subprocess.run(
                [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split())
        assert outputs == [["20", "0", "True"], ["200", "0", "True"]]


#: The only imports a package ``__init__`` may hold: the names
#: ``benchmarks/ledger`` imports by package path.
INIT_IMPORTS = {
    "repro.core": {("repro.core.switch", "GimbalScheduler", None)},
    "repro.metrics": {("repro.metrics.fairness", "jain_index", None)},
    "repro.obs": {("repro.obs.session", "capture", None)},
    "repro.sim": {("repro.sim.engine", "Simulator", "make_simulator")},
    "repro.ssd": {("repro.ssd.device", "SsdDevice", None)},
    "repro.workloads": {("repro.workloads.fio", "FioSpec", None)},
}


class TestLayering:
    """What the harness and the packages may import."""

    def test_package_inits_reexport_nothing(self):
        """A re-export gives a name a second import path, and gives every
        importer of the package the re-exported module's closure.  Each
        ``__init__`` under ``src/repro`` is its docstring plus at most
        the allow-listed imports, and defines nothing."""
        inits = sorted((REPO / "src" / "repro").rglob("__init__.py"))
        assert len(inits) >= 11
        for init in inits:
            package = ".".join(init.parent.relative_to(REPO / "src").parts)
            tree = ast.parse(init.read_text(encoding="utf-8"))
            assert ast.get_docstring(tree), init
            imports = set()
            for node in tree.body[1:]:
                if not isinstance(node, ast.ImportFrom):
                    pytest.fail(f"{init}:{node.lineno} is not an import")
                imports |= {(node.module, alias.name, alias.asname) for alias in node.names}
            assert imports <= INIT_IMPORTS.get(package, set()), init

    @pytest.mark.parametrize("module", ["parallel", "cache", "orchestrator"])
    def test_sweep_loop_and_cache_import_nothing_from_obs(self, module):
        """A run's record is its ``SuiteResult`` and its journal line;
        nothing of it is mirrored into an obs session."""
        path = REPO / "src" / "repro" / "harness" / f"{module}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert imported, path
        assert not [name for name in imported if name == "repro.obs" or name.startswith("repro.obs.")]


#: ``src/repro`` as the cache keys it.
SRC = Path(cache_module._ROOT)
SHARED_BY_DRIVERS = ("__init__.py", "common.py")


def _keyed_files(root):
    """Every ``.py`` file under ``root`` except the drivers."""
    drivers = root / "harness" / "experiments"
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
        and (path.parent != drivers or path.name in SHARED_BY_DRIVERS)
    )


def _tree_key(root, own=None, label=None):
    """The code key from scratch: sha256 over (label, sha256 of the
    bytes), sorted by label, for the keyed files plus ``own``."""
    labels = {path: path.relative_to(root).as_posix() for path in _keyed_files(root)}
    if own is not None:
        labels[own] = label
    digest = hashlib.sha256()
    for label, path in sorted((label, path) for path, label in labels.items()):
        digest.update(f"{label}\x00{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode("utf-8"))
    return digest.hexdigest()


def _key(module):
    """The code key of a point function defined in ``module``."""
    return cache_module._code_key(module)[1]


def _point_modules():
    """The module of every point function a registered driver sweeps."""
    return sorted(
        {
            point.fn.__module__
            for path, _ in EXPERIMENTS.values()
            for point in importlib.import_module(path).sweep().points
        }
    )


@pytest.fixture
def edit(monkeypatch):
    """``edit(path)``: from now on the file at ``path`` hashes as if its
    bytes had changed, though no byte and no stamp did (so the memos go)."""
    edited = set()
    real = cache_module._sha

    def sha(path):
        digest = real(path)
        return f"edited-{digest}" if path in edited else digest

    def apply(path):
        edited.add(str(path))
        clear_fingerprint_caches()

    monkeypatch.setattr(cache_module, "_sha", sha)
    clear_fingerprint_caches()
    yield apply
    clear_fingerprint_caches()


@pytest.fixture
def file_io(monkeypatch):
    """Files opened and sources compiled while the fixture is active."""
    compiled, opened = [], Counter()
    real_compile, real_open = builtins.compile, builtins.open

    def counting_compile(source, filename, *args, **kwargs):
        compiled.append(filename)
        return real_compile(source, filename, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(builtins, "open", counting_open)
    yield compiled, opened
    monkeypatch.undo()


class TestCodeKey:
    """A point's code key is the source tree: every shared module, plus
    the point function's own."""

    def test_key_is_the_tree_digest(self):
        from repro.harness.experiments import fig02_unloaded_latency as fig02
        from repro.harness.kvcluster import run_one

        own = SRC / "harness" / "experiments" / "fig02_unloaded_latency.py"
        assert code_fingerprint(fig02._point) == _tree_key(SRC, own, fig02.__name__)
        assert code_fingerprint(run_one) == _tree_key(SRC)  # a shared module is in the tree
        assert code_fingerprint(point_fn) == _tree_key(SRC, Path(__file__), __name__)

    def test_an_edit_to_any_shared_file_changes_every_drivers_key(self, edit):
        modules = _point_modules()
        shared = _keyed_files(SRC)
        assert len(modules) >= 22 and len(shared) >= 70
        keys = {module: _key(module) for module in modules}
        for path in shared:
            edit(path)
            now = {module: _key(module) for module in modules}
            assert not [module for module in modules if now[module] == keys[module]], path
            keys = now

    def test_an_edit_to_one_driver_changes_only_its_own_points_keys(self, edit):
        modules = _point_modules()
        files = {module: importlib.util.find_spec(module).origin for module in modules}
        drivers = sorted(set(SRC.glob("harness/experiments/*.py")) - set(_keyed_files(SRC)))
        assert len(drivers) == len(EXPERIMENTS)
        keys = {module: _key(module) for module in modules}
        seen = set()
        for driver in drivers:
            edit(driver)
            now = {module: _key(module) for module in modules}
            changed = {module for module in modules if now[module] != keys[module]}
            assert changed == {module for module in modules if files[module] == str(driver)}, driver
            seen |= changed
            keys = now
        # fig10's points are kvcluster.run_one's, keyed as a shared module.
        assert seen == set(modules) - {"repro.harness.kvcluster"}

    def test_a_file_added_renamed_or_deleted_changes_the_key(self, tmp_path, monkeypatch):
        root = tmp_path / "repro"
        shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(cache_module, "_ROOT", str(root))
        clear_fingerprint_caches()
        stamps = iter(range(1, 100))

        def after(change, directory):
            change()
            # A directory's mtime moves on every entry change, but within
            # one filesystem tick it may not differ: give each step its own.
            when = next(stamps) * 10**9
            os.utime(directory, ns=(when, when))
            return code_fingerprint(point_fn)

        try:
            start = code_fingerprint(point_fn)
            assert start == _tree_key(root, Path(__file__), __name__)
            kv = root / "kv"
            added = after(lambda: (kv / "extra.py").write_text("X = 1\n", encoding="utf-8"), kv)
            renamed = after(lambda: (kv / "extra.py").rename(kv / "moved.py"), kv)
            assert len({start, added, renamed}) == 3
            assert after(lambda: (kv / "moved.py").unlink(), kv) == start
            # A new driver is keyed by its own points alone.
            drivers = root / "harness" / "experiments"
            assert after(lambda: (drivers / "fig99.py").write_text("X = 1\n", encoding="utf-8"), drivers) == start
        finally:
            monkeypatch.undo()
            clear_fingerprint_caches()

    def test_cold_fingerprint_compiles_nothing_and_reads_each_file_once(self, file_io):
        from repro.harness.experiments import fig02_unloaded_latency as fig02

        compiled, opened = file_io
        own = SRC / "harness" / "experiments" / "fig02_unloaded_latency.py"
        expected = _tree_key(SRC, own, fig02.__name__)
        clear_fingerprint_caches()
        opened.clear()
        assert code_fingerprint(fig02._point) == expected
        assert compiled == []
        assert opened == Counter(str(path) for path in _keyed_files(SRC) + [own])

    def test_warm_key_reads_no_file(self, file_io):
        from repro.harness.experiments import fig02_unloaded_latency as fig02

        compiled, opened = file_io
        expected = code_fingerprint(fig02._point)
        opened.clear()
        assert point_fingerprint(fig02._point, {"x": 1})[2] == expected
        assert not compiled and not opened

    def test_no_driver_imports_another(self):
        """A driver's points are keyed by its own file: code they ran
        from another driver's file would be in no key of theirs."""
        for path in sorted(SRC.glob("harness/experiments/*.py")):
            text = path.read_text(encoding="utf-8")
            assert set(re.findall(r"\bexperiments\.(\w+)", text)) <= {"common"}, path
            assert not re.search(r"^\s*from\s+\.", text, re.MULTILINE), path


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

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda entry: None,
            lambda entry: [],
            lambda entry: 3,
            lambda entry: "text",
            lambda entry: {k: v for k, v in entry.items() if k != "result"},
            lambda entry: {**entry, "elapsed_s": "soon"},
            lambda entry: {**entry, "elapsed_s": None},
            lambda entry: {**entry, "elapsed_s": [1.0]},
        ],
        ids=["null", "list", "number", "string", "no-result", "elapsed-text", "elapsed-null", "elapsed-list"],
    )
    def test_malformed_entry_is_a_miss_and_is_overwritten(self, tmp_path, mangle):
        """Valid JSON that is not a whole entry -- right schema and
        fingerprint included -- counts as one miss and nothing else."""
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1, seed=0)
        cache.store(point, point_fn(1), elapsed_s=0.5)
        [entry] = cache.entries()
        good = json.loads(Path(entry["path"]).read_text(encoding="utf-8"))
        Path(entry["path"]).write_text(json.dumps(mangle(good)), encoding="utf-8")
        before = cache.stats.snapshot()
        assert cache.lookup(point) == (False, None)
        delta = cache.stats.delta_since(before)
        assert delta.pop("misses") == 1 and not any(delta.values()), delta
        # ``cache stats`` and ``point_records`` list or skip it, never raise.
        assert all(isinstance(entry["elapsed_s"], float) for entry in cache.entries())
        cache.store(point, point_fn(1), elapsed_s=0.5)
        assert cache.lookup(point) == (True, {"x": 1, "seed": 0, "value": 2.5})

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for x in range(3):
            point = make_point(point_fn, index=x, x=x)
            cache.store(point, point_fn(x), elapsed_s=0.0)
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_torn_and_undecodable_journal_lines_are_skipped(self, tmp_path):
        """A line that is not UTF-8 used to raise ``UnicodeDecodeError``
        out of ``read_journal`` (and so out of ``repro cache stats``)."""
        cache = ResultCache(tmp_path / "cache")
        cache.record_run("good", {"hits": 1})
        with open(cache.root / "journal.jsonl", "ab") as handle:
            handle.write(b"\xe2\x82\n{torn\n[1, 2]\n\n")
        cache.record_run("later", {"hits": 2})
        assert [record["sweep"] for record in cache.read_journal()] == ["good", "later"]

    def test_paths_are_not_cache_specs(self, tmp_path):
        """A cache is ``None``, ``False`` or a ``ResultCache``."""
        for spec in (tmp_path, str(tmp_path)):
            with pytest.raises(TypeError, match="cannot interpret"):
                resolve_cache(spec)


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

    def test_negative_limits_are_refused(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        with pytest.raises(ValueError, match="max_entries"):
            cache.prune(max_entries=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            cache.prune(max_bytes=-1)
        assert len(cache.entries()) == 4

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

    def test_journal_logs_runs_and_point_timings(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_points = self._points(3)
        run_sweep(sweep_points, cache=cache, name="alpha")
        run_sweep(sweep_points, cache=cache, name="alpha")
        journal = cache.read_journal()
        assert [record["sweep"] for record in journal] == ["alpha", "alpha"]
        assert journal[0]["misses"] == 3 and journal[0]["hits"] == 0
        assert journal[1]["hits"] == 3 and journal[1]["misses"] == 0
        assert journal[1]["seconds_saved"] >= 0.0
        # Each computed point's timing is its entry file; the hits of
        # the second sweep add none.
        points = cache.point_records()
        assert sorted(record["label"] for record in points) == ["x=0", "x=1", "x=2"]
        assert all(record["elapsed_s"] >= 0.0 for record in points)

    def test_one_journal_line_per_call(self, tmp_path):
        specs = [
            ExperimentSpec("alpha", "tests.harness.fake_experiments", {"n": 3}),
            ExperimentSpec("beta", "tests.harness.fake_experiments_beta", {}),
        ]
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(specs, jobs=1, cache=cache)
        warm = run_suite(specs, jobs=1, cache=cache)
        run_sweep(self._points(2), cache=cache, name="one")
        journal = cache.read_journal()
        assert [record["sweep"] for record in journal] == ["suite", "suite", "one"]
        assert [(record["misses"], record["hits"]) for record in journal] == [
            (cold.points_total, 0), (0, warm.points_total), (2, 0)
        ]
        lines = (cache.root / "journal.jsonl").read_bytes().splitlines()
        assert len(lines) == 3

    def test_point_records_are_the_entry_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(3), cache=cache, name="t")
        fields = ("fn", "label", "kwargs", "code_fingerprint", "elapsed_s")
        stored = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(cache.root.glob("*.json"))
        ]
        assert len(stored) == 3
        assert [tuple(record[f] for f in fields) for record in cache.point_records()] == [
            tuple(entry[f] for f in fields) for entry in stored
        ]

    def test_sweep_run_accepts_cache(self, tmp_path):
        sweep = Sweep("mini")
        for x in (1, 2):
            sweep.point(point_fn, label=f"x={x}", x=x, seed=sweep.seed_for(f"x={x}"))
        first = sweep.run(cache=ResultCache(tmp_path / "cache"))
        second = sweep.run(cache=ResultCache(tmp_path / "cache"))
        assert first == second
        assert CALLS.count(("point_fn", 1, sweep.seed_for("x=1"))) == 1

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
