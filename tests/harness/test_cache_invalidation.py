"""Incremental invalidation: editing a module re-runs exactly the
points that transitively import it.

Builds a throwaway package with two independent dependency chains
(``points_a -> dep_alpha``, ``points_b -> dep_beta -> dep_deep``),
caches one sweep over both, then mutates ``dep_alpha``.  Only the point
whose closure contains the edited file may recompute; the other chain
must stay warm.  ``points_edit`` edits ``dep_alpha`` *while it runs*.

The second half drives :func:`code_fingerprint` directly without ever
clearing the per-process memos between steps: the closure memo has to
notice every kind of change on its own.  One case there runs on the
real drivers, with ``_source`` reporting an edit no file received.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import textwrap
import uuid

import pytest

import repro.harness.cache as cache_module
from repro.harness.cache import ResultCache, clear_fingerprint_caches, code_fingerprint
from repro.harness.parallel import SweepPoint, run_sweep


@pytest.fixture
def fake_pkg(tmp_path):
    name = f"fakesim_{uuid.uuid4().hex[:10]}"
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "dep_alpha.py").write_text("SCALE = 1\n", encoding="utf-8")
    (pkg / "dep_beta.py").write_text(
        f"from {name} import dep_deep\n\nSCALE = 10 * dep_deep.UNIT\n", encoding="utf-8"
    )
    (pkg / "dep_deep.py").write_text("UNIT = 1\n", encoding="utf-8")
    (pkg / "points_a.py").write_text(
        textwrap.dedent(
            f"""
            from {name} import dep_alpha


            def point(x, log):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("a\\n")
                return {{"which": "a", "value": dep_alpha.SCALE * x}}
            """
        ),
        encoding="utf-8",
    )
    (pkg / "points_b.py").write_text(
        textwrap.dedent(
            f"""
            from {name} import dep_beta


            def point(x, log):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("b\\n")
                return {{"which": "b", "value": dep_beta.SCALE * x}}
            """
        ),
        encoding="utf-8",
    )
    (pkg / "points_edit.py").write_text(
        textwrap.dedent(
            f"""
            import os

            from {name} import dep_alpha


            def point(x, log):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("e\\n")
                # Somebody saves dep_alpha.py while this point is running.
                path = dep_alpha.__file__
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                if "edited mid-run" not in source:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write("# edited mid-run\\n")
                    stat = os.stat(path)
                    os.utime(path, ns=(stat.st_mtime_ns + 5 * 10**9,) * 2)
                return {{"which": "e", "value": dep_alpha.SCALE * x}}
            """
        ),
        encoding="utf-8",
    )
    sys.path.insert(0, str(tmp_path))
    importlib.invalidate_caches()
    try:
        yield name, pkg
    finally:
        sys.path.remove(str(tmp_path))
        for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
            del sys.modules[module]
        clear_fingerprint_caches()


def _bump_mtime(path, seconds=5):
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_mtime_ns + seconds * 10**9,) * 2)


def test_editing_a_dependency_invalidates_only_its_importers(fake_pkg, tmp_path):
    name, pkg = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    points_b = importlib.import_module(f"{name}.points_b")
    log = tmp_path / "executions.log"
    cache = ResultCache(tmp_path / "cache")

    def points():
        return [
            SweepPoint(index=0, label="a", fn=points_a.point, kwargs={"x": 2, "log": str(log)}),
            SweepPoint(index=1, label="b", fn=points_b.point, kwargs={"x": 2, "log": str(log)}),
        ]

    executions = lambda: log.read_text(encoding="utf-8").splitlines()  # noqa: E731

    # Cold: both points execute and are stored.
    run_sweep(points(), cache=cache, name="inv")
    assert sorted(executions()) == ["a", "b"]

    # Warm, nothing edited: neither point re-executes.
    run_sweep(points(), cache=cache, name="inv")
    assert sorted(executions()) == ["a", "b"]

    # Edit dep_alpha (same size, new content + mtime): only the chain
    # that transitively imports it recomputes.
    alpha = pkg / "dep_alpha.py"
    alpha.write_text("SCALE = 2\n", encoding="utf-8")
    _bump_mtime(alpha)
    run_sweep(points(), cache=cache, name="inv")
    assert sorted(executions()) == ["a", "a", "b"]

    # And the recomputed entry is itself warm now.
    run_sweep(points(), cache=cache, name="inv")
    assert sorted(executions()) == ["a", "a", "b"]


def test_editing_the_point_module_itself_invalidates(fake_pkg, tmp_path):
    name, pkg = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    log = tmp_path / "executions.log"
    cache = ResultCache(tmp_path / "cache")
    point = [SweepPoint(index=0, label="a", fn=points_a.point, kwargs={"x": 1, "log": str(log)})]

    run_sweep(point, cache=cache, name="inv")
    run_sweep(point, cache=cache, name="inv")
    assert log.read_text(encoding="utf-8").count("a") == 1

    module_file = pkg / "points_a.py"
    module_file.write_text(
        module_file.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8"
    )
    _bump_mtime(module_file)
    run_sweep(point, cache=cache, name="inv")
    assert log.read_text(encoding="utf-8").count("a") == 2


def test_package_init_is_part_of_the_closure(fake_pkg, tmp_path):
    """Editing the package ``__init__`` (which executes on import)
    invalidates every point in the package."""
    name, pkg = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    points_b = importlib.import_module(f"{name}.points_b")
    log = tmp_path / "executions.log"
    cache = ResultCache(tmp_path / "cache")
    points = [
        SweepPoint(index=0, label="a", fn=points_a.point, kwargs={"x": 1, "log": str(log)}),
        SweepPoint(index=1, label="b", fn=points_b.point, kwargs={"x": 1, "log": str(log)}),
    ]

    run_sweep(points, cache=cache, name="inv")
    init = pkg / "__init__.py"
    init.write_text("# package-level constant\n", encoding="utf-8")
    _bump_mtime(init)
    run_sweep(points, cache=cache, name="inv")
    assert sorted(log.read_text(encoding="utf-8").splitlines()) == ["a", "a", "b", "b"]


def test_source_edited_while_a_point_runs_is_not_filed_under_the_new_code(fake_pkg, tmp_path):
    """The entry is keyed by the code on disk when the point was looked
    up.  Re-fingerprinting after the point ran (the old ``store``) filed
    old-code results under the edited code's key, and the next run
    served them as valid."""
    name, _ = fake_pkg
    points_edit = importlib.import_module(f"{name}.points_edit")
    log = tmp_path / "executions.log"
    cache = ResultCache(tmp_path / "cache")
    point = [SweepPoint(index=0, label="e", fn=points_edit.point, kwargs={"x": 1, "log": str(log)})]
    executions = lambda: log.read_text(encoding="utf-8").count("e")  # noqa: E731

    run_sweep(point, cache=cache, name="inv")
    assert executions() == 1
    # dep_alpha changed under the first run: its result says nothing
    # about the code that is on disk now.
    run_sweep(point, cache=cache, name="inv")
    assert executions() == 2
    # The second run edited nothing, so its entry is good.
    run_sweep(point, cache=cache, name="inv")
    assert executions() == 2


# ----------------------------------------------------------------------
# Closure-memo validity (memos are never cleared between steps)
# ----------------------------------------------------------------------
@pytest.fixture
def walks(monkeypatch):
    """Module names ``transitive_sources`` was asked to walk, in order."""
    calls = []
    real = cache_module.transitive_sources

    def counting(module_name, roots):
        calls.append(module_name)
        return real(module_name, roots)

    monkeypatch.setattr(cache_module, "transitive_sources", counting)
    return calls


def _rewrite(path, text):
    path.write_text(text, encoding="utf-8")
    _bump_mtime(path)


def test_unchanged_sources_walk_once_per_point_function(fake_pkg, walks):
    name, _ = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    first = code_fingerprint(points_a.point)
    assert [code_fingerprint(points_a.point) for _ in range(5)] == [first] * 5
    assert walks == [f"{name}.points_a"]
    # A fresh process starts from nothing, and so does a cleared one.
    clear_fingerprint_caches()
    assert code_fingerprint(points_a.point) == first
    assert walks == [f"{name}.points_a"] * 2


def test_editing_a_dependency_of_a_dependency_invalidates_only_that_chain(fake_pkg, walks):
    name, pkg = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    points_b = importlib.import_module(f"{name}.points_b")
    before_a = code_fingerprint(points_a.point)
    before_b = code_fingerprint(points_b.point)
    del walks[:]

    _rewrite(pkg / "dep_deep.py", "UNIT = 3\n")
    after_b = code_fingerprint(points_b.point)
    assert after_b != before_b
    assert code_fingerprint(points_a.point) == before_a
    # The sibling chain never re-walked; the edited one walked once and
    # is warm again.
    assert code_fingerprint(points_b.point) == after_b
    assert walks == [f"{name}.points_b"]


def test_touching_a_file_without_changing_it_keeps_the_fingerprint(fake_pkg, walks):
    name, pkg = fake_pkg
    points_b = importlib.import_module(f"{name}.points_b")
    before = code_fingerprint(points_b.point)
    _bump_mtime(pkg / "dep_deep.py")
    assert code_fingerprint(points_b.point) == before
    assert walks == [f"{name}.points_b"]  # same bytes, same closure: no second walk


def test_a_new_import_pulls_the_new_module_into_the_closure(fake_pkg):
    name, pkg = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    before = code_fingerprint(points_a.point)

    (pkg / "dep_new.py").write_text("EXTRA = 1\n", encoding="utf-8")
    importlib.invalidate_caches()
    _rewrite(pkg / "dep_alpha.py", f"from {name} import dep_new\n\nSCALE = 1\n")
    with_import = code_fingerprint(points_a.point)
    assert with_import != before
    assert f"{name}.dep_new" in cache_module.transitive_sources(
        f"{name}.points_a", frozenset({name})
    )
    # ...and from now on an edit to the new module counts.
    _rewrite(pkg / "dep_new.py", "EXTRA = 2\n")
    assert code_fingerprint(points_a.point) not in (before, with_import)


def test_a_kv_edit_recomputes_the_rocksdb_figure_and_not_fig02(monkeypatch):
    """``repro/kv/lsm.py`` reads as edited (a new source hash, the file
    untouched): fig10 runs the LSM tree and gets a new fingerprint; fig02
    never reaches it and keeps its own."""
    from repro.harness.experiments import fig02_unloaded_latency as fig02
    from repro.harness.experiments import fig10_rocksdb as fig10

    lsm = importlib.util.find_spec("repro.kv.lsm").origin
    before = code_fingerprint(fig02._point), code_fingerprint(fig10.run_one)
    real = cache_module._source

    def edited(path):
        sha, imports = real(path)
        return ("edited" + sha if path == lsm else sha), imports

    monkeypatch.setattr(cache_module, "_source", edited)
    try:
        assert code_fingerprint(fig02._point) == before[0]
        assert code_fingerprint(fig10.run_one) != before[1]
    finally:
        monkeypatch.undo()
        clear_fingerprint_caches()


def test_deleting_a_closure_file_changes_the_fingerprint(fake_pkg):
    name, pkg = fake_pkg
    points_b = importlib.import_module(f"{name}.points_b")
    before = code_fingerprint(points_b.point)
    (pkg / "dep_deep.py").unlink()
    after = code_fingerprint(points_b.point)  # must not raise
    assert after != before
    assert code_fingerprint(points_b.point) == after
    # The file coming back (same bytes) restores the old fingerprint.
    (pkg / "dep_deep.py").write_text("UNIT = 1\n", encoding="utf-8")
    assert code_fingerprint(points_b.point) == before
