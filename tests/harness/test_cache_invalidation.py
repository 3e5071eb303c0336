"""Incremental invalidation: editing a point function's module re-runs
exactly that module's points.

Builds a throwaway package outside ``repro`` with two point modules
(``points_a``, ``points_b``), caches one sweep over both, then edits
``points_a``: only its point recomputes, the other stays warm.
``points_edit`` edits its own file *while it runs*.  A point function
outside ``repro`` is keyed by the ``src/repro`` tree and its own file
only: an edit to a helper it imports from elsewhere (``dep_alpha``
here) recomputes nothing.

The second half drives :func:`code_fingerprint` directly without ever
clearing the per-process memos between steps: the key memo has to
notice every kind of change on its own.
"""

from __future__ import annotations

import importlib
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
            """
            def point(x, log):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("b\\n")
                return {"which": "b", "value": 10 * x}
            """
        ),
        encoding="utf-8",
    )
    (pkg / "points_edit.py").write_text(
        textwrap.dedent(
            """
            import os


            def point(x, log):
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("e\\n")
                # Somebody saves this file while its point is running.
                path = __file__
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                marker = "# edited " + "mid-run\\n"  # not spelled out in this file
                if not source.endswith(marker):
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(marker)
                    stat = os.stat(path)
                    os.utime(path, ns=(stat.st_mtime_ns + 5 * 10**9,) * 2)
                return {"which": "e", "value": x}
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


def test_editing_a_point_module_recomputes_only_its_points(fake_pkg, tmp_path):
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

    # A helper outside repro is in no key: editing it recomputes nothing.
    _rewrite(pkg / "dep_alpha.py", "SCALE = 1  # same value\n")
    run_sweep(points(), cache=cache, name="inv")
    assert sorted(executions()) == ["a", "b"]

    # Edit points_a (new content + mtime): only its point recomputes.
    _rewrite(pkg / "points_a.py", (pkg / "points_a.py").read_text(encoding="utf-8") + "# edited\n")
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
    # points_edit.py changed under the first run: its result says
    # nothing about the code that is on disk now.
    run_sweep(point, cache=cache, name="inv")
    assert executions() == 2
    # The second run edited nothing, so its entry is good.
    run_sweep(point, cache=cache, name="inv")
    assert executions() == 2


# ----------------------------------------------------------------------
# Key-memo validity (memos are never cleared between steps)
# ----------------------------------------------------------------------
@pytest.fixture
def walks(monkeypatch):
    """How many times a key was computed rather than served by the memo."""
    calls = []
    real = cache_module._tree

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cache_module, "_tree", counting)
    return calls


def _rewrite(path, text):
    path.write_text(text, encoding="utf-8")
    _bump_mtime(path)


def test_unchanged_sources_walk_once_per_point_function(fake_pkg, walks):
    name, _ = fake_pkg
    points_a = importlib.import_module(f"{name}.points_a")
    first = code_fingerprint(points_a.point)
    assert [code_fingerprint(points_a.point) for _ in range(5)] == [first] * 5
    assert len(walks) == 1
    # A fresh process starts from nothing, and so does a cleared one.
    clear_fingerprint_caches()
    assert code_fingerprint(points_a.point) == first
    assert len(walks) == 2


def test_touching_a_file_without_changing_it_keeps_the_fingerprint(fake_pkg):
    name, pkg = fake_pkg
    points_b = importlib.import_module(f"{name}.points_b")
    before = code_fingerprint(points_b.point)
    listing = cache_module._tree_memo[0]
    _bump_mtime(pkg / "points_b.py")
    assert code_fingerprint(points_b.point) == before
    assert cache_module._tree_memo[0] is listing  # no directory moved: no new listing


def test_deleting_the_point_module_changes_the_fingerprint(fake_pkg):
    name, pkg = fake_pkg
    points_b = importlib.import_module(f"{name}.points_b")
    before = code_fingerprint(points_b.point)
    data = (pkg / "points_b.py").read_bytes()
    (pkg / "points_b.py").unlink()
    after = code_fingerprint(points_b.point)  # must not raise
    assert after != before
    assert code_fingerprint(points_b.point) == after
    # The file coming back (same bytes) restores the old fingerprint.
    (pkg / "points_b.py").write_bytes(data)
    assert code_fingerprint(points_b.point) == before
