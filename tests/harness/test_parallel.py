"""Tests for the parallel sweep runner and its determinism contract.

The contract under test: an experiment produces byte-identical merged
results whether its points run serially, serially again, or fanned out
across worker processes -- and whether or not an observability session
is capturing.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.harness.experiments import fig14_read_ratio as fig14
from repro.harness.parallel import (
    Sweep,
    SweepPoint,
    merge_rows,
    point_seed,
    run_sweep,
    sweep_axes,
)
from repro.obs.session import capture


# Module-level so points pickle by reference into worker processes.
def _square(value: int, seed: int = 0) -> dict:
    return {"value": value, "squared": value * value, "seed": seed}


def _boom(value: int) -> dict:
    raise RuntimeError(f"point {value} exploded")


def _sleep_then_square(value: int, sleep_s: float = 0.0) -> dict:
    time.sleep(sleep_s)
    return {"value": value, "squared": value * value}


class TestRunSweep:
    def test_serial_results_in_point_order(self):
        points = [
            SweepPoint(index=i, label=f"p{i}", fn=_square, kwargs={"value": i})
            for i in range(5)
        ]
        results = run_sweep(points, jobs=1)
        assert [r["squared"] for r in results] == [0, 1, 4, 9, 16]

    def test_parallel_results_in_point_order(self):
        points = [
            SweepPoint(index=i, label=f"p{i}", fn=_square, kwargs={"value": i})
            for i in range(8)
        ]
        assert run_sweep(points, jobs=4) == run_sweep(points, jobs=1)

    def test_duplicate_indices_rejected(self):
        points = [
            SweepPoint(index=0, label="a", fn=_square, kwargs={"value": 1}),
            SweepPoint(index=0, label="b", fn=_square, kwargs={"value": 2}),
        ]
        with pytest.raises(ValueError, match="unique"):
            run_sweep(points)

    def test_point_error_propagates_serial(self):
        points = [SweepPoint(index=0, label="x", fn=_boom, kwargs={"value": 7})]
        with pytest.raises(RuntimeError, match="point 7 exploded"):
            run_sweep(points, jobs=1)

    def test_point_error_propagates_parallel(self):
        points = [SweepPoint(index=0, label="x", fn=_boom, kwargs={"value": 7})]
        with pytest.raises(RuntimeError, match="point 7 exploded"):
            run_sweep(points, jobs=2)

    def test_poisoned_point_surfaces_before_slow_siblings(self, monkeypatch):
        """Satellite (a): a failing point must not queue behind a slow one.

        A slow point is submitted *first*; with completion-order
        consumption the poisoned point's error surfaces while the slow
        sibling is still sleeping, instead of after it finishes (which
        is what submission-order iteration did).
        """
        import repro.harness.parallel as parallel_mod

        # Two workers even on a one-core box (where the clamp would
        # otherwise run both points in-process, slow one first).
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
        slow_s = 2.5
        points = [
            SweepPoint(
                index=0, label="slow", fn=_sleep_then_square,
                kwargs={"value": 1, "sleep_s": slow_s},
            ),
            SweepPoint(index=1, label="poisoned", fn=_boom, kwargs={"value": 13}),
        ]
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="point 13 exploded"):
            run_sweep(points, jobs=2)
        elapsed = time.perf_counter() - started
        assert elapsed < slow_s, (
            f"error took {elapsed:.2f}s to surface -- it waited out the slow point"
        )


class TestJobsClamp:
    def test_oversubscribed_jobs_clamp_to_cpu_count(self, monkeypatch, tmp_path):
        import repro.harness.parallel as parallel_mod
        from repro.harness.cache import ResultCache

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
        cache = ResultCache(tmp_path / "cache")
        points = [
            SweepPoint(index=i, label=f"p{i}", fn=_square, kwargs={"value": i})
            for i in range(4)
        ]
        results = run_sweep(points, jobs=64, cache=cache, name="clamped")
        assert [r["squared"] for r in results] == [0, 1, 4, 9]
        record = cache.read_journal()[-1]
        assert record["sweep"] == "clamped"
        assert record["jobs_requested"] == 64
        assert record["jobs_effective"] == 2

    def test_within_budget_jobs_unclamped(self, monkeypatch, tmp_path):
        import repro.harness.parallel as parallel_mod
        from repro.harness.cache import ResultCache

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
        cache = ResultCache(tmp_path / "cache")
        points = [
            SweepPoint(index=i, label=f"p{i}", fn=_square, kwargs={"value": i})
            for i in range(2)
        ]
        run_sweep(points, jobs=2, cache=cache, name="unclamped")
        record = cache.read_journal()[-1]
        assert record["jobs_requested"] == 2
        assert record["jobs_effective"] == 2

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_effective_jobs_never_below_one(self, tmp_path, jobs):
        # Used to journal a negative effective worker count.
        from repro.harness.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        points = [SweepPoint(index=0, label="p0", fn=_square, kwargs={"value": 3})]
        assert run_sweep(points, jobs=jobs, cache=cache, name="floor")[0]["squared"] == 9
        record = cache.read_journal()[-1]
        assert record["jobs_requested"] == jobs
        assert record["jobs"] == record["jobs_effective"] == 1


class TestSweepBuilder:
    def test_points_get_sequential_indices_and_labels(self):
        sweep = Sweep("s")
        sweep.point(_square, value=3)
        sweep.point(_square, label="named", value=4)
        assert [p.index for p in sweep.points] == [0, 1]
        assert sweep.points[0].label == "value=3"
        assert sweep.points[1].label == "named"

    def test_seeds_are_stable_and_label_dependent(self):
        sweep = Sweep("s", root_seed=7)
        assert sweep.seed_for("a") == point_seed(7, "a")
        assert sweep.seed_for("a") != sweep.seed_for("b")
        assert sweep.seed_for("a") == Sweep("other-name", root_seed=7).seed_for("a")

    def test_duplicate_labels_rejected(self):
        """Satellite (b): duplicate labels would silently share a seed."""
        sweep = Sweep("s")
        sweep.point(_square, label="same", value=1)
        with pytest.raises(ValueError, match="duplicate sweep point label 'same'"):
            sweep.point(_square, label="same", value=2)

    def test_duplicate_default_labels_rejected(self):
        sweep = Sweep("s")
        sweep.point(_square, value=3)
        with pytest.raises(ValueError, match="duplicate"):
            sweep.point(_square, value=3)

    def test_sweep_axes_nested_loop_order(self):
        combos = sweep_axes({"x": (1, 2), "y": ("a", "b")})
        assert combos == [
            {"x": 1, "y": "a"},
            {"x": 1, "y": "b"},
            {"x": 2, "y": "a"},
            {"x": 2, "y": "b"},
        ]


class TestMergeHelpers:
    def test_merge_rows_flattens_one_level(self):
        assert merge_rows([{"a": 1}, [{"b": 2}, {"c": 3}], {"d": 4}]) == [
            {"a": 1},
            {"b": 2},
            {"c": 3},
            {"d": 4},
        ]


class TestExperimentDeterminism:
    """Satellite: same experiment twice serially and once with jobs=4."""

    KWARGS = {"duration_us": 10_000.0, "read_ratios": (0.0, 0.5, 0.9, 1.0)}

    @staticmethod
    def _canonical(results) -> str:
        return json.dumps(results, sort_keys=True)

    def test_serial_serial_parallel_identical(self):
        first = self._canonical(fig14.run(**self.KWARGS))
        second = self._canonical(fig14.run(**self.KWARGS))
        parallel = self._canonical(fig14.run(**self.KWARGS, jobs=4))
        assert first == second
        assert first == parallel

    def test_traced_run_matches_untraced(self, tmp_path):
        untraced = self._canonical(fig14.run(**self.KWARGS))
        with capture(trace_path=str(tmp_path / "journal.jsonl")) as session:
            traced = self._canonical(fig14.run(**self.KWARGS))
        assert traced == untraced
        # The capture actually observed the runs it claims not to perturb.
        assert session.probe.fired_total > 0

    def test_root_seed_changes_results(self):
        base = self._canonical(fig14.run(**self.KWARGS))
        reseeded = self._canonical(fig14.run(**self.KWARGS, root_seed=43))
        assert base != reseeded


def test_harness_never_imports_numpy():
    """The package has no third-party dependency: importing the harness
    and the testbed pulls in no numpy."""
    import subprocess
    import sys

    probe = (
        "import sys, repro.harness, repro.harness.testbed; "
        "sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", probe], timeout=120).returncode == 0
