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
from repro.harness.experiments.common import build_sweep
from repro.harness.parallel import (
    Sweep,
    SweepPoint,
    merge_rows,
    point_seed,
    run_sweep,
)
from repro.obs.session import capture


# Module-level so points pickle by reference into worker processes.
def _square(value: int, seed: int = 0) -> dict:
    return {"value": value, "squared": value * value, "seed": seed}


def _unseeded(value: int, scale: int = 1) -> dict:
    return {"value": value * scale}


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
        sweep.point(_square, "first", value=3)
        sweep.point(_square, label="named", value=4)
        assert [p.index for p in sweep.points] == [0, 1]
        assert [p.label for p in sweep.points] == ["first", "named"]
        assert sweep.points[0].kwargs == {"value": 3}

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
        """``build_sweep`` labels a point by its axis values, so an axis
        that repeats a value repeats a label, and is refused."""
        with pytest.raises(ValueError, match="duplicate sweep point label 'value=3'"):
            build_sweep("s", {"value": (3, 4, 3)}, _square)


class TestBuildSweep:
    """``build_sweep`` declares what the drivers' nested loops did:
    the same order, labels, kwargs and seeds."""

    def test_nested_loop_order_last_axis_fastest(self):
        sweep = build_sweep("s", {"value": (1, 2), "scale": (10, 20, 30)}, _unseeded)
        expected = [
            {"value": value, "scale": scale} for value in (1, 2) for scale in (10, 20, 30)
        ]
        assert [point.kwargs for point in sweep.points] == expected
        assert [point.index for point in sweep.points] == list(range(6))

    def test_labels_join_key_value_in_axis_order(self):
        sweep = build_sweep("s", {"value": (1,), "scale": ("a", 0.5)}, _unseeded)
        assert [point.label for point in sweep.points] == [
            "value=1,scale=a",
            "value=1,scale=0.5",
        ]

    def test_seeded_point_gets_the_labels_point_seed(self):
        sweep = build_sweep("s", {"value": (1, 2)}, _square, root_seed=9, extra=None)
        for point in sweep.points:
            assert point.fn is _square
            assert point.kwargs["seed"] == point_seed(9, point.label)
            assert point.kwargs["extra"] is None
        assert sweep.points[0].kwargs["seed"] != sweep.points[1].kwargs["seed"]

    def test_unseeded_point_gets_no_seed(self):
        sweep = build_sweep("s", {"value": (1, 2)}, _unseeded, root_seed=9, scale=3)
        assert [point.kwargs for point in sweep.points] == [
            {"scale": 3, "value": 1},
            {"scale": 3, "value": 2},
        ]
        assert run_sweep(sweep.points) == [{"value": 3}, {"value": 6}]


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
