"""Tests for the rack-scale churn experiment driver."""

from __future__ import annotations

import json

import pytest

from repro.harness.experiments import rack


TINY = dict(
    schemes=("gimbal",),
    rack=(1,),
    ssds_per_jbof=2,
    tenants=4,
    horizon_us=120_000.0,
)


class TestSweepShape:
    def test_one_point_per_combination(self):
        sw = rack.sweep(
            schemes=("gimbal", "vanilla"),
            rack=(2, 4),
            churns=(0.5, 0.8),
            skews=(0.9,),
        )
        assert len(sw.points) == 8
        labels = [point.label for point in sw.points]
        assert len(set(labels)) == 8
        assert labels[0] == "scheme=gimbal,jbofs=2,churn=0.5,skew=0.9"

    def test_points_carry_derived_seeds(self):
        sw = rack.sweep(schemes=("gimbal",), rack=(2,))
        point = sw.points[0]
        assert point.kwargs["seed"] == sw.seed_for(point.label)


class TestRun:
    def test_tiny_rack_runs_clean(self):
        results = rack.run(**TINY)
        assert results["figure"] == "rack"
        (row,) = results["rows"]
        assert row["tenants_run"] == 4
        assert row["megas_leaked"] == 0
        assert row["megas_allocated"] > 0
        assert row["total_kops"] > 0
        assert 0.0 < row["jain"] <= 1.0
        assert row["peak_tenants"] >= 1

    def test_serial_and_parallel_identical(self):
        serial = rack.run(**TINY, jobs=1)
        parallel = rack.run(**TINY, jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_finalize_rejects_leaks(self):
        with pytest.raises(RuntimeError):
            rack.finalize([{"megas_leaked": 2}])

    def test_summarize_renders(self):
        results = rack.run(**TINY)
        text = rack.summarize(results)
        assert "Rack-scale churn" in text
        assert "gimbal" in text

    def test_registered_in_cli(self):
        from repro.harness.orchestrator import EXPERIMENTS

        module_path, quick = EXPERIMENTS["rack"]
        assert module_path == "repro.harness.experiments.rack"
        assert quick["tenants"] >= 2
