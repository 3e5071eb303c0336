"""Tests for the surrogate-guided adaptive sweep engine."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.adaptive import (
    CrossoverSpec,
    ExploreSpace,
    _resolve_budget,
    explore,
    find_crossovers,
)
from repro.harness.cache import ResultCache
from repro.harness.parallel import run_sweep
from repro.harness.surrogate import flatten_numeric
from tests.harness.fake_experiments import _wave, explore_space


# ----------------------------------------------------------------------
# CrossoverSpec
# ----------------------------------------------------------------------
class TestCrossoverSpec:
    def test_two_curve_signal(self):
        spec = CrossoverSpec(along="x", metric="a", minus="b")
        assert spec.signal({"a": 5.0, "b": 3.0}) == 2.0
        assert spec.metrics == ("a", "b")

    def test_level_signal(self):
        spec = CrossoverSpec(along="x", metric="a", level=4.0)
        assert spec.signal({"a": 5.0}) == 1.0
        assert spec.metrics == ("a",)

    def test_missing_metric_is_none(self):
        spec = CrossoverSpec(along="x", metric="a", minus="b")
        assert spec.signal({"a": 5.0}) is None
        assert spec.signal({"b": 3.0}) is None


# ----------------------------------------------------------------------
# ExploreSpace
# ----------------------------------------------------------------------
class TestExploreSpace:
    def test_bad_along_axis_rejected(self):
        with pytest.raises(ValueError, match="crossover axis"):
            ExploreSpace(
                name="bad",
                point_fn=_wave,
                axes={"x": [1.0, 2.0]},
                crossover=CrossoverSpec(along="zz", metric="a"),
            )

    def test_crossover_metrics_join_targets(self):
        space = explore_space()
        assert "a" in space.targets and "b" in space.targets

    def test_point_matches_sweep_conventions(self):
        space = explore_space(nx=3)
        combos = space.combos()
        # Last axis fastest, labels in axis order.
        assert space.label(combos[0]) == "y=2.0,x=0.0"
        point = space.point(0, combos[0])
        assert point.kwargs["x"] == 0.0 and point.kwargs["y"] == 2.0
        assert isinstance(point.kwargs["seed"], int)
        # Same label -> same seed regardless of grid position.
        again = space.point(5, combos[0])
        assert again.kwargs["seed"] == point.kwargs["seed"]


# ----------------------------------------------------------------------
# find_crossovers
# ----------------------------------------------------------------------
def _space_1d(values):
    return ExploreSpace(
        name="line",
        point_fn=_wave,
        axes={"x": list(values)},
        crossover=CrossoverSpec(along="x", metric="s"),
    )


class TestFindCrossovers:
    def test_sign_flip_with_interpolation(self):
        space = _space_1d([0.0, 1.0, 2.0])
        # Signal +1 at x=1, -1 at x=2: flip midway.
        found = find_crossovers(space, {0: 3.0, 1: 1.0, 2: -1.0})
        assert len(found) == 1
        assert found[0]["lo"] == 1.0 and found[0]["hi"] == 2.0
        assert found[0]["estimate"] == pytest.approx(1.5)

    def test_exact_zero_counts_as_crossover(self):
        space = _space_1d([0.0, 1.0, 2.0])
        found = find_crossovers(space, {0: 0.0, 1: 1.0, 2: 2.0})
        assert len(found) == 1
        assert found[0]["estimate"] == 0.0

    def test_sparse_signals_bridge_gaps(self):
        space = _space_1d([0.0, 1.0, 2.0, 3.0, 4.0])
        # Only the endpoints known: the flip is still located between them.
        found = find_crossovers(space, {0: 2.0, 4: -2.0})
        assert len(found) == 1
        assert found[0]["lo"] == 0.0 and found[0]["hi"] == 4.0
        assert found[0]["estimate"] == pytest.approx(2.0)

    def test_no_flip_no_crossovers(self):
        space = _space_1d([0.0, 1.0, 2.0])
        assert find_crossovers(space, {0: 1.0, 1: 2.0, 2: 3.0}) == []

    def test_groups_reported_separately(self):
        space = explore_space(nx=5)
        combos = space.combos()
        signals = {
            index: _wave(combo["x"], combo["y"])["a"] - _wave(combo["x"], combo["y"])["b"]
            for index, combo in enumerate(combos)
        }
        found = find_crossovers(space, signals)
        groups = {c["group"]["y"]: c["estimate"] for c in found}
        assert groups[2.0] == pytest.approx(3.0)
        # y=4 crosses at x=6, outside a 5-wide grid.
        assert 4.0 not in groups


# ----------------------------------------------------------------------
# Budget resolution
# ----------------------------------------------------------------------
class TestResolveBudget:
    def test_fraction_of_grid(self):
        assert _resolve_budget(0.2, 100) == 20

    def test_absolute_count(self):
        assert _resolve_budget(15, 100) == 15

    def test_clamped_to_grid(self):
        assert _resolve_budget(500, 100) == 100

    def test_at_least_one(self):
        assert _resolve_budget(0.001, 100) == 1

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            _resolve_budget(0.0, 100)


# ----------------------------------------------------------------------
# The engine on the synthetic space
# ----------------------------------------------------------------------
class TestExplore:
    def test_budget_respected_and_crossovers_found(self):
        space = explore_space()
        result = explore(space, budget=0.5, target_error=0.01, cache=False)
        assert result.simulated_count <= result.budget_points
        assert result.fraction_simulated <= 0.5 + 1e-9
        by_group = {c["group"]["y"]: c for c in result.crossovers}
        assert by_group[2.0]["estimate"] == pytest.approx(3.0, abs=1.0)
        assert by_group[4.0]["estimate"] == pytest.approx(6.0, abs=1.0)

    def test_deterministic_across_runs(self):
        space = explore_space()
        a = explore(space, budget=0.4, target_error=0.01, cache=False)
        b = explore(explore_space(), budget=0.4, target_error=0.01, cache=False)
        assert a.simulated_labels == b.simulated_labels
        assert a.crossovers == b.crossovers
        assert a.heldout == b.heldout

    def test_simulated_points_byte_identical_to_run_sweep(self):
        space = explore_space()
        result = explore(space, budget=0.3, target_error=0.01, cache=False)
        combos = space.combos()
        by_label = {space.label(combo): i for i, combo in enumerate(combos)}
        points = [
            space.point(pos, combos[by_label[label]])
            for pos, label in enumerate(result.simulated_labels)
        ]
        direct = run_sweep(points, jobs=1, cache=False)
        for label, value in zip(result.simulated_labels, direct):
            assert pickle.dumps(result.results[label]) == pickle.dumps(value)

    def test_progress_events_emitted(self):
        events = []
        explore(
            explore_space(),
            budget=0.3,
            target_error=0.01,
            cache=False,
            progress=lambda event, payload: events.append(event),
        )
        names = set(events)
        assert "batch" in names and "done" in names

    def test_heldout_stats_shape(self):
        result = explore(explore_space(), budget=0.4, target_error=0.0, cache=False)
        assert set(result.heldout) <= set(explore_space().targets)
        for stats in result.heldout.values():
            assert stats["count"] > 0
            assert stats["rmse"] >= 0.0
            assert stats["rel_rmse"] >= 0.0

    def test_report_is_json_safe(self):
        import json

        result = explore(explore_space(nx=9), budget=0.5, target_error=0.01, cache=False)
        json.dumps(result.report())

    def test_journal_bootstrap_reduces_simulation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        space = explore_space()
        first = explore(space, budget=0.4, target_error=0.05, cache=cache)
        assert first.simulated_count > 0
        # Second run trains from the journal before spending budget.
        second = explore(
            explore_space(), budget=0.4, target_error=0.05, cache=cache
        )
        assert second.simulated_count <= first.simulated_count
        # And the crossovers it reports still agree.
        by_group = {c["group"]["y"]: c for c in second.crossovers}
        assert by_group[2.0]["estimate"] == pytest.approx(3.0, abs=1.0)


# ----------------------------------------------------------------------
# Property-based guarantees
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(root_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_explore_is_deterministic(root_seed):
    """Same space + seed -> identical point selection and predictions."""
    a = explore(
        explore_space(nx=9, root_seed=root_seed), budget=0.5, target_error=0.01,
        cache=False,
    )
    b = explore(
        explore_space(nx=9, root_seed=root_seed), budget=0.5, target_error=0.01,
        cache=False,
    )
    assert a.simulated_labels == b.simulated_labels
    assert pickle.dumps(a.predicted) == pickle.dumps(b.predicted)
    assert a.crossovers == b.crossovers


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
    budget=st.sampled_from([0.3, 0.5, 7]),
)
def test_property_simulated_points_match_direct_execution(root_seed, budget):
    """Every point the engine simulates is byte-equal to run_sweep's."""
    space = explore_space(nx=9, root_seed=root_seed)
    result = explore(space, budget=budget, target_error=0.01, cache=False)
    combos = space.combos()
    by_label = {space.label(combo): i for i, combo in enumerate(combos)}
    points = [
        space.point(pos, combos[by_label[label]])
        for pos, label in enumerate(result.simulated_labels)
    ]
    direct = run_sweep(points, jobs=1, cache=False)
    for label, value in zip(result.simulated_labels, direct):
        assert pickle.dumps(result.results[label]) == pickle.dumps(value)


def test_signals_survive_flattening():
    """The engine computes signals on flattened outputs; the fake
    driver's flat dict round-trips unchanged."""
    outputs = flatten_numeric(_wave(3.0, 2.0))
    spec = CrossoverSpec(along="x", metric="a", minus="b")
    assert spec.signal(outputs) == pytest.approx(0.0)
