"""Tests for the dispatch loop and the suite runner.

The load-bearing contract: points may complete in any order (streamed
across experiments, on worker processes or in-process), but every
experiment's result must stay byte-identical to the serial-experiment
baseline ``run_suite_serial`` -- whether it is entered as a suite
(``run_suite``) or as a suite of one (``run_sweep``).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.cache import ResultCache
from repro.harness.orchestrator import (
    ExperimentSpec,
    run_suite,
    run_suite_serial,
    suite_experiments,
)
from repro.harness.parallel import SweepPoint, accepted_kwargs, run_sweep
from repro.obs.session import capture
from tests.golden.regenerate import GOLDEN_CONFIGS
from tests.harness.fake_experiments import _negate

ALPHA = ExperimentSpec(
    name="alpha", module_path="tests.harness.fake_experiments", kwargs={"n": 5, "scale": 3}
)
BETA = ExperimentSpec(name="beta", module_path="tests.harness.fake_experiments_beta", kwargs={})
POISONED = ExperimentSpec(
    name="poisoned", module_path="tests.harness.fake_experiments_poisoned", kwargs={}
)
LEGACY = ExperimentSpec(
    name="legacy", module_path="tests.harness.fake_experiments_legacy", kwargs={}
)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class TestAcceptedKwargs:
    def test_filters_to_signature(self):
        def fn(a, b=1):
            return a, b

        assert accepted_kwargs(fn, {"a": 1, "b": 2, "c": 3}) == {"a": 1, "b": 2}

    def test_var_keyword_accepts_everything(self):
        def fn(**kwargs):
            return kwargs

        assert accepted_kwargs(fn, {"a": 1, "zz": 9}) == {"a": 1, "zz": 9}

    def test_no_matching_params_yields_empty(self):
        def fn():
            return None

        assert accepted_kwargs(fn, {"a": 1}) == {}


class TestSuiteExperiments:
    def test_quick_kwargs_come_from_registry(self):
        specs = suite_experiments(quick=True)
        assert len(specs) >= 20
        by_name = {spec.name: spec for spec in specs}
        assert "fig04" in by_name
        assert by_name["fig04"].kwargs  # quick mode scales something down

    def test_full_mode_has_no_kwarg_overrides(self):
        specs = suite_experiments(quick=False, names=["fig04"])
        assert len(specs) == 1
        assert specs[0].kwargs == {}

    def test_names_preserve_registry_order_and_dedupe(self):
        all_names = [spec.name for spec in suite_experiments()]
        specs = suite_experiments(names=["table2", "fig04", "table2"])
        names = [spec.name for spec in specs]
        assert sorted(names, key=all_names.index) == names
        assert len(names) == 2

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="nope"):
            suite_experiments(names=["nope"])


class TestRunSuite:
    def test_matches_serial_baseline(self):
        suite = run_suite([ALPHA, BETA], jobs=1, cache=False)
        serial = run_suite_serial([ALPHA, BETA], cache=False)
        assert _canonical(suite.results) == _canonical(serial)
        assert suite.points_total == 8
        assert [run.name for run in suite.experiments] == ["alpha", "beta"]

    def test_matches_serial_cold_and_warm(self, tmp_path):
        serial = run_suite_serial([ALPHA, BETA], cache=False)
        cold = run_suite([ALPHA, BETA], jobs=2, cache=tmp_path / "cache")
        warm = run_suite([ALPHA, BETA], jobs=2, cache=tmp_path / "cache")
        assert _canonical(cold.results) == _canonical(serial)
        assert _canonical(warm.results) == _canonical(serial)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.points_total

    def test_cold_and_warm_results_share_key_order(self, tmp_path):
        """A cold run merges what a warm hit returns, dict key order
        included: the entry file is written with sorted keys, so the
        value a cold run merges must be too."""
        specs = suite_experiments(names=["table2"])
        cold = run_suite(specs, jobs=1, cache=ResultCache(tmp_path / "cache"))
        warm = run_suite(specs, jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert (cold.cache_hits, warm.cache_hits) == (0, warm.points_total)
        checks = [suite.results["table2"]["checks"] for suite in (cold, warm)]
        assert list(checks[0]) == list(checks[1])
        assert json.dumps(cold.results) == json.dumps(warm.results)

    def test_report_and_journal(self, tmp_path):
        """A suite run is one ``"sweep"`` line in the cache's own
        journal -- what ``repro cache stats`` lists -- and its cache
        traffic reaches the capturing obs session."""
        cache_dir = tmp_path / "cache"
        with capture() as session:
            suite = run_suite([ALPHA], jobs=1, cache=cache_dir)
        report = suite.report()
        assert report["experiments"] == 1
        assert report["points_total"] == 5
        assert report["per_experiment"][0]["name"] == "alpha"
        assert "stolen_idle_s" in report
        assert session.registry.counter("suite.points_done").value == 5
        assert session.registry.counter("cache.misses").value == 5
        assert session.registry.counter("cache.hits").value == 0
        assert not (cache_dir / "suite.jsonl").exists()
        [record] = [r for r in ResultCache(cache_dir).read_journal() if "sweep" in r]
        assert record["sweep"] == "suite"
        assert (record["hits"], record["misses"], record["writes"]) == (0, 5, 5)
        assert record["points_total"] == 5
        assert record["jobs_requested"] == record["jobs_effective"] == 1

    def test_default_jobs_is_the_cpu_count_and_not_a_clamp(self, monkeypatch):
        import repro.harness.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        with capture() as session:
            default = run_suite([ALPHA], cache=False)
            assert session.registry.counter("sweep.jobs_clamped").value == 0
            explicit = run_suite([ALPHA], jobs=64, cache=False)
            assert session.registry.counter("sweep.jobs_clamped").value == 1
        assert default.jobs == explicit.jobs == 1

    def test_progress_events_stream(self):
        events = []
        run_suite(
            [ALPHA, BETA],
            jobs=1,
            cache=False,
            progress=lambda event, payload: events.append((event, payload)),
        )
        kinds = [event for event, _ in events]
        assert kinds.count("point") == 8
        assert kinds.count("experiment") == 2
        assert kinds[-1] == "suite"
        # Each experiment event fires after its last point, with its name.
        exp_names = [p["experiment"] for e, p in events if e == "experiment"]
        assert exp_names == ["alpha", "beta"]

    def test_missed_points_run_in_declared_order(self, tmp_path):
        """In-process, missed points run in the order they were
        declared, also when the journal holds every point's timing."""

        def point_order(cache):
            order = []
            run_suite(
                [ALPHA, BETA],
                jobs=1,
                cache=cache,
                progress=lambda event, payload: event == "point"
                and order.append((payload["experiment"], payload["label"])),
            )  # fmt: skip
            return order

        store = ResultCache(tmp_path / "cache")
        declared = point_order(store)
        assert declared == [("alpha", f"v={i}") for i in range(5)] + [
            ("beta", f"neg={i}") for i in range(3)
        ]
        # A journal that says the last experiment's points are the slow
        # ones changes nothing.
        slow = SweepPoint(index=0, label="slow", fn=_negate, kwargs={"value": 99})
        store.store(slow, {"value": 99}, elapsed_s=60.0)
        store.prune(max_entries=0)  # entries gone, journal kept
        assert point_order(store) == declared

    def test_legacy_module_without_sweep_rejected(self):
        with pytest.raises(TypeError, match="declarative sweep"):
            run_suite([LEGACY], jobs=1, cache=False)

    def test_point_error_propagates(self):
        with pytest.raises(RuntimeError, match="fake point 1 exploded"):
            run_suite([ALPHA, POISONED], jobs=1, cache=False)

    def test_fully_cached_experiment_finalizes_without_dispatch(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_suite([ALPHA], jobs=1, cache=cache_dir)
        events = []
        suite = run_suite(
            [ALPHA],
            jobs=1,
            cache=cache_dir,
            progress=lambda event, payload: events.append(event),
        )
        assert suite.cache_hits == 5
        assert suite.experiments[0].computed == 0
        assert events == ["experiment", "suite"]

    def test_real_drivers_match_their_run_entrypoints(self):
        # Smallest real experiments: the property matrix and fig04 quick.
        specs = suite_experiments(names=["table2"])
        suite = run_suite(specs, jobs=1, cache=False)
        serial = run_suite_serial(specs, cache=False)
        assert _canonical(suite.results) == _canonical(serial)


class TestSchedulingNeverChangesResults:
    """Byte-identity across executors, pools and cache temperatures."""

    REFERENCE = None

    @classmethod
    def _reference(cls):
        if cls.REFERENCE is None:
            cls.REFERENCE = _canonical(run_suite_serial([ALPHA, BETA], cache=False))
        return cls.REFERENCE

    @settings(max_examples=8, deadline=None)
    @given(specs=st.permutations([ALPHA, BETA]))
    def test_spec_order_keeps_results(self, specs):
        suite = run_suite(specs, jobs=2, cache=False)
        assert _canonical(suite.results) == self._reference()

    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), warm=st.booleans())
    def test_sweep_and_suite_entry_points_agree(self, n, warm):
        """One loop behind every entry point: a sweep in-process, on a
        pool of its own, and as a one-experiment suite merge equal
        results -- cold, and over a warm journal (entries
        pruned, so every point misses)."""
        from tests.harness.fake_experiments import sweep

        points = sweep(n=n, scale=3).points
        spec = ExperimentSpec("alpha", ALPHA.module_path, {"n": n, "scale": 3})
        reference = run_sweep(points, jobs=1, cache=False)
        with tempfile.TemporaryDirectory() as scratch:

            def cache(tag):
                if not warm:
                    return False
                store = ResultCache(Path(scratch) / tag)
                run_sweep(points, cache=store)
                store.prune(max_entries=0)
                return store

            assert run_sweep(points, jobs=1, cache=cache("serial")) == reference
            assert run_sweep(points, jobs=2, cache=cache("jobs")) == reference
            suite = run_suite([spec], jobs=1, cache=cache("suite"))
        assert suite.results["alpha"]["rows"] == reference
        assert suite.cache_hits == 0


class TestSingleWorkerBypass:
    """jobs<=1 must never pay pool round-trips: no executor is built and
    results match the serial path exactly."""

    @pytest.fixture
    def no_executor(self, monkeypatch):
        import repro.harness.parallel as parallel_mod

        def refuse(*_args, **_kwargs):
            raise AssertionError("a one-worker run built a ProcessPoolExecutor")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)

    def test_run_sweep_never_spawns_executor(self, no_executor):
        from tests.harness.fake_experiments import sweep

        rows = sweep(n=4).run(jobs=1, cache=False)
        assert [(row["value"], row["scaled"]) for row in rows] == [(i, i) for i in range(4)]

    def test_run_suite_never_spawns_executor(self, no_executor):
        suite = run_suite([ALPHA, BETA], jobs=1, cache=False)
        serial = run_suite_serial([ALPHA, BETA], cache=False)
        assert _canonical(suite.results) == _canonical(serial)

    def test_single_worker_suite_costs_nothing_over_serial(self):
        """One worker cannot win, but with the in-process bypass it must
        not lose either: streaming accounting must not tax the
        degenerate case.  The floor is 0.95x widened by
        the 0.75 noise tolerance a few-second window needs."""
        specs = [
            ExperimentSpec(
                "fig02",
                "repro.harness.experiments.fig02_unloaded_latency",
                GOLDEN_CONFIGS["fig02"],
            ),
            ExperimentSpec("table2", "repro.harness.experiments.table2_comparison", {}),
        ]
        start = time.perf_counter()
        serial = run_suite_serial(specs, jobs=1, cache=False)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        suite = run_suite(specs, jobs=1, cache=False)
        orchestrated_s = time.perf_counter() - start
        assert _canonical(suite.results) == _canonical(serial)
        speedup = serial_s / max(orchestrated_s, 1e-9)
        assert speedup >= 0.95 * 0.75, (
            f"single-worker orchestration costs too much: {speedup:.2f}x the "
            f"serial baseline ({orchestrated_s:.1f}s vs {serial_s:.1f}s)"
        )
