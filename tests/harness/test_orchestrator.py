"""Tests for the dispatch loop and the suite runner.

The load-bearing contract: points may complete in any order (streamed
across experiments, on worker processes or in-process), but every
experiment's result must stay byte-identical to calling each driver's
own ``run()`` in turn (:func:`_serial`) -- whether it is entered as a
suite (``run_suite``) or as a suite of one (``run_sweep``).
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
from repro.harness.orchestrator import ExperimentSpec, run_suite, suite_experiments
from repro.harness.parallel import accepted_kwargs, run_sweep
from repro.obs.session import capture
from tests.golden.records import GOLDEN_CONFIGS
from tests.harness.fake_experiments import EXECUTED

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


def _serial(specs):
    """The identity oracle: each driver's own ``run()``, one at a time."""
    return {spec.name: spec.load().run(cache=False, **spec.kwargs) for spec in specs}


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
        serial = _serial([ALPHA, BETA])
        assert _canonical(suite.results) == _canonical(serial)
        assert suite.points_total == 8
        assert [run.name for run in suite.experiments] == ["alpha", "beta"]

    def test_matches_serial_cold_and_warm(self, tmp_path):
        serial = _serial([ALPHA, BETA])
        cold = run_suite([ALPHA, BETA], jobs=2, cache=ResultCache(tmp_path / "cache"))
        warm = run_suite([ALPHA, BETA], jobs=2, cache=ResultCache(tmp_path / "cache"))
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
        journal -- what ``repro cache stats`` lists -- and nothing in a
        capturing obs session."""
        cache_dir = tmp_path / "cache"
        with capture() as session:
            suite = run_suite([ALPHA], jobs=1, cache=ResultCache(cache_dir))
        report = suite.report()
        assert report["experiments"] == 1
        assert report["points_total"] == 5
        assert report["per_experiment"][0]["name"] == "alpha"
        assert "stolen_idle_s" in report
        assert all(name.startswith("kernel.") for name in session.registry.snapshot())
        assert not (cache_dir / "suite.jsonl").exists()
        [record] = ResultCache(cache_dir).read_journal()
        assert record["sweep"] == "suite"
        assert (record["hits"], record["misses"], record["writes"]) == (0, 5, 5)
        assert record["points_total"] == 5
        assert record["jobs_requested"] == record["jobs_effective"] == 1

    def test_default_jobs_is_the_cpu_count_and_not_a_clamp(self, monkeypatch, tmp_path):
        import repro.harness.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        cache = ResultCache(tmp_path / "cache")
        default = run_suite([ALPHA], cache=cache)
        explicit = run_suite([ALPHA], jobs=64, cache=cache)
        assert default.jobs == explicit.jobs == 1
        requested = [(r["jobs_requested"], r["jobs_effective"]) for r in cache.read_journal()]
        assert requested == [(1, 1), (64, 1)]

    def test_progress_events_stream(self):
        events = []
        run_suite([ALPHA, BETA], jobs=1, cache=False, progress=events.append)
        # One call per experiment, after its last point, with its name.
        assert [payload["experiment"] for payload in events] == ["alpha", "beta"]
        assert [payload["points"] for payload in events] == [5, 3]
        assert all(payload["cache_hits"] == 0 for payload in events)

    def test_missed_points_run_in_declared_order(self, tmp_path):
        """In-process, missed points run in the order they were
        declared, across experiments; hits run nothing."""
        store = ResultCache(tmp_path / "cache")
        EXECUTED.clear()
        run_suite([ALPHA, BETA], jobs=1, cache=store)
        assert EXECUTED == [("_calc", i) for i in range(5)] + [("_negate", i) for i in range(3)]
        EXECUTED.clear()
        run_suite([ALPHA, BETA], jobs=1, cache=store)
        assert EXECUTED == []

    def test_unknown_keyword_refused_by_name(self):
        """A suite splits kwargs by the rule a driver's run() uses: a
        keyword neither sweep() nor finalize() takes is a TypeError
        naming it, raised before any point runs."""
        typo = ExperimentSpec(
            name="alpha", module_path=ALPHA.module_path, kwargs={"n": 2, "no_such_kwarg": 1}
        )
        EXECUTED.clear()
        with pytest.raises(TypeError, match="no_such_kwarg"):
            run_suite([typo], jobs=1, cache=False)
        with pytest.raises(TypeError, match="no_such_kwarg"):
            _serial([typo])
        assert EXECUTED == []

    def test_legacy_module_without_sweep_rejected(self):
        with pytest.raises(TypeError, match="declarative sweep"):
            run_suite([LEGACY], jobs=1, cache=False)

    def test_point_error_propagates(self):
        with pytest.raises(RuntimeError, match="fake point 1 exploded"):
            run_suite([ALPHA, POISONED], jobs=1, cache=False)

    def test_fully_cached_experiment_finalizes_without_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite([ALPHA], jobs=1, cache=cache)
        events = []
        suite = run_suite([ALPHA], jobs=1, cache=cache, progress=events.append)
        assert suite.cache_hits == 5
        assert suite.experiments[0].computed == 0
        assert [(payload["experiment"], payload["cache_hits"]) for payload in events] == [("alpha", 5)]

    def test_real_drivers_match_their_run_entrypoints(self):
        # Smallest real experiments: the property matrix and fig04 quick.
        specs = suite_experiments(names=["table2"])
        suite = run_suite(specs, jobs=1, cache=False)
        serial = _serial(specs)
        assert _canonical(suite.results) == _canonical(serial)


class TestSchedulingNeverChangesResults:
    """Byte-identity across executors, pools and cache temperatures."""

    REFERENCE = None

    @classmethod
    def _reference(cls):
        if cls.REFERENCE is None:
            cls.REFERENCE = _canonical(_serial([ALPHA, BETA]))
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
        results -- cold, and over a cache whose entries were pruned
        (every point misses)."""
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
        serial = _serial([ALPHA, BETA])
        assert _canonical(suite.results) == _canonical(serial)

    def test_single_worker_suite_costs_nothing_over_serial(self):
        """One worker cannot win, but with the in-process bypass it must
        not lose either: streaming accounting must not tax the
        degenerate case.  The floor is 0.95x widened by the 0.75 noise
        tolerance a few-second window needs.  Both sides run in this
        process, so each is measured in CPU time, not wall time, which
        other processes on a loaded box would inflate; each runs twice,
        in alternating order, and keeps its best."""
        specs = [
            ExperimentSpec(
                "fig02",
                "repro.harness.experiments.fig02_unloaded_latency",
                GOLDEN_CONFIGS["fig02"],
            ),
            ExperimentSpec("table2", "repro.harness.experiments.table2_comparison", {}),
        ]

        def serial():
            return _serial(specs)

        def orchestrated():
            return run_suite(specs, jobs=1, cache=False).results

        results = {}
        cpu_s = {serial: [], orchestrated: []}
        for order in ((serial, orchestrated), (orchestrated, serial)):
            for side in order:
                start = time.process_time()
                results[side] = side()
                cpu_s[side].append(time.process_time() - start)
        assert _canonical(results[orchestrated]) == _canonical(results[serial])
        serial_s, orchestrated_s = min(cpu_s[serial]), min(cpu_s[orchestrated])
        speedup = serial_s / max(orchestrated_s, 1e-9)
        assert speedup >= 0.95 * 0.75, (
            f"single-worker orchestration costs too much: {speedup:.2f}x the "
            f"serial baseline ({orchestrated_s:.1f}s vs {serial_s:.1f}s of CPU)"
        )
