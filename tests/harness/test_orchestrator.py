"""Tests for the dispatch loop: cost model, dispatch plan, runner.

The load-bearing contract: the loop may schedule points in any order
it likes (LPT, batched, streamed across experiments), but every
experiment's result must stay byte-identical to the serial-experiment
baseline ``run_suite_serial`` -- whether it is entered as a suite
(``run_suite``) or as a suite of one (``run_sweep``).
"""

from __future__ import annotations

import json
import os
import shutil
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
from repro.harness.parallel import (
    DEFAULT_POINT_COST_S,
    CostModel,
    SweepPoint,
    WorkerPool,
    _Task,
    accepted_kwargs,
    plan_dispatch,
    run_sweep,
)
from repro.obs.session import capture
from tests.golden.regenerate import GOLDEN_CONFIGS
from tests.harness.fake_experiments import _calc, _negate

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


class TestCostModel:
    POINT = SweepPoint(index=0, label="v=0", fn=_calc, kwargs={"value": 0})

    def test_no_store_uses_default(self):
        model = CostModel.from_cache(None)
        assert model.predict(self.POINT) == DEFAULT_POINT_COST_S

    def test_empty_cache_uses_default(self, tmp_path):
        model = CostModel.from_cache(ResultCache(tmp_path / "cache"))
        assert model.predict(self.POINT) == DEFAULT_POINT_COST_S

    def test_fn_mean_answers_for_a_journaled_fn(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.store(self.POINT, {"value": 0}, elapsed_s=3.25)
        other = SweepPoint(index=1, label="v=9", fn=_calc, kwargs={"value": 9})
        store.store(other, {"value": 9}, elapsed_s=1.25)
        model = CostModel.from_cache(store)
        # Same fn, any kwargs: mean of the fn's journaled times.  (The
        # journaled point itself would be a cache hit, never predicted.)
        fresh = SweepPoint(index=2, label="v=5", fn=_calc, kwargs={"value": 5})
        assert model.predict(fresh) == pytest.approx((3.25 + 1.25) / 2)
        assert model.predict(self.POINT) == pytest.approx((3.25 + 1.25) / 2)
        # Different fn entirely: falls through to the default.
        alien = SweepPoint(index=3, label="n=1", fn=_negate, kwargs={"value": 1})
        assert model.predict(alien) == DEFAULT_POINT_COST_S
        assert model.tier_hits == {"by_fn": 2, "default": 1}

    def test_fn_mean_keeps_the_newest_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CostModel, "MAX_RECORDS", 2)
        store = ResultCache(tmp_path / "cache")
        for i, elapsed in enumerate((100.0, 1.0, 3.0)):
            point = SweepPoint(index=i, label=f"v={i}", fn=_calc, kwargs={"value": i})
            store.store(point, {"value": i}, elapsed_s=elapsed)
        assert CostModel.from_cache(store).predict(self.POINT) == pytest.approx(2.0)

    def test_corrupt_journal_entries_degrade_gracefully(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.store(self.POINT, {"value": 0}, elapsed_s=2.0)
        # Corrupt the entry file, drop garbage JSON beside it, and tear
        # the journal's tail: the model reads only the journal, and
        # only its well-formed lines.
        entry_files = list(store.root.glob("*.json"))
        entry_files[0].write_text("{not json", encoding="utf-8")
        (store.root / ("f" * 64 + ".json")).write_text('{"no": "fingerprint"}')
        with open(store.root / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"type": "point", "fn": 7, "kwargs": {}, "elapsed_s": 1}\n{"type": "poi')
        model = CostModel.from_cache(store)  # must not raise
        assert model.predict(self.POINT) == pytest.approx(2.0)
        assert model.tier_hits["by_fn"] == 1

    def test_entries_blowing_up_never_raises(self, tmp_path):
        """The model never scans the entry files: timings come from the
        journal's point records, which outlive the entries."""

        class _Hostile(ResultCache):
            def entries(self):
                raise RuntimeError("disk on fire")

        store = _Hostile(tmp_path / "cache")
        store.store(self.POINT, {"value": 0}, elapsed_s=2.0)
        assert CostModel.from_cache(store).predict(self.POINT) == pytest.approx(2.0)

    def test_journal_blowing_up_never_raises(self, tmp_path):
        class _Hostile(ResultCache):
            def read_journal(self):
                raise RuntimeError("disk on fire")

        model = CostModel.from_cache(_Hostile(tmp_path / "cache"))
        assert model.predict(self.POINT) == DEFAULT_POINT_COST_S

    def test_negative_or_missing_elapsed_ignored(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.store(self.POINT, {"value": 0}, elapsed_s=-5.0)
        model = CostModel.from_cache(store)
        assert model.predict(self.POINT) == DEFAULT_POINT_COST_S


class TestPlanDispatch:
    @staticmethod
    def _task(exp, index, cost):
        point = SweepPoint(index=index, label=f"p{exp}.{index}", fn=_calc, kwargs={"value": index})
        return _Task(exp=exp, point=point, cost=cost)

    def test_expensive_points_dispatch_first_as_singletons(self):
        tasks = [self._task(0, 0, 1.0), self._task(0, 1, 5.0), self._task(1, 0, 3.0)]
        units = plan_dispatch(tasks, batch_cost_s=0.25)
        assert [[t.cost for t in unit] for unit in units] == [[5.0], [3.0], [1.0]]

    def test_cheap_points_batch_up_to_max(self):
        tasks = [self._task(0, i, 0.01) for i in range(10)]
        units = plan_dispatch(tasks, batch_cost_s=0.25, batch_max=4)
        assert [len(unit) for unit in units] == [4, 4, 2]

    def test_batch_max_one_disables_batching(self):
        tasks = [self._task(0, i, 0.01) for i in range(3)]
        units = plan_dispatch(tasks, batch_cost_s=0.25, batch_max=1)
        assert [len(unit) for unit in units] == [1, 1, 1]

    def test_plan_is_deterministic_under_ties(self):
        tasks = [self._task(exp, i, 2.0) for exp in range(2) for i in range(3)]
        first = plan_dispatch(tasks)
        second = plan_dispatch(list(reversed(tasks)))
        key = lambda units: [[(t.exp, t.point.index) for t in u] for u in units]
        assert key(first) == key(second)
        # Cost ties break on declaration order: exp ordinal, then index.
        assert key(first)[0] == [(0, 0)]


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

    def test_matches_serial_with_shared_pool(self, tmp_path):
        serial = run_suite_serial([ALPHA, BETA], cache=False)
        with WorkerPool(1) as pool:
            cold = run_suite([ALPHA, BETA], pool=pool, cache=tmp_path / "cache")
            warm = run_suite([ALPHA, BETA], pool=pool, cache=tmp_path / "cache")
        assert _canonical(cold.results) == _canonical(serial)
        assert _canonical(warm.results) == _canonical(serial)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.points_total

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
        assert "stolen_idle_s" in report and "batches" in report
        assert report["tier_hits"] == {"by_fn": 0, "default": 5}
        assert session.registry.counter("suite.points_done").value == 5
        assert session.registry.counter("cache.misses").value == 5
        assert session.registry.counter("cache.hits").value == 0
        assert not (cache_dir / "suite.jsonl").exists()
        [record] = [r for r in ResultCache(cache_dir).read_journal() if "sweep" in r]
        assert record["sweep"] == "suite"
        assert (record["hits"], record["misses"], record["writes"]) == (0, 5, 5)
        assert record["points_total"] == 5
        assert record["tier_hits"] == report["tier_hits"]
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


class TestLazyCostModel:
    """``run_suite`` builds its cost model when the first point misses."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The models ``CostModel.from_cache`` builds during one test,
        with a tally of ``ResultCache.entries`` scans."""

        class _Built(list):
            scans = 0

        models = _Built()
        real_from_cache = CostModel.from_cache.__func__
        real_entries = ResultCache.entries

        def from_cache(cls, *args, **kwargs):
            models.append(real_from_cache(cls, *args, **kwargs))
            return models[-1]

        def entries(self):
            models.scans += 1
            return real_entries(self)

        monkeypatch.setattr(CostModel, "from_cache", classmethod(from_cache))
        monkeypatch.setattr(ResultCache, "entries", entries)
        return models

    def test_fully_warm_suite_builds_no_model_and_scans_no_entries(self, tmp_path, built):
        run_suite([ALPHA, BETA], jobs=1, cache=tmp_path / "cache")
        assert len(built) == 1
        del built[:]
        built.scans = 0
        warm = run_suite([ALPHA, BETA], jobs=1, cache=tmp_path / "cache")
        assert warm.cache_hits == warm.points_total == 8
        assert built == [] and built.scans == 0

    def test_one_miss_builds_the_model_once(self, tmp_path, built):
        store = ResultCache(tmp_path / "cache")
        run_suite([ALPHA, BETA], jobs=1, cache=store)
        os.unlink(store.entries()[0]["path"])
        del built[:]
        built.scans = 0
        suite = run_suite([ALPHA, BETA], jobs=1, cache=store)
        assert suite.cache_hits == suite.points_total - 1
        assert len(built) == 1 and built.scans == 0
        assert sum(built[0].tier_hits.values()) == 1
        assert suite.tier_hits == built[0].tier_hits

    def test_supplied_model_is_used_as_is(self, tmp_path, built):
        model = _SyntheticCosts([1.0])
        run_suite([ALPHA], jobs=1, cache=tmp_path / "cache", cost_model=model)
        assert built == [] and model._next == 5

    def test_same_predictions_order_and_results_as_a_model_built_up_front(self, tmp_path, built):
        """Partly warm cache, so tiers differ between points: the lazily
        built model must answer as one built before expansion did."""
        bigger = ExperimentSpec(name="alpha", module_path=ALPHA.module_path, kwargs={"n": 8, "scale": 3})
        run_suite([ALPHA], jobs=1, cache=tmp_path / "lazy")
        shutil.copytree(tmp_path / "lazy", tmp_path / "eager")
        del built[:]

        def run(cache_dir, **kwargs):
            order = []
            suite = run_suite(
                [bigger, BETA], jobs=1, cache=cache_dir, batch_max=2,
                progress=lambda event, payload: event == "point"
                and order.append((payload["experiment"], payload["label"])),
                **kwargs,
            )  # fmt: skip
            return suite, order

        lazy, lazy_order = run(tmp_path / "lazy")
        [lazy_model] = built
        eager_model = CostModel.from_cache(ResultCache(tmp_path / "eager"))
        eager, eager_order = run(tmp_path / "eager", cost_model=eager_model)

        assert lazy_model.tier_hits == eager_model.tier_hits
        assert lazy_model.tier_hits["by_fn"] == 3 and lazy_model.tier_hits["default"] == 3
        assert lazy_order == eager_order and len(lazy_order) == 6
        assert _canonical(lazy.results) == _canonical(eager.results)
        assert (lazy.cache_hits, lazy.batches) == (eager.cache_hits, eager.batches) == (5, 1)


class _SyntheticCosts(CostModel):
    """Assign drawn costs to points by expansion order (stable per run)."""

    def __init__(self, costs):
        super().__init__()
        self._costs = list(costs)
        self._next = 0

    def predict(self, point):
        cost = self._costs[self._next % len(self._costs)]
        self._next += 1
        return cost


class TestSchedulingNeverChangesResults:
    """Satellite (d): byte-identity under randomized dispatch plans."""

    REFERENCE = None

    @classmethod
    def _reference(cls):
        if cls.REFERENCE is None:
            cls.REFERENCE = _canonical(run_suite_serial([ALPHA, BETA], cache=False))
        return cls.REFERENCE

    @settings(max_examples=30, deadline=None)
    @given(
        costs=st.lists(
            st.floats(min_value=1e-4, max_value=30.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        batch_cost_s=st.floats(min_value=0.0, max_value=40.0),
        batch_max=st.integers(min_value=1, max_value=12),
    )
    def test_random_costs_and_batching_preserve_results(
        self, costs, batch_cost_s, batch_max
    ):
        suite = run_suite(
            [ALPHA, BETA],
            jobs=1,
            cache=False,
            cost_model=_SyntheticCosts(costs),
            batch_cost_s=batch_cost_s,
            batch_max=batch_max,
        )
        assert _canonical(suite.results) == self._reference()

    POOL = None

    @classmethod
    def setup_class(cls):
        cls.POOL = WorkerPool(1)

    @classmethod
    def teardown_class(cls):
        cls.POOL.close()
        cls.POOL = None

    @settings(max_examples=8, deadline=None)
    @given(batch_max=st.integers(min_value=1, max_value=12))
    def test_pool_reuse_across_examples_preserves_results(self, batch_max):
        suite = run_suite([ALPHA, BETA], pool=self.POOL, cache=False, batch_max=batch_max)
        assert _canonical(suite.results) == self._reference()

    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), warm=st.booleans())
    def test_sweep_and_suite_entry_points_agree(self, n, warm):
        """One loop behind every entry point: a sweep in-process, on a
        pool of its own, on a lent pool, and as a one-experiment suite
        merge equal results -- cold (flat default cost, declaration
        order, no batching) and over a warm journal (entries pruned, so
        every point misses with a journaled cost small enough to
        batch)."""
        from tests.harness.fake_experiments import sweep

        points = sweep(n=n, scale=3).points
        spec = ExperimentSpec("alpha", ALPHA.module_path, {"n": n, "scale": 3})
        reference = run_sweep(points, jobs=1, cache=False)
        with tempfile.TemporaryDirectory() as scratch, WorkerPool(2) as pool:

            def cache(tag):
                if not warm:
                    return False
                store = ResultCache(Path(scratch) / tag)
                run_sweep(points, cache=store)
                store.prune(max_entries=0)
                return store

            assert run_sweep(points, jobs=1, cache=cache("serial")) == reference
            assert run_sweep(points, jobs=2, cache=cache("jobs")) == reference
            assert run_sweep(points, pool=pool, cache=cache("pool")) == reference
            suite = run_suite([spec], jobs=1, cache=cache("suite"))
        assert suite.results["alpha"]["rows"] == reference
        assert suite.cache_hits == 0
        assert (suite.tier_hits["default"] == 0) == warm
        assert (suite.batches > 0) == (warm and n > 1)


class TestSingleWorkerBypass:
    """jobs<=1 must never pay pool round-trips: the lazy executor stays
    unspawned and results match the serial path exactly."""

    def test_run_sweep_never_spawns_executor(self):
        from tests.harness.fake_experiments import sweep

        pool = WorkerPool(1)
        rows = sweep(n=4).run(pool=pool, cache=False)
        assert pool._executor is None
        assert rows == sweep(n=4).run(jobs=1, cache=False)

    def test_run_suite_never_spawns_executor(self):
        pool = WorkerPool(1)
        suite = run_suite([ALPHA, BETA], pool=pool, cache=False)
        assert pool._executor is None
        serial = run_suite_serial([ALPHA, BETA], cache=False)
        assert _canonical(suite.results) == _canonical(serial)
        pool.close()

    def test_single_worker_suite_costs_nothing_over_serial(self):
        """One worker cannot win, but with the in-process bypass it must
        not lose either: cost-model planning and streaming accounting
        must not tax the degenerate case.  The floor is 0.95x widened by
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
