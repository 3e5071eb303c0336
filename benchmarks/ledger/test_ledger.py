"""Self-tests of the perf ledger.

Run explicitly (they spawn real workers and take a few minutes)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

They are outside tier-1's ``testpaths`` on purpose: tier-1 judges the
program, these judge the judge.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import compare, metrics, profile_fold, run
from benchmarks.ledger.workloads import WORKLOADS, component_counts

SEED = 42
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END_NAMES = [name for name, *_ in metrics.END_TO_END]
PER_LAYER_NAMES = [name for name, *_ in metrics.PER_LAYER]


@pytest.fixture(scope="module")
def untraced():
    """One short untraced record per workload (one repetition each)."""
    return {name: run.measure(name, SEED, seconds=1.0) for name in run.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced():
    """One traced record per workload."""
    return {name: run.trace(name, SEED, seconds=1.0) for name in run.WORKLOAD_NAMES}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_generated_from_the_declarations():
    declared = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == metrics.benchmark_json(WORKLOADS, run.DEFAULT_SECONDS)


def test_benchmark_json_meets_the_contract_caps():
    declared = metrics.benchmark_json(WORKLOADS, run.DEFAULT_SECONDS)
    assert len(declared["workloads"]) == 4
    assert len(declared["end_to_end"]) == 7 <= 16
    assert len(declared["per_layer"]) == 92 <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declared[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(len(entry["why"]) <= 200 for entry in declared["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    setup = next(e for e in declared["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    assert (4 + 22 * 4) * (declared["run_seconds"] + 15) <= 3420


# ----------------------------------------------------------------------
# Untraced records
# ----------------------------------------------------------------------
def test_every_end_to_end_metric_is_emitted_on_every_workload(untraced):
    for name, record in untraced.items():
        for metric in END_TO_END_NAMES + ["failed_share", "sim_drift"]:
            assert record["metrics"][metric]["unit"] == metrics.UNITS[metric], (name, metric)
        for metric in END_TO_END_NAMES:
            assert record["metrics"][metric]["value"] > 0, (name, metric)


def test_seed_42_is_clean_and_matches_the_frozen_digests(untraced):
    for name, record in untraced.items():
        assert record["failed"] == 0 and record["correct"], record["violations"]
        assert record["metrics"]["failed_share"]["value"] == 0
        assert record["metrics"]["sim_drift"]["value"] == 0, name


def test_fio_read_reproduces_the_legacy_baseline(untraced):
    legacy = json.loads(
        (run.REPO_ROOT / "benchmarks" / "perf" / "BASELINE_E2E.json").read_text(encoding="utf-8")
    )
    assert round(untraced["fio-read"]["metrics"]["sim_ops_per_s"]["value"]) == (
        legacy["fio_replay"]["simulated_iops"]
    )


def test_p99_is_reported_only_over_enough_samples(untraced):
    for name in ("fio-read", "mt-mixed", "kv-rack"):
        assert untraced[name]["metrics"]["sim_read_tail_us"]["n"] >= 1000, name


def test_a_second_seed_runs_clean_without_a_digest():
    payload = run.spawn("kv-rack", 7)
    assert payload["check"]["failed"] == 0
    assert run.sim_drift("kv-rack", 7, payload["result"]) is None


def test_a_tampered_digest_shows_as_drift(untraced, tmp_path, monkeypatch):
    frozen = json.loads(run.expected_path("fio-read", SEED).read_text(encoding="utf-8"))
    key = next(iter(frozen["leaves"]))
    frozen["leaves"][key] += 1.0
    (tmp_path / f"fio-read.seed{SEED}.json").write_text(json.dumps(frozen), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED_DIR", tmp_path)
    assert run.sim_drift("fio-read", SEED, untraced["fio-read"]["result"]) == 1


def test_a_broken_conservation_law_fails_the_run(tmp_path, monkeypatch, capsys):
    honest = run.spawn("fio-read", SEED)

    def leaky(workload, seed, mode="timed", **_):
        if mode == "aux":
            return {"anchor_mbps": 1600.0}
        payload = copy.deepcopy(honest)
        payload["check"]["failed"] = 3
        payload["check"]["violations"] = ["w0: issued 10 != completed 6 + in flight 1"]
        return payload

    monkeypatch.setattr(run, "spawn", leaky)
    code = run.main(["--workload", "fio-read", "--seconds", "1", "--out", str(tmp_path)])
    assert code != 0
    record = json.loads((tmp_path / "fio-read.json").read_text(encoding="utf-8"))
    assert record["metrics"]["failed_share"]["value"] > 0 and not record["correct"]
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["failed"] == 3 and last["correct"] is False
    assert set(last["metrics"]) == set(END_TO_END_NAMES)


def test_the_check_itself_sees_a_lost_io():
    workload = WORKLOADS["mt-mixed"]
    testbed = workload.build(SEED, Path("."))
    result = testbed.run(warmup_us=500.0, measure_us=500.0)
    assert workload.check(testbed, result)["failed"] == 0
    next(iter(testbed.initiators.values())).sessions[0].submitted += 2
    assert workload.check(testbed, result)["failed"] == 2


# ----------------------------------------------------------------------
# Traced records
# ----------------------------------------------------------------------
def test_every_per_layer_metric_is_emitted_on_every_workload(traced):
    for name, record in traced.items():
        assert list(record["metrics"]) == PER_LAYER_NAMES, name
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == metrics.UNITS[metric]
            assert isinstance(entry["value"], (int, float)), (name, metric)
        assert record["failed"] == 0, record["violations"]


def test_profile_shares_sum_to_one(traced):
    for name, record in traced.items():
        for phase, fold in record["spans"].items():
            attributed = sum(row["self_s"] for row in fold["modules"].values())
            assert attributed + fold["unattributed_s"] == pytest.approx(fold["total_s"], rel=0.01)
            if phase != "build":
                assert fold["unattributed_s"] <= 0.02 * fold["total_s"], (name, phase)
        values = record["metrics"]
        packages = sum(values[f"{package}.host_cu"]["value"] for package in metrics.PACKAGES)
        assert packages == pytest.approx(record["info"]["reference_norm_wall"], rel=0.02)


def _share(record, package):
    return (
        record["metrics"][f"{package}.host_cu"]["value"] / record["info"]["reference_norm_wall"]
    )


def test_the_workloads_discriminate_layers(traced):
    value = {
        name: {metric: entry["value"] for metric, entry in record["metrics"].items()}
        for name, record in traced.items()
    }
    # The predictions of no change.
    assert value["fio-read"]["core.calls"] == 0
    for name in ("fio-read", "mt-mixed", "suite-replay"):
        assert value[name]["kv.calls"] == 0
        assert value[name]["sim.shard.host_cu"] == 0
    assert value["kv-rack"]["kv.calls"] > 0 and value["kv-rack"]["sim.shard.host_cu"] > 0
    for name in ("fio-read", "mt-mixed", "kv-rack"):
        assert _share(traced[name], "harness") < 0.01
    # Where the time goes.
    assert _share(traced["mt-mixed"], "core") >= 0.30
    assert _share(traced["fio-read"], "sim") + _share(traced["fio-read"], "fabric") >= 0.50
    warm = traced["suite-replay"]["spans"]["warm"]
    assert profile_fold.total(warm, "harness") >= 0.90 * warm["total_s"]
    cold = traced["suite-replay"]["spans"]["cold"]
    assert profile_fold.total(cold, "ssd") == max(
        profile_fold.total(cold, package) for package in metrics.PACKAGES
    )
    assert profile_fold.total(cold, "ssd.conditioning", "inclusive_s") >= 0.30 * cold["total_s"]
    for name in run.WORKLOAD_NAMES:
        assert value[name]["obs.profile_overhead_ratio"] > 1.0


def test_count_rows_repeat_exactly(traced):
    again = run.spawn("mt-mixed", SEED, mode="counters")["counts"]
    first = traced["mt-mixed"]["metrics"]
    assert all(first[name]["value"] == value for name, value in again.items())


def test_slicing_changes_neither_results_nor_counts():
    from repro import obs
    from repro.harness.testbed import Testbed

    workload = WORKLOADS["mt-mixed"]
    with obs.capture() as session:
        testbed = workload.build(SEED, Path("."))
        sliced = workload.run(testbed, lambda fn, phase="run": fn())
        sliced_counts = component_counts(session)
        del testbed
    with obs.capture() as session:
        testbed = workload.build(SEED, Path("."))
        whole = Testbed.run(testbed, workload.warmup_us, workload.measure_us)
        whole_counts = component_counts(session)
    sliced.pop("pooled_read_latency")
    assert sliced == whole
    assert sliced_counts == whole_counts


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_accepts_a_record_against_itself_and_flags_a_regression(untraced):
    record = untraced["fio-read"]
    same = {("fio-read", False): record}
    assert {row[5] for row in compare.rows(same, same)} == {"ok"}
    slower = copy.deepcopy(record)
    slower["metrics"]["norm_wall"]["value"] *= 1.2
    slower["metrics"]["norm_wall"]["samples"] = [
        sample * 1.2 for sample in record["metrics"]["norm_wall"]["samples"]
    ]
    slower["metrics"]["sim_ops_per_s"]["value"] -= 1
    verdicts = {
        row[1]: row[5] for row in compare.rows(same, {("fio-read", False): slower})
    }
    assert verdicts["norm_wall"] == "worse"
    assert verdicts["sim_ops_per_s"] == "worse"
    assert verdicts["peak_rss_mb"] == "ok"
