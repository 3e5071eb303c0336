"""The claim rule of ``tools/ledger_pairs.py`` (the ledger README's)."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ledger_pairs", Path(__file__).resolve().parents[1] / "tools" / "ledger_pairs.py"
)
ledger_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger_pairs)

PARENT = [30.6, 30.0, 31.4, 30.2, 30.9, 29.9, 31.0, 30.5, 30.4, 30.7]


def test_clear_gain_is_claimed():
    verdict = ledger_pairs.judge(PARENT, [value - 4.0 for value in PARENT])
    assert verdict["wins"] == 10 and verdict["claimed"]
    assert verdict["gain_pct"] == pytest.approx(100.0 * 4.0 / verdict["parent_median"])
    assert verdict["parent_q1"] < verdict["parent_median"] < verdict["parent_q3"]


def test_nine_of_ten_is_enough_eight_is_not():
    change = [value - 4.0 for value in PARENT]
    change[0] = PARENT[0] + 1.0
    assert ledger_pairs.judge(PARENT, change)["claimed"]
    change[1] = PARENT[1] + 1.0
    assert not ledger_pairs.judge(PARENT, change)["claimed"]


def test_a_tie_counts_for_neither_side():
    change = [value - 4.0 for value in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    verdict = ledger_pairs.judge(PARENT, change)
    assert verdict["wins"] == 8 and not verdict["claimed"]


def test_medians_inside_the_parents_quartile_spread_are_no_claim():
    verdict = ledger_pairs.judge(PARENT, [value - 0.1 for value in PARENT])
    assert verdict["wins"] == 10 and not verdict["claimed"]


def test_fewer_than_ten_pairs_cannot_claim():
    assert not ledger_pairs.judge(PARENT[:9], [value - 4.0 for value in PARENT[:9]])["claimed"]
    with pytest.raises(ValueError):
        ledger_pairs.judge(PARENT, PARENT[:9])


def test_bounds_are_read_from_the_contract_and_applied_by_direction():
    bounds = ledger_pairs.read_bounds(Path(__file__).resolve().parents[1])
    assert {"setup_s", "peak_rss_mb", "norm_wall"} <= set(bounds)
    rss = bounds["peak_rss_mb"]  # lower is better, 10 %
    assert not ledger_pairs.over_bound(100.0, 110.0, rss)
    assert ledger_pairs.over_bound(100.0, 110.1, rss)
    assert not ledger_pairs.over_bound(100.0, 50.0, rss)
    ops = bounds["sim_ops_per_s"]  # higher is better, 10 %
    assert ledger_pairs.over_bound(100.0, 89.0, ops)
    assert not ledger_pairs.over_bound(100.0, 150.0, ops)


def test_setup_s_is_judged_like_norm_wall():
    """A set-up-time claim gets the same verdict (wins, parent quartiles,
    claimed or not) as a norm_wall one, beside the bound checks."""
    bounds = ledger_pairs.read_bounds(Path(__file__).resolve().parents[1])
    setup = [value / 500.0 for value in PARENT]
    readings = {
        ("norm_wall", "parent"): PARENT,
        ("norm_wall", "change"): [value - 0.1 for value in PARENT],
        ("setup_s", "parent"): setup,
        ("setup_s", "change"): [value / 4.0 for value in setup],
        ("peak_rss_mb", "parent"): PARENT,
        ("peak_rss_mb", "change"): PARENT,
    }
    lines = ledger_pairs.report("fio-read", 42, readings, bounds)
    judged = {line.split()[1]: line for line in lines if " seed 42: " in line}
    assert set(judged) == {"norm_wall", "setup_s", "peak_rss_mb"}
    assert judged["norm_wall"].endswith("10/10 wins: no claim")
    assert judged["setup_s"].endswith("+75.0 % gain, 10/10 wins: gain claimed")
    assert "quartiles" in judged["setup_s"] and " s, " in judged["setup_s"]
    bounded = [line for line in lines if "bound (" in line]
    assert [line.split()[1].rstrip(":") for line in bounded] == ["setup_s", "peak_rss_mb"]
    assert all("within bound" in line for line in bounded)


def test_peak_rss_mb_is_judged_like_norm_wall():
    """A memory claim gets the claim rule's verdict too, and keeps its
    bound check."""
    bounds = ledger_pairs.read_bounds(Path(__file__).resolve().parents[1])
    rss = [value + 20.0 for value in PARENT]
    readings = {
        ("norm_wall", "parent"): PARENT,
        ("norm_wall", "change"): PARENT,
        ("setup_s", "parent"): PARENT,
        ("setup_s", "change"): PARENT,
        ("peak_rss_mb", "parent"): rss,
        ("peak_rss_mb", "change"): [value - 17.0 for value in rss],
    }
    lines = ledger_pairs.report("suite-replay", 42, readings, bounds)
    (judged,) = [line for line in lines if line.startswith("suite-replay peak_rss_mb seed 42: ")]
    assert judged.endswith("10/10 wins: gain claimed")
    assert "quartiles" in judged and " MiB, " in judged
    (bounded,) = [line for line in lines if line.startswith("suite-replay peak_rss_mb: ")]
    assert "within bound" in bounded
    readings["peak_rss_mb", "change"] = [value * 1.2 for value in rss]
    lines = ledger_pairs.report("suite-replay", 42, readings, bounds)
    (judged,) = [line for line in lines if line.startswith("suite-replay peak_rss_mb seed 42: ")]
    (bounded,) = [line for line in lines if line.startswith("suite-replay peak_rss_mb: ")]
    assert judged.endswith("0/10 wins: no claim") and "OVER bound" in bounded


def test_each_workload_gets_its_own_run_py(monkeypatch, tmp_path):
    """A worker's ru_maxrss starts at run.py's high-water mark, so two
    workloads in one run.py would floor the second one's peak_rss_mb:
    every run.py invocation carries exactly one --workload."""
    issued = []

    def fake_run(command, cwd, **_):
        issued.append((Path(cwd).name, command))
        out = Path(command[command.index("--out") + 1])
        workload = command[command.index("--workload") + 1]
        metrics = {
            name: {"value": 1.0}
            for name in ledger_pairs.JUDGED + ledger_pairs.BOUNDED + ledger_pairs.EXACT
        }
        (out / f"{workload}.json").write_text(json.dumps({"metrics": metrics}))
        return subprocess.CompletedProcess(command, 0, "", "")

    monkeypatch.setattr(ledger_pairs.subprocess, "run", fake_run)
    repo = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCHMARK.json").write_text((repo / "BENCHMARK.json").read_text())
    argv = [str(repo), str(tmp_path), "--workload", "fio-read", "--workload", "mt-mixed"]
    assert ledger_pairs.main(argv + ["--pairs", "2", "--seed", "7"]) == 0
    parent, change = repo.name, tmp_path.name
    assert [(tree, command[command.index("--workload") + 1]) for tree, command in issued] == [
        (parent, "fio-read"), (parent, "mt-mixed"), (change, "fio-read"), (change, "mt-mixed"),
        (change, "fio-read"), (change, "mt-mixed"), (parent, "fio-read"), (parent, "mt-mixed"),
    ]
    for _, command in issued:
        assert command.count("--workload") == 1
        assert command[command.index("--seed") + 1] == "7"
