"""Every frozen record matches its producer, and the tool that keeps them.

``test_record_matches_frozen`` runs each producer of
:data:`tests.golden.records.RECORDS` and compares its value with
``tests/golden/data/<name>.json``.  The other tests pin the comparison's
strictness and the ``--write`` / ``--diff`` command on hand-built
records under ``tmp_path``; none of them rewrites the frozen data.
"""

from __future__ import annotations

import json
import math

import pytest

from tests.golden import records
from tests.golden.records import FIGURE_RTOL, RECORDS, Record, diff, flatten, frozen, live


def _failures(frozen_value, live_value, rtol):
    return [line for fails, line in diff(frozen_value, live_value, rtol) if fails]


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_matches_frozen(name):
    failures = _failures(frozen(name), live(name), RECORDS[name].rtol)
    assert not failures, f"{name} moved:\n" + "\n".join(failures)


def _moved(value, path, leaf):
    """A copy of ``value`` with the leaf at ``path`` replaced."""
    copy = json.loads(json.dumps(value))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = leaf
    return copy


def test_the_figures_take_two_percent_and_every_other_record_is_exact():
    figures = {"fig02", "fig07", "table1", "fig13", "fig14", "fig15"}
    assert FIGURE_RTOL == 0.02
    assert {name: record.rtol for name, record in RECORDS.items()} == {
        name: FIGURE_RTOL if name in figures else 0.0 for name in RECORDS
    }


@pytest.mark.parametrize("name", list(RECORDS))
def test_a_leaf_moved_past_the_tolerance_fails(name):
    """In an exact record, every float moved by one ulp fails; in a
    figure record, every float moved by 1 % passes and by 3 % fails; in
    both, every int moved by one unit fails."""
    value, rtol = frozen(name), RECORDS[name].rtol
    leaves = [(path, leaf) for path, leaf in flatten(value).items() if type(leaf) in (int, float)]
    assert leaves, f"{name} has no numeric leaf to move"
    for path, leaf in leaves:
        if type(leaf) is int:
            assert _failures(value, _moved(value, path, leaf + 1), rtol), path
        elif not rtol:
            assert _failures(value, _moved(value, path, math.nextafter(leaf, math.inf)), rtol), path
        elif leaf:
            assert not _failures(value, _moved(value, path, leaf * 1.01), rtol), path
            assert _failures(value, _moved(value, path, leaf * 1.03), rtol), path


def test_paths_and_leaf_types_must_agree():
    frozen_value = {"a": {"b": [1, 2.0]}, "c": {}, "d": None}
    assert not diff(frozen_value, frozen_value)
    for live_value in (
        {"a": {"b": [1, 2.0]}, "c": {}},
        {"a": {"b": [1, 2.0, 3]}, "c": {}, "d": None},
        {"a": {"b": [1.0, 2.0]}, "c": {}, "d": None},
        {"a": {"b": [True, 2.0]}, "c": {}, "d": None},
        {"a": {"b": [1, 2.0]}, "c": [], "d": None},
    ):
        assert _failures(frozen_value, live_value, 0.5), live_value


@pytest.fixture
def hand_built(monkeypatch, tmp_path):
    """Three hand-built records frozen under ``tmp_path``; returns the
    list the producers append their names to when they run."""
    ran = []
    old = {
        "alpha": {"p99": 100.0, "count": 10, "mean": 50.0, "digest": "aa", "gone": 1},
        "beta": {"rows": [1.0, 2.0]},
        "gamma": {"digest": "cc"},
    }
    new = {
        "alpha": {"p99": 101.0, "count": 13, "mean": 40.0, "digest": "bb", "born": 2.5},
        "beta": {"rows": [1.0, 2.02]},
        "gamma": {"digest": "cc"},
    }

    def producer(name):
        return lambda: ran.append(name) or new[name]

    monkeypatch.setattr(records, "DATA_DIR", tmp_path)
    monkeypatch.setattr(records, "RECORDS", {name: Record(producer(name), 0.02) for name in new})
    for name, value in old.items():
        (tmp_path / f"{name}.json").write_text(records.serialise(value), encoding="utf-8")
    return ran


def test_diff_lists_moved_leaves_by_relative_change_then_strings_and_paths(hand_built, capsys):
    assert records.main(["--diff"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "alpha: 6 leaves differ, fails its comparison (rtol 0.02)",
        "!  +30.0000%  count: 10 -> 13",
        "!  -20.0000%  mean: 50.0 -> 40.0",
        "    +1.0000%  p99: 100.0 -> 101.0",
        "!    changed  digest: 'aa' -> 'bb'",
        "!      added  born = 2.5",
        "!    removed  gone = 1",
        "beta: 1 leaves differ, within its tolerance (rtol 0.02)",
        "    +1.0000%  rows[1]: 2.0 -> 2.02",
        "gamma: unchanged",
    ]
    assert hand_built == ["alpha", "beta", "gamma"]


def test_diff_exits_zero_when_every_record_is_within_its_tolerance(hand_built, capsys):
    assert records.main(["--diff", "beta", "gamma"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "gamma: unchanged"


def test_write_refreezes_only_the_named_records(hand_built, tmp_path):
    beta_before = (tmp_path / "beta.json").read_bytes()
    assert records.main(["--write", "alpha"]) == 0
    assert hand_built == ["alpha"]
    written = (tmp_path / "alpha.json").read_text(encoding="utf-8")
    assert written == records.serialise(json.loads(written))
    assert json.loads(written)["digest"] == "bb"
    assert (tmp_path / "beta.json").read_bytes() == beta_before


def test_write_refuses_an_unknown_name_and_writes_nothing(hand_built, tmp_path):
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as refused:
        records.main(["--write", "alpha", "no_such_record"])
    assert refused.value.code != 0
    assert hand_built == []
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
