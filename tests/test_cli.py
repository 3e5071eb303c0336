"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness.orchestrator import EXPERIMENTS


class TestCliList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_closed_stdout_exits_without_a_traceback(self):
        """``repro list | head -1``: the reader leaves before the child
        writes, and the child exits non-zero with nothing on stderr."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr == ""


class TestCliRun:
    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig999"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_quick_table2(self, capsys):
        assert main(["run", "table2", "--quick"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_run_quick_fig15(self, capsys):
        assert main(["run", "fig15", "--quick"]) == 0
        assert "Figure 15" in capsys.readouterr().out

    def test_every_experiment_is_importable(self):
        """...and speaks the whole driver protocol: ``sweep``/``finalize``/
        ``summarize`` written by hand, ``run`` derived from the first two
        in one place -- which is what lets ``repro run`` pass
        ``--jobs``/``--cache`` without asking, and keeps ``repro run X``
        and ``repro suite -e X`` from ever disagreeing."""
        import importlib
        import inspect
        import re
        from pathlib import Path

        from repro.harness import experiments
        from repro.harness.orchestrator import run_suite, suite_experiments
        from repro.harness.parallel import derived_run

        derived_code = derived_run(None, None).__code__
        for name, (module_path, _quick_kwargs) in EXPERIMENTS.items():
            module = importlib.import_module(module_path)
            for attr in ("sweep", "finalize", "run", "summarize"):
                assert callable(getattr(module, attr, None)), (name, attr)
            assert module.run.__code__ is derived_code, name
            # jobs and cache are the only knobs run() adds.
            params = set(inspect.signature(module.run).parameters)
            assert params == {"jobs", "cache", "kwargs"}, name
            # Refused by name, before a single point is built or simulated.
            with pytest.raises(TypeError, match="no_such_kwarg"):
                module.run(no_such_kwarg=1)

        for source in Path(experiments.__file__).parent.glob("*.py"):
            hand_written = re.findall(r"^def (?:run|main)\(", source.read_text("utf-8"), re.M)
            assert not hand_written, (source.name, hand_written)

        for spec in suite_experiments(quick=True, names=["table2", "fig02"]):
            direct = spec.load().run(**spec.kwargs)
            assert run_suite([spec], jobs=1, cache=False).results[spec.name] == direct


class TestCliAliases:
    def test_module_basename_resolves(self):
        from repro.harness.orchestrator import resolve_experiment

        assert resolve_experiment("fig09") == "fig09"
        assert resolve_experiment("fig09_dynamic") == "fig09"
        assert resolve_experiment("fig06_utilization") == "fig06"
        assert resolve_experiment("no_such_thing") is None

    def test_run_accepts_module_basename(self, capsys):
        assert main(["run", "table2_comparison", "--quick"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestCliObservability:
    def test_run_with_trace_writes_journal(self, tmp_path, capsys):
        from repro.obs.trace import read_jsonl

        path = str(tmp_path / "out.jsonl")
        assert main(["run", "fig02", "--quick", "--trace", path]) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out
        assert "trace journal" in captured.err
        events = read_jsonl(path)
        assert events
        kinds = {event["ev"] for event in events}
        assert not [kind for kind in kinds if kind.startswith("io_")]

    def test_run_with_stats_prints_report(self, capsys):
        assert main(["run", "fig15", "--quick", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out
        assert "kernel probe" in out

    def test_run_with_stats_prints_the_stage_waterfall(self, capsys):
        """Each client's per-op stages, in flow order, then its e2e."""
        from repro.fabric.initiator import STAGES

        assert main(["run", "fig09", "--quick", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "  [client]" in out
        prefix = "client-rd0.read."
        keys = [
            line.split()[0][len(prefix):]
            for line in out.splitlines()
            if line.strip().startswith(prefix)
        ]
        means = [key for key in keys if key.endswith(".mean_us")]
        assert means == [f"{stage}.mean_us" for stage in STAGES] + ["e2e.mean_us"]
        assert keys.index("count") < keys.index("e2e.mean_us")

    def test_no_session_left_behind(self, tmp_path):
        from repro.obs.session import current_session

        path = str(tmp_path / "out.jsonl")
        main(["run", "fig15", "--quick", "--trace", path])
        assert current_session() is None


class TestCliCache:
    def test_run_with_cache_warm_restart(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr()
        assert "misses" in cold.err
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr()
        # Warm restart: all hits, and the printed figure is unchanged.
        assert "0 misses" in warm.err
        assert warm.out == cold.out

    def test_no_cache_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["run", "fig02", "--quick", "--no-cache"]) == 0
        assert not (tmp_path / "envcache").exists()

    def test_profile_never_profiles_a_cache_hit(self, tmp_path, capsys, monkeypatch):
        """The documented profile, ``python -m cProfile -s cumulative -m
        repro run fig15 --quick --no-cache``, under an ambient
        ``REPRO_CACHE=1``: the second run must simulate as much as the
        first, not look its points up.  Each profile starts without the
        process's conditioned-device snapshots, so neither reuses work
        the other paid for, whatever ran earlier in this process."""
        import cProfile
        import pstats

        from repro.ssd.conditioning import clear_conditioning_cache

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        calls = []
        for _ in range(2):
            clear_conditioning_cache()
            profiler = cProfile.Profile()
            assert profiler.runcall(main, ["run", "fig15", "--quick", "--no-cache"]) == 0
            calls.append(pstats.Stats(profiler).total_calls)
        assert "Figure 15" in capsys.readouterr().out
        assert calls[1] > 0.9 * calls[0], calls
        assert not (tmp_path / "envcache").exists()

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert stats["total_bytes"] > 0
        assert stats["runs"][-1]["sweep"] == "fig02"
        assert "point_records" not in stats

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_suite_run_is_listed_by_cache_stats(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main(["suite", "--quick", "--quiet", "-e", "table2", "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0  # fmt: skip
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        [run] = json.loads(capsys.readouterr().out)["runs"]
        assert run["sweep"] == "suite" and run["misses"] == run["points_total"] > 0
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "last 1 runs:\n  suite" in capsys.readouterr().out

    def test_cache_prune_respects_entry_budget(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache_dir, "--max-entries", "2"]) == 0
        assert "pruned" in capsys.readouterr().out
        import json

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 2

    def test_cache_flags_honour_repro_cache_dir(self, tmp_path, capsys, monkeypatch):
        """``--cache`` without ``--cache-dir`` uses the directory that
        ``REPRO_CACHE=1`` uses:
        ``REPRO_CACHE_DIR``, else ``.repro-cache``.  ``run``, ``suite``
        and ``cache`` used to ignore the variable."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", "envcache")
        assert main(["run", "table2", "--quick", "--cache"]) == 0
        assert "(envcache)" in capsys.readouterr().err
        assert main(["suite", "--quick", "--quiet", "-e", "table2", "--jobs", "1", "--cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache_dir"] == "envcache" and stats["entries"] == 1
        assert [run["sweep"] for run in stats["runs"]] == ["table2", "suite"]
        assert main(["cache", "stats", "--cache-dir", "other", "--json"]) == 0  # the flag wins
        assert json.loads(capsys.readouterr().out)["cache_dir"] == "other"
        assert main(["cache", "clear"]) == 0
        assert capsys.readouterr().out == "cleared 1 entries from envcache\n"
        assert not (tmp_path / ".repro-cache").exists()

    def test_single_point_driver_caches_too(self, capsys, tmp_path):
        # Since the declarative-sweep port every driver has a sweep --
        # even table2's property matrix, which is one cached point.
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--quick", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "does not support --cache" not in captured.err
        assert "Table 2" in captured.out
        import json

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1


CALIBRATE_60MS = [
    'Device anchors (dct983 profile)',
    'workload                   MB/s   KIOPS  avg latency us  WA  ',
    '-------------------------  -----  -----  --------------  ----',
    '4K rand read QD128         1625   416    307             1.00',
    '4K rand read QD1           50.78  13.00  76.90           1.00',
    '128K rand read QD8         3285   26.28  304             1.00',
    '128K seq write QD4         1144   9.15   436             1.00',
    '4K rand write QD32 (frag)  242    61.92  516             4.02',
]


class TestCliCalibrate:
    def test_calibrate_prints_anchors(self, capsys):
        # The whole table, pinned: every anchor is a deterministic
        # closed loop on a freshly conditioned device.
        assert main(["calibrate", "--duration-ms", "60"]) == 0
        assert capsys.readouterr().out.splitlines() == CALIBRATE_60MS

    def test_non_positive_duration_rejected(self, capsys):
        # Used to die in closed_loop with a ZeroDivisionError traceback.
        for duration in ("0", "-5"):
            assert main(["calibrate", "--duration-ms", duration]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"--duration-ms must be > 0, got {duration}\n"

    def test_infinite_duration_rejected(self, capsys, monkeypatch):
        # The closed loops used to run to simulated time inf, i.e. forever.
        from repro.sim.engine import Simulator

        def refuse(*_args, **_kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(Simulator, "run", refuse)
        assert main(["calibrate", "--duration-ms", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--duration-ms must be finite, got inf\n"


class TestCliSimulate:
    def test_simulate_prints_tenants(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scheme",
                    "vanilla",
                    "--readers",
                    "1",
                    "--writers",
                    "1",
                    "--seconds",
                    "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reader0" in out
        assert "writer0" in out

    def test_parser_rejects_bad_io_size(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--io-kb", "7"])

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
    def test_non_positive_seconds_rejected(self, capsys, seconds):
        # Used to print an all-zero table and exit 0.
        assert main(["simulate", "--seconds", seconds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--seconds must be > 0, got {seconds}\n"

    def test_infinite_seconds_rejected(self, capsys, monkeypatch):
        # The closed loops used to run to simulated time inf, i.e. forever.
        from repro.harness.testbed import Testbed
        from repro.sim.engine import Simulator

        def refuse(*_args, **_kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(Testbed, "run", refuse)
        monkeypatch.setattr(Simulator, "run", refuse)
        assert main(["simulate", "--seconds", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--seconds must be finite, got inf\n"

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_queue_depth_below_one_rejected(self, capsys, depth):
        # Used to die inside FioSpec with a traceback.
        assert main(["simulate", "--queue-depth", depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--queue-depth must be >= 1, got {depth}\n"

    @pytest.mark.parametrize("flag", ["--readers", "--writers"])
    def test_negative_worker_count_rejected(self, capsys, flag):
        # Used to run the other flag's workers, or print an empty table
        # titled "-3R+0W", and exit 0.
        assert main(["simulate", flag, "-3", "--seconds", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flag} must be >= 0, got -3\n"

    def test_empty_mix_rejected(self, capsys):
        assert main(["simulate", "--readers", "0", "--writers", "0", "--seconds", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--readers and --writers are both 0: nothing to simulate\n"

    @pytest.mark.parametrize("flag", ["--scheme", "--condition"])
    def test_unknown_scheme_or_condition_rejected_by_the_parser(self, capsys, flag):
        # Used to die with a TestbedConfig traceback.
        with pytest.raises(SystemExit) as raised:
            main(["simulate", flag, "bogus"])
        assert raised.value.code == 2
        assert f"{flag}: invalid choice: 'bogus'" in capsys.readouterr().err


class TestCliJobs:
    """A worker count below what the command accepts, or one its other
    flags cannot work with, is refused with one line before anything
    runs -- as is a ``suite --json`` path that cannot be written.
    ``run --jobs -3`` used to run and journal -3 workers; ``suite -j
    -4`` silently ran on every core."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_needs_at_least_one_worker(self, capsys, tmp_path, jobs):
        cache_dir = tmp_path / "cache"
        argv = ["run", "table2", "--quick", "--jobs", jobs, "--cache-dir", str(cache_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--jobs must be >= 1, got {jobs}\n"
        assert not cache_dir.exists()

    @pytest.mark.parametrize("flag", ["--trace", "--stats"])
    def test_trace_and_stats_need_one_worker(self, capsys, tmp_path, flag):
        """The obs session lives in this process; with ``--jobs 2`` the
        points simulated in worker processes and the session reported
        nothing (``events_fired 0``, an empty trace journal)."""
        trace = tmp_path / "out.jsonl"
        argv = ["run", "table2", "--quick", "--jobs", "2", flag]
        assert main(argv + ([str(trace)] if flag == "--trace" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--trace and --stats need --jobs 1\n"
        assert not trace.exists()

    def test_suite_refuses_an_unwritable_json_path(self, capsys, tmp_path, monkeypatch):
        """Checked before the suite runs, not after it (which ended in a
        ``FileNotFoundError`` traceback)."""
        import repro.harness.orchestrator as orchestrator

        def refuse(*_args, **_kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(orchestrator, "run_suite", refuse)
        path = tmp_path / "missing" / "out.json"
        assert main(["suite", "--quick", "-e", "table2", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot open suite results {str(path)!r}: ")

    def test_suite_refuses_a_negative_count(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["suite", "--quick", "-e", "table2", "-j", "-4", "--cache-dir", str(cache_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--jobs must be >= 0 (0 = every core), got -4\n"
        assert not cache_dir.exists()


class TestCliCacheJournal:
    def test_negative_limits_rejected(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--quick", "--cache-dir", cache_dir]) == 0
        journal = (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8")
        capsys.readouterr()
        for argv, message in (
            (["prune", "--max-mb", "-1"], "--max-mb must be >= 0, got -1.0"),
            (["prune", "--max-entries", "-1"], "--max-entries must be >= 0, got -1"),
            # ``nan`` ended in a ValueError traceback, ``inf`` in an OverflowError.
            (["prune", "--max-mb", "nan"], "--max-mb must be finite, got nan"),
            (["prune", "--max-mb", "inf"], "--max-mb must be finite, got inf"),
        ):
            assert main(["cache", *argv, "--cache-dir", cache_dir]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == message + "\n"
        assert (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8") == journal

    def test_undecodable_journal_line_is_skipped_by_stats(self, tmp_path, capsys):
        # A line that is not UTF-8 made ``cache stats`` exit 1 with a traceback.
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--quick", "--cache-dir", cache_dir]) == 0
        with open(tmp_path / "cache" / "journal.jsonl", "ab") as handle:
            handle.write(b"\xe2\x82\n")
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        [run] = json.loads(capsys.readouterr().out)["runs"]
        assert run["sweep"] == "table2"
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "last 1 runs:\n  table2" in capsys.readouterr().out
