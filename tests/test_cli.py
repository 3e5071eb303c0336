"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestCliList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


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
        from repro.harness.orchestrator import run_suite, run_suite_serial, suite_experiments
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
            assert run_suite_serial([spec], cache=False)[spec.name] == direct


class TestCliAliases:
    def test_module_basename_resolves(self):
        from repro.cli import _resolve_experiment

        assert _resolve_experiment("fig09") == "fig09"
        assert _resolve_experiment("fig09_dynamic") == "fig09"
        assert _resolve_experiment("fig06_utilization") == "fig06"
        assert _resolve_experiment("no_such_thing") is None

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
        assert "io_submit" in kinds
        assert "io_complete" in kinds

    def test_run_with_stats_prints_report(self, capsys):
        assert main(["run", "fig15", "--quick", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out
        assert "kernel probe" in out

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
        """``repro profile`` under an ambient ``REPRO_CACHE=1``: the second
        run must simulate as much as the first, not look its points up.
        Each profile starts without the process's conditioned-device
        snapshots, so neither reuses work the other paid for, whatever
        ran earlier in this process."""
        import re

        from repro.ssd.conditioning import clear_conditioning_cache

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        calls = []
        for _ in range(2):
            clear_conditioning_cache()
            assert main(["profile", "fig15", "--quiet", "--top", "1"]) == 0
            calls.append(int(re.search(r"(\d+) function calls", capsys.readouterr().out).group(1)))
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


class TestCliCalibrate:
    def test_calibrate_prints_anchors(self, capsys):
        assert main(["calibrate", "--duration-ms", "60"]) == 0
        out = capsys.readouterr().out
        assert "Device anchors" in out
        assert "4K rand read QD128" in out

    def test_non_positive_duration_rejected(self, capsys):
        # Used to die in closed_loop with a ZeroDivisionError traceback.
        for duration in ("0", "-5"):
            assert main(["calibrate", "--duration-ms", duration]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"--duration-ms must be > 0, got {duration}\n"


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
    -4`` silently ran on every core (on one with ``--serial``)."""

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

    @pytest.mark.parametrize("mode", [[], ["--serial"]], ids=["orchestrated", "serial"])
    def test_suite_refuses_an_unwritable_json_path(self, capsys, tmp_path, monkeypatch, mode):
        """Checked before the suite runs, not after it (which ended in a
        ``FileNotFoundError`` traceback)."""
        import repro.harness.orchestrator as orchestrator

        def refuse(*_args, **_kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(orchestrator, "run_suite", refuse)
        monkeypatch.setattr(orchestrator, "run_suite_serial", refuse)
        path = tmp_path / "missing" / "out.json"
        assert main(["suite", "--quick", "-e", "table2", "--json", str(path)] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot open suite results {str(path)!r}: ")

    @pytest.mark.parametrize("mode", [[], ["--serial"]], ids=["orchestrated", "serial"])
    def test_suite_refuses_a_negative_count(self, capsys, tmp_path, mode):
        cache_dir = tmp_path / "cache"
        argv = ["suite", "--quick", "-e", "table2", "-j", "-4", "--cache-dir", str(cache_dir)]
        assert main(argv + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--jobs must be >= 0 (0 = every core), got -4\n"
        assert not cache_dir.exists()


class TestCliCacheJournal:
    def test_journal_summary_and_compact(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "journal", "--cache-dir", cache_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["point_records"] > 0
        assert summary["sweep_runs"] >= 1
        # Recompute after pruning entries (prune keeps the journal,
        # clear would drop it): journal doubles up, compact dedupes.
        assert main(["cache", "prune", "--cache-dir", cache_dir, "--max-entries", "0"]) == 0
        assert main(["run", "fig02", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "journal", "--cache-dir", cache_dir, "--compact", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["dropped_superseded"] == summary["point_records"]
        assert main(["cache", "journal", "--cache-dir", cache_dir, "--json"]) == 0
        after = json.loads(capsys.readouterr().out)
        assert after["point_records"] == summary["point_records"]

    def test_negative_limits_rejected(self, tmp_path, capsys):
        # ``--max-records -3`` used to drop the three oldest records.
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--quick", "--cache-dir", cache_dir]) == 0
        journal = (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8")
        capsys.readouterr()
        for argv, message in (
            (["journal", "--compact", "--max-records", "-3"], "--max-records must be >= 0, got -3"),
            (["prune", "--max-mb", "-1"], "--max-mb must be >= 0, got -1.0"),
            (["prune", "--max-entries", "-1"], "--max-entries must be >= 0, got -1"),
        ):
            assert main(["cache", *argv, "--cache-dir", cache_dir]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == message + "\n"
        assert (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8") == journal

    def test_max_records_without_compact_is_refused(self, tmp_path, capsys):
        # The cap only applies to a compaction: alone it is refused,
        # not ignored, and the journal is left as it was.
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table2", "--quick", "--cache-dir", cache_dir]) == 0
        journal = (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8")
        capsys.readouterr()
        argv = ["cache", "journal", "--max-records", "1", "--cache-dir", cache_dir]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--max-records needs --compact\n"
        assert (tmp_path / "cache" / "journal.jsonl").read_text(encoding="utf-8") == journal
