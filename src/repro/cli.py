"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- show every reproducible table/figure and its driver;
* ``run <experiment> [--quick]`` -- regenerate one table/figure and
  print the same rows/series the paper reports;
* ``calibrate`` -- measure the simulated device's anchor numbers
  against the paper's (Section 2.2);
* ``simulate`` -- ad-hoc multi-tenant run: pick a scheme, a device
  condition and a worker mix, get bandwidth/latency per tenant;
* ``suite [--quick]`` -- regenerate *every* table/figure on one shared
  worker pool via :mod:`repro.harness.orchestrator` (declared-order
  dispatch, streaming execution; results identical to running each
  experiment serially);
* ``cache {stats,journal,prune,clear}`` -- inspect or manage the
  sweep-point result cache that ``run --cache`` (or ``REPRO_CACHE=1``)
  populates;
* ``profile <experiment>`` -- run one experiment under :mod:`cProfile`
  and print the hottest functions, the first stop when a figure takes
  longer to regenerate than expected.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Tuple


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse cached sweep-point results and cache fresh ones "
        "(content-addressed; invalidated by code or parameter changes)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if REPRO_CACHE is set",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR, else .repro-cache; implies --cache)",
    )


#: experiment name -> (module path, quick-mode kwargs).
EXPERIMENTS: Dict[str, Tuple[str, dict]] = {
    "fig02": ("repro.harness.experiments.fig02_unloaded_latency", {"measure_us": 100_000.0}),
    "fig03": ("repro.harness.experiments.fig03_core_scaling", {"measure_us": 100_000.0, "core_counts": (1, 2, 4)}),
    "fig04": ("repro.harness.experiments.fig04_interference", {"measure_us": 200_000.0}),
    "fig06": ("repro.harness.experiments.fig06_utilization", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "num_workers": 8}),
    "fig07": ("repro.harness.experiments.fig07_fairness", {"measure_us": 500_000.0, "warmup_us": 300_000.0, "workers_per_class": 8}),
    "fig08": ("repro.harness.experiments.fig08_latency", {"measure_us": 500_000.0, "warmup_us": 300_000.0, "workers_per_class": 8}),
    "fig09": ("repro.harness.experiments.fig09_dynamic", {"phase_us": 250_000.0}),
    "fig10": ("repro.harness.experiments.fig10_rocksdb", {"instances": 4, "measure_us": 300_000.0, "workloads": ("A", "C")}),
    "fig11-12": ("repro.harness.experiments.fig11_12_scaling", {"instance_counts": (1, 2, 4), "measure_us": 300_000.0}),
    "fig13": ("repro.harness.experiments.fig13_virtual_view", {"instances": 4, "measure_us": 300_000.0, "workloads": ("A", "B")}),
    "fig14": ("repro.harness.experiments.fig14_read_ratio", {"duration_us": 200_000.0}),
    "fig15": ("repro.harness.experiments.fig15_latency_scenarios", {"duration_us": 150_000.0}),
    "fig16": ("repro.harness.experiments.fig16_processing_cost", {"measure_us": 150_000.0, "added_costs": (0.0, 5.0, 40.0, 320.0)}),
    "fig17": ("repro.harness.experiments.fig17_congestion_dynamics", {"phase_us": 200_000.0, "steps": 4}),
    "fig18": ("repro.harness.experiments.fig18_threshold_trace", {"phase_us": 150_000.0, "steps": 8}),
    "fig19-23": ("repro.harness.experiments.fig19_23_appendix_d", {"measure_us": 200_000.0}),
    "rack": ("repro.harness.experiments.rack", {"tenants": 16, "rack": (2,), "ssds_per_jbof": 2, "horizon_us": 200_000.0}),
    "table1": ("repro.harness.experiments.table1_overheads", {"measure_us": 100_000.0}),
    "table2": ("repro.harness.experiments.table2_comparison", {}),
    "sec5.8": ("repro.harness.experiments.sec58_generalization", {"measure_us": 500_000.0, "warmup_us": 250_000.0, "workers_per_class": 4}),
    "ablations": ("repro.harness.experiments.ablations", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "workers": 4}),
    "ext-qlc": ("repro.harness.experiments.ext_qlc", {"measure_us": 400_000.0, "warmup_us": 200_000.0, "workers_per_class": 4}),
}


def _resolve_experiment(name: str) -> Optional[str]:
    """Accept either the short key (``fig09``) or the driver module's
    basename (``fig09_dynamic``)."""
    if name in EXPERIMENTS:
        return name
    for key, (module_path, _) in EXPERIMENTS.items():
        if module_path.rsplit(".", 1)[-1] == name:
            return key
    return None


def _load(name: str):
    import importlib

    module_path, quick_kwargs = EXPERIMENTS[name]
    return importlib.import_module(module_path), quick_kwargs


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (module_path, _) in sorted(EXPERIMENTS.items()):
        print(f"{name.ljust(width)}  {module_path}")
    return 0


def _cache_from_args(args: argparse.Namespace):
    """Map the ``--cache``/``--no-cache``/``--cache-dir`` flags to the
    ``cache`` argument of a driver's ``run()``.

    ``None`` defers to the ambient configuration (the ``REPRO_CACHE``
    environment toggle); ``False`` disables caching outright.
    """
    if args.no_cache:
        return False
    if args.cache or args.cache_dir:
        from repro.harness.cache import ResultCache, cache_dir

        return ResultCache(cache_dir(args.cache_dir))
    return None


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.jobs > 1 and (args.trace or args.stats):
        # The session lives in this process; points on worker processes
        # would simulate outside it and report nothing.
        print("--trace and --stats need --jobs 1", file=sys.stderr)
        return 2
    name = _resolve_experiment(args.experiment)
    if name is None:
        print(f"unknown experiment {args.experiment!r}; try: python -m repro list", file=sys.stderr)
        return 2
    module, quick_kwargs = _load(name)
    kwargs = dict(quick_kwargs) if args.quick else {}
    # Every driver's run() is derived_run(sweep, finalize), so it takes
    # jobs/cache.
    if args.jobs != 1:
        kwargs["jobs"] = args.jobs
    cache = kwargs["cache"] = _cache_from_args(args)

    def report_cache() -> None:
        store = cache if cache not in (None, False) else None
        if store is None:
            return
        stats = store.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.seconds_saved:.1f}s saved ({store.root})",
            file=sys.stderr,
        )

    if not args.trace and not args.stats:
        results = module.run(**kwargs)
        print(module.summarize(results))
        report_cache()
        return 0
    from repro.obs.session import capture

    if args.trace:
        # Fail fast on an unwritable journal path instead of after a
        # potentially minutes-long experiment.
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot open trace journal {args.trace!r}: {exc}", file=sys.stderr)
            return 2
    with capture(trace_path=args.trace) as session:
        results = module.run(**kwargs)
        print(module.summarize(results))
        if args.stats:
            print()
            print(session.stats_report())
    if args.trace:
        print(
            f"\ntrace journal: {args.trace} "
            f"({session.trace_events_emitted} events); summarize with "
            f"`python -m repro.obs.report {args.trace}`",
            file=sys.stderr,
        )
    report_cache()
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """``repro suite`` -- regenerate the whole evaluation in one go."""
    import json
    import time

    from repro.harness.orchestrator import run_suite, run_suite_serial, suite_experiments

    if args.jobs < 0:
        print(f"--jobs must be >= 0 (0 = every core), got {args.jobs}", file=sys.stderr)
        return 2
    names = None
    if args.experiments:
        names = [name for chunk in args.experiments for name in chunk.split(",") if name]
    try:
        specs = suite_experiments(quick=args.quick, names=names)
    except KeyError as exc:
        print(f"{exc.args[0]}; try: python -m repro list", file=sys.stderr)
        return 2
    if args.json:
        # Fail fast on an unwritable path instead of after the suite.
        try:
            open(args.json, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot open suite results {args.json!r}: {exc}", file=sys.stderr)
            return 2
    cache = _cache_from_args(args)
    started = time.perf_counter()

    if args.serial:
        results = run_suite_serial(specs, jobs=max(1, args.jobs), cache=cache)
        report = {
            "mode": "serial",
            "jobs": max(1, args.jobs),
            "wall_s": round(time.perf_counter() - started, 3),
            "experiments": len(specs),
        }
    else:

        def progress(event: str, payload: dict) -> None:
            if event == "experiment":
                print(
                    f"  done {payload['experiment']:10s} "
                    f"{payload['points']:3d} points "
                    f"({payload['cache_hits']} cached, {payload['wall_s']:.1f}s)",
                    file=sys.stderr,
                )

        suite = run_suite(
            specs,
            jobs=args.jobs if args.jobs > 0 else None,
            cache=cache,
            progress=progress if not args.quiet else None,
        )
        results = suite.results
        report = {"mode": "orchestrated", **suite.report()}

    if not args.quiet:
        import importlib

        for spec in specs:
            module = importlib.import_module(spec.module_path)
            print(module.summarize(results[spec.name]))
            print()
    print(
        f"suite: {report['experiments']} experiments in {report['wall_s']:.1f}s "
        f"({report['mode']}, jobs={report['jobs']})"
        + (
            f"; {report['points_total']} points, {report['cache_hits']} cached, "
            f"{report['stolen_idle_s']:.1f}s overlapped"
            if report["mode"] == "orchestrated"
            else ""
        ),
        file=sys.stderr,
    )
    if args.json:
        payload = {"report": report, "results": results}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        print(f"suite results: {args.json}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache {stats,prune,clear}`` -- manage the result cache."""
    import json

    from repro.harness.cache import ResultCache, cache_dir

    for limit in ("max_records", "max_mb", "max_entries"):
        value = getattr(args, limit, None)
        if value is not None and value < 0:
            flag = "--" + limit.replace("_", "-")
            print(f"{flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    if getattr(args, "max_records", None) is not None and not args.compact:
        print("--max-records needs --compact", file=sys.stderr)
        return 2
    cache = ResultCache(cache_dir(args.cache_dir))
    if args.cache_command == "stats":
        entries = cache.entries()
        total_bytes = sum(entry["size_bytes"] for entry in entries)
        stored_seconds = sum(entry["elapsed_s"] for entry in entries)
        by_fn: Dict[str, int] = {}
        for entry in entries:
            by_fn[entry["fn"]] = by_fn.get(entry["fn"], 0) + 1
        runs = [record for record in cache.read_journal() if "sweep" in record]
        if args.json:
            print(
                json.dumps(
                    {
                        "cache_dir": str(cache.root),
                        "entries": len(entries),
                        "total_bytes": total_bytes,
                        "stored_compute_seconds": round(stored_seconds, 3),
                        "by_fn": by_fn,
                        "runs": runs,
                        "point_records": len(cache.point_records()),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"cache dir : {cache.root}")
        print(f"entries   : {len(entries)}")
        print(f"size      : {total_bytes / 1024.0:.1f} KiB")
        print(f"stored    : {stored_seconds:.1f}s of compute")
        for fn, count in sorted(by_fn.items()):
            print(f"  {fn}  x{count}")
        if runs:
            tail = runs[-5:]
            print(f"last {len(tail)} runs:")
            for record in tail:
                print(
                    f"  {record.get('sweep', '?'):10s} "
                    f"hits={record.get('hits', 0)} misses={record.get('misses', 0)} "
                    f"saved={record.get('seconds_saved', 0.0):.1f}s"
                )
        return 0
    if args.cache_command == "journal":
        points = cache.point_records()
        runs = [record for record in cache.read_journal() if "sweep" in record]
        if args.compact:
            stats = cache.compact_journal(max_records=args.max_records)
            if args.json:
                print(json.dumps(stats, indent=2, sort_keys=True))
            else:
                print(
                    f"compacted journal: {stats['records_before']} -> "
                    f"{stats['records_kept']} records "
                    f"({stats['dropped_superseded']} superseded, "
                    f"{stats['dropped_over_cap']} over cap)"
                )
            return 0
        by_fn: Dict[str, int] = {}
        for record in points:
            by_fn[record.get("fn", "?")] = by_fn.get(record.get("fn", "?"), 0) + 1
        if args.json:
            print(
                json.dumps(
                    {
                        "cache_dir": str(cache.root),
                        "sweep_runs": len(runs),
                        "point_records": len(points),
                        "points_by_fn": by_fn,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"cache dir     : {cache.root}")
        print(f"sweep runs    : {len(runs)}")
        print(f"point records : {len(points)} (per-point timings)")
        for fn, count in sorted(by_fn.items()):
            print(f"  {fn}  x{count}")
        return 0
    if args.cache_command == "prune":
        removed = cache.prune(
            max_bytes=int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None,
            max_entries=args.max_entries,
        )
        print(f"pruned {removed} entries from {cache.root}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    return 2


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile <experiment>`` -- cProfile one experiment driver.

    Runs the driver exactly as ``repro run`` would (quick-mode windows
    by default, since profiles rarely need full-length runs) and prints
    the top functions by the chosen sort key.  ``--output`` dumps the
    raw stats for ``snakeviz``/``pstats`` post-processing.
    """
    import cProfile
    import pstats

    name = _resolve_experiment(args.experiment)
    if name is None:
        print(f"unknown experiment {args.experiment!r}; try: python -m repro list", file=sys.stderr)
        return 2
    module, quick_kwargs = _load(name)
    kwargs = dict(quick_kwargs) if not args.full else {}
    # Never the result cache (ambient REPRO_CACHE included): a warm hit
    # would profile a lookup, not the experiment.
    kwargs["cache"] = False

    profiler = cProfile.Profile()
    profiler.enable()
    results = module.run(**kwargs)
    profiler.disable()

    if not args.quiet:
        print(module.summarize(results))
        print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw profile: {args.output} (inspect with python -m pstats)", file=sys.stderr)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure the device anchors the profiles are calibrated against."""
    if not args.duration_ms > 0:
        print(f"--duration-ms must be > 0, got {args.duration_ms:g}", file=sys.stderr)
        return 2
    import random

    from repro.harness.report import format_table
    from repro.sim.engine import Simulator
    from repro.ssd.commands import DeviceCommand, IoOp
    from repro.ssd.conditioning import condition_device
    from repro.ssd.device import SsdDevice
    from repro.ssd.profiles import profile_by_name

    def closed_loop(condition, queue_depth, op, npages, sequential=False):
        sim = Simulator()
        device = SsdDevice(sim, profile=profile_by_name(args.profile))
        condition_device(device, condition)
        rng = random.Random(0)
        state = {"bytes": 0, "ops": 0, "latency": 0.0, "next": 0}
        duration = args.duration_ms * 1000.0

        def next_lpn():
            if sequential:
                lpn = state["next"]
                state["next"] = (state["next"] + npages) % (device.exported_pages - npages)
                return lpn
            return rng.randrange(device.exported_pages - npages)

        def on_complete(cmd):
            state["bytes"] += cmd.size_bytes
            state["ops"] += 1
            state["latency"] += cmd.latency_us
            if sim.now < duration:
                device.submit(DeviceCommand(op, next_lpn(), npages), on_complete)

        for _ in range(queue_depth):
            device.submit(DeviceCommand(op, next_lpn(), npages), on_complete)
        sim.run(until_us=duration)
        seconds = duration / 1e6
        return (
            state["bytes"] / seconds / (1024 * 1024),
            state["ops"] / seconds,
            state["latency"] / max(1, state["ops"]),
            device.write_amplification,
        )

    rows = []
    for label, condition, qd, op, npages, seq in (
        ("4K rand read QD128", "clean", 128, IoOp.READ, 1, False),
        ("4K rand read QD1", "clean", 1, IoOp.READ, 1, False),
        ("128K rand read QD8", "clean", 8, IoOp.READ, 32, False),
        ("128K seq write QD4", "clean", 4, IoOp.WRITE, 32, True),
        ("4K rand write QD32 (frag)", "fragmented", 32, IoOp.WRITE, 1, False),
    ):
        mbps, iops, latency, wa = closed_loop(condition, qd, op, npages, seq)
        rows.append((label, mbps, iops / 1000.0, latency, wa))
    print(
        format_table(
            ["workload", "MB/s", "KIOPS", "avg latency us", "WA"],
            rows,
            title=f"Device anchors ({args.profile} profile)",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.seconds > 0:
        print(f"--seconds must be > 0, got {args.seconds:g}", file=sys.stderr)
        return 2
    if args.queue_depth < 1:
        print(f"--queue-depth must be >= 1, got {args.queue_depth}", file=sys.stderr)
        return 2
    for flag, count in (("--readers", args.readers), ("--writers", args.writers)):
        if count < 0:
            print(f"{flag} must be >= 0, got {count}", file=sys.stderr)
            return 2
    if args.readers + args.writers == 0:
        print("--readers and --writers are both 0: nothing to simulate", file=sys.stderr)
        return 2
    from repro.harness.report import format_table
    from repro.harness.testbed import Testbed, TestbedConfig
    from repro.workloads.fio import FioSpec

    testbed = Testbed(
        TestbedConfig(scheme=args.scheme, condition=args.condition, seed=args.seed)
    )
    io_pages = args.io_kb // 4
    for index in range(args.readers):
        testbed.add_worker(
            FioSpec(f"reader{index}", io_pages=io_pages, queue_depth=args.queue_depth,
                    read_ratio=1.0),
            region_pages=1600,
        )
    for index in range(args.writers):
        testbed.add_worker(
            FioSpec(f"writer{index}", io_pages=io_pages, queue_depth=args.queue_depth,
                    read_ratio=0.0,
                    pattern="sequential" if io_pages >= 32 else "random"),
            region_pages=1600,
        )
    results = testbed.run(
        warmup_us=args.seconds * 1e6 * 0.3, measure_us=args.seconds * 1e6
    )
    rows = []
    for worker in results["workers"]:
        latency = (
            worker["read_latency"] if worker["read_latency"]["count"] else worker["write_latency"]
        )
        rows.append(
            (worker["name"], worker["bandwidth_mbps"], worker["iops"],
             latency["mean"], latency["p99"])
        )
    print(
        format_table(
            ["tenant", "MB/s", "IOPS", "avg us", "p99 us"],
            rows,
            title=f"{args.scheme} on {args.condition} SSD "
            f"({args.readers}R+{args.writers}W, {args.io_kb}KB, QD{args.queue_depth})",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.harness.testbed import SCHEMES
    from repro.ssd.conditioning import CONDITIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Gimbal (SIGCOMM 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures").set_defaults(fn=cmd_list)

    run_parser = sub.add_parser("run", help="regenerate one table/figure")
    run_parser.add_argument("experiment", help="e.g. fig07, table1 (see `list`)")
    run_parser.add_argument(
        "--quick", action="store_true", help="scaled-down measurement windows"
    )
    run_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment's sweep points "
        "(results are identical to a serial run)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream a JSONL trace journal of simulation events to PATH (needs --jobs 1)",
    )
    run_parser.add_argument(
        "--stats",
        action="store_true",
        help="print registry counters and kernel probe stats after the run (needs --jobs 1)",
    )
    _add_cache_args(run_parser)
    run_parser.set_defaults(fn=cmd_run)

    suite_parser = sub.add_parser(
        "suite",
        help="regenerate every table/figure on one shared worker pool",
    )
    suite_parser.add_argument(
        "--quick", action="store_true", help="scaled-down measurement windows"
    )
    suite_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help="worker processes shared by the whole suite (default 0: the "
        "machine's CPU count, one with --serial; results are identical either way)",
    )
    suite_parser.add_argument(
        "--experiments",
        "-e",
        action="append",
        metavar="NAME[,NAME...]",
        help="restrict to these experiments (repeatable; registry order is kept)",
    )
    suite_parser.add_argument(
        "--serial",
        action="store_true",
        help="run each experiment to completion in turn (the pre-orchestrator "
        "baseline; useful for timing comparisons and identity checks)",
    )
    suite_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-experiment summaries"
    )
    suite_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="dump the suite report and every experiment's results as JSON",
    )
    _add_cache_args(suite_parser)
    suite_parser.set_defaults(fn=cmd_suite)

    profile_parser = sub.add_parser(
        "profile", help="run one experiment under cProfile and print hot functions"
    )
    profile_parser.add_argument("experiment", help="e.g. fig07, table1 (see `list`)")
    profile_parser.add_argument(
        "--top", type=int, default=25, metavar="N", help="rows to print (default 25)"
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls", "calls", "time"],
        help="pstats sort key (default cumulative)",
    )
    profile_parser.add_argument(
        "--full",
        action="store_true",
        help="profile the full-length run instead of quick-mode windows",
    )
    profile_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also dump raw pstats data to PATH",
    )
    profile_parser.add_argument(
        "--quiet", action="store_true", help="suppress the experiment's own summary"
    )
    profile_parser.set_defaults(fn=cmd_profile)

    calibrate_parser = sub.add_parser("calibrate", help="measure device anchor numbers")
    calibrate_parser.add_argument("--profile", default="dct983", choices=["dct983", "p3600"])
    calibrate_parser.add_argument("--duration-ms", type=float, default=500.0)
    calibrate_parser.set_defaults(fn=cmd_calibrate)

    simulate_parser = sub.add_parser("simulate", help="ad-hoc multi-tenant run")
    simulate_parser.add_argument("--scheme", default="gimbal", choices=SCHEMES)
    simulate_parser.add_argument("--condition", default="fragmented", choices=CONDITIONS)
    simulate_parser.add_argument("--readers", type=int, default=4)
    simulate_parser.add_argument("--writers", type=int, default=4)
    simulate_parser.add_argument("--io-kb", type=int, default=4, choices=[4, 8, 16, 32, 64, 128])
    simulate_parser.add_argument("--queue-depth", type=int, default=32)
    simulate_parser.add_argument("--seconds", type=float, default=1.0)
    simulate_parser.add_argument("--seed", type=int, default=42)
    simulate_parser.set_defaults(fn=cmd_simulate)

    cache_parser = sub.add_parser("cache", help="inspect or manage the sweep result cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    stats_parser = cache_sub.add_parser("stats", help="entry counts, sizes and recent runs")
    stats_parser.add_argument("--cache-dir", metavar="DIR", default=None)
    stats_parser.add_argument("--json", action="store_true", help="machine-readable output")
    journal_parser = cache_sub.add_parser(
        "journal", help="inspect or compact the per-point timing journal"
    )
    journal_parser.add_argument("--cache-dir", metavar="DIR", default=None)
    journal_parser.add_argument(
        "--compact",
        action="store_true",
        help="drop superseded per-point records (same fn+kwargs, older "
        "code) and cap total journal growth",
    )
    journal_parser.add_argument(
        "--max-records",
        type=int,
        default=None,
        metavar="N",
        help="with --compact: keep at most N records (oldest dropped first)",
    )
    journal_parser.add_argument("--json", action="store_true", help="machine-readable output")
    prune_parser = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries beyond the limits"
    )
    prune_parser.add_argument("--cache-dir", metavar="DIR", default=None)
    prune_parser.add_argument(
        "--max-mb",
        type=float,
        default=512.0,
        help="keep at most this many MiB of entries (default 512)",
    )
    prune_parser.add_argument(
        "--max-entries", type=int, default=None, help="keep at most this many entries"
    )
    clear_parser = cache_sub.add_parser("clear", help="delete every cached entry")
    clear_parser.add_argument("--cache-dir", metavar="DIR", default=None)
    cache_parser.set_defaults(fn=cmd_cache)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
