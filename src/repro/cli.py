"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- show every reproducible table/figure and its driver
  (the registry is :data:`repro.harness.orchestrator.EXPERIMENTS`);
* ``run <experiment> [--quick]`` -- regenerate one table/figure and
  print the same rows/series the paper reports;
* ``calibrate`` -- measure the simulated device's anchor numbers
  against the paper's (Section 2.2);
* ``simulate`` -- ad-hoc multi-tenant run: pick a scheme, a device
  condition and a worker mix, get bandwidth/latency per tenant;
* ``suite [--quick]`` -- regenerate *every* table/figure on one shared
  worker pool via :mod:`repro.harness.orchestrator` (declared-order
  dispatch, streaming execution; results identical to each driver's
  own ``run()``, whatever ``--jobs``);
* ``cache {stats,prune,clear}`` -- inspect or manage the
  sweep-point result cache that ``run --cache`` (or ``REPRO_CACHE=1``)
  populates.

To profile one experiment, run it under :mod:`cProfile`::

    python -m cProfile -s cumulative -m repro run fig07 --quick --no-cache
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Dict, Optional

from repro.harness.orchestrator import EXPERIMENTS, suite_experiments


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
    try:
        [spec] = suite_experiments(quick=args.quick, names=[args.experiment])
    except KeyError as exc:
        print(f"{exc.args[0]}; try: python -m repro list", file=sys.stderr)
        return 2
    module = spec.load()
    cache = _cache_from_args(args)
    if args.trace:
        # Fail fast on an unwritable journal path instead of after a
        # potentially minutes-long experiment.
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot open trace journal {args.trace!r}: {exc}", file=sys.stderr)
            return 2
    if args.trace or args.stats:
        from repro.obs.session import capture

        observed = capture(trace_path=args.trace)
    else:
        # An unobserved run builds no session and no probe.
        observed = contextlib.nullcontext()
    with observed as session:
        # Every driver's run() is derived_run(sweep, finalize), so it
        # takes jobs/cache.
        results = module.run(jobs=args.jobs, cache=cache, **spec.kwargs)
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
    if cache:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.seconds_saved:.1f}s saved ({cache.root})",
            file=sys.stderr,
        )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """``repro suite`` -- regenerate the whole evaluation in one go."""
    import json

    from repro.harness.orchestrator import run_suite

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

    def progress(payload: dict) -> None:
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
    report = suite.report()
    if not args.quiet:
        for spec in specs:
            print(spec.load().summarize(results[spec.name]))
            print()
    print(
        f"suite: {report['experiments']} experiments in {report['wall_s']:.1f}s "
        f"(jobs={report['jobs']}); {report['points_total']} points, "
        f"{report['cache_hits']} cached, {report['stolen_idle_s']:.1f}s overlapped",
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

    for limit in ("max_mb", "max_entries"):
        value = getattr(args, limit, None)
        if value is None:
            continue
        flag = "--" + limit.replace("_", "-")
        if not math.isfinite(value):
            print(f"{flag} must be finite, got {value}", file=sys.stderr)
            return 2
        if value < 0:
            print(f"{flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    cache = ResultCache(cache_dir(args.cache_dir))
    if args.cache_command == "stats":
        entries = cache.entries()
        total_bytes = sum(entry["size_bytes"] for entry in entries)
        stored_seconds = sum(entry["elapsed_s"] for entry in entries)
        by_fn: Dict[str, int] = {}
        for entry in entries:
            by_fn[entry["fn"]] = by_fn.get(entry["fn"], 0) + 1
        # Journals of older caches also hold per-point lines without a "sweep".
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


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure the device anchors the profiles are calibrated against."""
    if not args.duration_ms > 0:
        print(f"--duration-ms must be > 0, got {args.duration_ms:g}", file=sys.stderr)
        return 2
    if not math.isfinite(args.duration_ms):  # the closed loops would never stop
        print(f"--duration-ms must be finite, got {args.duration_ms:g}", file=sys.stderr)
        return 2
    import random

    from repro.harness.experiments.common import closed_loop
    from repro.harness.report import format_table
    from repro.sim.engine import Simulator
    from repro.ssd.commands import OP_READ, OP_WRITE, DeviceCommand
    from repro.ssd.conditioning import condition_device
    from repro.ssd.device import SsdDevice
    from repro.ssd.profiles import profile_by_name

    def anchor(condition, queue_depth, op, npages, sequential=False):
        sim = Simulator()
        device = SsdDevice(sim, profile=profile_by_name(args.profile))
        condition_device(device, condition)
        rng = random.Random(0)
        state = {"bytes": 0, "ops": 0, "latency": 0.0, "next": 0}
        duration = args.duration_ms * 1000.0

        def next_command():
            if sequential:
                lpn = state["next"]
                state["next"] = (state["next"] + npages) % (device.exported_pages - npages)
            else:
                lpn = rng.randrange(device.exported_pages - npages)
            return DeviceCommand(op, lpn, npages)

        def on_complete(cmd):
            state["bytes"] += cmd.size_bytes
            state["ops"] += 1
            state["latency"] += cmd.latency_us

        closed_loop(device, queue_depth, next_command, duration, on_complete)
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
        ("4K rand read QD128", "clean", 128, OP_READ, 1, False),
        ("4K rand read QD1", "clean", 1, OP_READ, 1, False),
        ("128K rand read QD8", "clean", 8, OP_READ, 32, False),
        ("128K seq write QD4", "clean", 4, OP_WRITE, 32, True),
        ("4K rand write QD32 (frag)", "fragmented", 32, OP_WRITE, 1, False),
    ):
        mbps, iops, latency, wa = anchor(condition, qd, op, npages, seq)
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
    if not math.isfinite(args.seconds):  # the closed loops would never stop
        print(f"--seconds must be finite, got {args.seconds:g}", file=sys.stderr)
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
        "machine's CPU count; results are identical for every count)",
    )
    suite_parser.add_argument(
        "--experiments",
        "-e",
        action="append",
        metavar="NAME[,NAME...]",
        help="restrict to these experiments (repeatable; registry order is kept)",
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
    try:
        code = args.fn(args)
        # Flush here so a closed pipe raises inside the handler, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro list | head -1``).  Point stdout
        # at devnull so the interpreter's own exit flush cannot raise
        # again, and exit as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
