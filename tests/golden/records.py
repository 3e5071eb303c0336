"""The frozen records: every simulated output the tests pin, in one registry.

``RECORDS`` maps each record name to its producer -- a small fixed-seed
rig that returns a JSON value and asserts, before it returns, that the
rig did the work it exists to pin -- and the relative tolerance of its
floats.  ``tests/golden/data/<name>.json`` holds the frozen value, and
``tests/golden/test_records.py`` compares every record through
:func:`diff`.  After an *intentional* behaviour change, see which
records and leaves moved and by how much, then re-freeze (every record,
or only the named ones) and commit the new data::

    PYTHONPATH=src python -m tests.golden.records --diff [NAME ...]
    PYTHONPATH=src python -m tests.golden.records --write [NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, NamedTuple
from unittest import mock

DATA_DIR = Path(__file__).resolve().parent / "data"


class Record(NamedTuple):
    produce: Callable[[], Any]
    #: Floats agree within this share of the frozen magnitude; 0 is exact.
    rtol: float = 0.0


def _sha(value) -> str:
    # json renders floats by repr, which round-trips every bit.
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("ascii")).hexdigest()


#: Small fixed-window, fixed-seed configs: big enough for stable
#: qualitative shape, small enough for tier-1 runtime.
GOLDEN_CONFIGS = {
    "fig02": {"measure_us": 20_000.0},
    "fig07": {
        "measure_us": 30_000.0,
        "warmup_us": 15_000.0,
        "workers_per_class": 2,
        "standalone_measure_us": 100_000.0,
    },
    "table1": {"measure_us": 20_000.0},
    # At this window the three client variants differ, so the golden
    # sees both ``flow_control`` and ``load_balance``.
    "fig13": {
        "instances": 4,
        "record_count": 256,
        "warmup_us": 10_000.0,
        "measure_us": 40_000.0,
        "workloads": ("A",),
    },
    "fig14": {"duration_us": 20_000.0, "read_ratios": (0.0, 0.95, 1.0)},
    "fig15": {"duration_us": 20_000.0, "io_sizes_kb": (4, 128)},
}

#: The figures' tolerance.  The simulation is deterministic, but
#: histogram bucket boundaries go through ``math.log``/``math.exp``,
#: whose last-ulp rounding may differ between libm implementations,
#: shifting a percentile-derived value by up to the bucket growth factor
#: (~2%).  Counts, labels and structure must match exactly.
FIGURE_RTOL = 0.02


def _figure(name: str, driver: str) -> Record:
    """A paper artefact: every value ``repro.harness.experiments.<driver>``
    returns at ``name``'s ``GOLDEN_CONFIGS`` window and seed."""

    def produce():
        module = importlib.import_module(f"repro.harness.experiments.{driver}")
        return module.run(**GOLDEN_CONFIGS[name])

    return Record(produce, FIGURE_RTOL)


#: The decision-identity rig: a seeded Gimbal testbed small enough for
#: tier-1, with 4 KiB and 128 KiB tenants on both sides of a fragmented
#: device, so tokens, deficits and virtual slots all bind and both
#: monitors visit all four congestion states (overload discards
#: included) within the run.
SWITCH_IDENTITY_CONFIG = {
    "seed": 7,
    "condition": "fragmented",
    "reader_pages": [1, 1, 32, 32],
    "writer_pages": [1, 1, 32, 32],
    "region_pages": 1600,
    "run_us": 60_000.0,
}


def switch_identity_digest() -> dict:
    """Hash every admission decision and rate/cost move of one run.

    The figures pin aggregates; this pins the switch's *decisions*.
    ``decisions`` covers the ordered ``(now, tenant, op, lba)`` stream
    at ``SsdPipeline.device_submit``; ``trajectory`` covers
    ``(now, rate.target_rate, write_cost.cost)`` after every device
    completion.  Floats are hashed by their IEEE-754 bytes, so a
    hot-path refactor that reorders one float addition, admits one IO a
    pump earlier or skips one completion signal changes the digest even
    when every aggregate still matches.
    """
    from repro.fabric.pipeline import SsdPipeline
    from repro.harness.experiments.common import read_spec, write_spec
    from repro.harness.testbed import Testbed, TestbedConfig

    config = SWITCH_IDENTITY_CONFIG
    decisions = hashlib.sha256()
    trajectory = hashlib.sha256()
    counts = {"submits": 0, "completions": 0}
    device_submit = SsdPipeline.device_submit
    device_completed = SsdPipeline._device_completed

    def recording_submit(pipeline, request):
        counts["submits"] += 1
        decisions.update(struct.pack("<d", pipeline.sim.now))
        decisions.update(
            f"{request.tenant_id}|{request.op.value}|{request.lba};".encode("ascii")
        )
        device_submit(pipeline, request)

    def recording_completed(pipeline, command):
        device_completed(pipeline, command)
        counts["completions"] += 1
        switch = pipeline.scheduler
        trajectory.update(
            struct.pack(
                "<ddd", pipeline.sim.now, switch.rate.target_rate, switch.write_cost.cost
            )
        )

    # Patched on the class, before the testbed exists, so a switch that
    # caches the bound method at attach time is still observed.
    with mock.patch.object(SsdPipeline, "device_submit", recording_submit), mock.patch.object(
        SsdPipeline, "_device_completed", recording_completed
    ):
        testbed = Testbed(
            TestbedConfig(scheme="gimbal", condition=config["condition"], seed=config["seed"])
        )
        for index, pages in enumerate(config["reader_pages"]):
            testbed.add_worker(read_spec(f"r{index}", pages), region_pages=config["region_pages"])
        for index, pages in enumerate(config["writer_pages"]):
            testbed.add_worker(write_spec(f"w{index}", pages), region_pages=config["region_pages"])
        for worker in testbed.workers:
            worker.start()
        testbed.sim.run(until_us=config["run_us"])
    # A rig that went idle or never bound a limiter would pin nothing.
    assert counts["submits"] > 4_000
    assert counts["completions"] > 4_000
    return {"decisions": decisions.hexdigest(), "trajectory": trajectory.hexdigest(), **counts}


def conditioning_digest() -> dict:
    """Hash the complete FTL state each conditioning routine leaves.

    The figures pin what runs *on* a conditioned device; this pins the
    device itself (first frozen at commit 99b8e82, before the FTL's
    write and GC path was flattened), so a write-path change that places
    one page in a different slot or closes a block one write late fails.
    One sha256 per rig over every field of ``Ftl.snapshot()`` (mapping,
    reverse map, valid counts, block pools, open slots, erase counts,
    stats), taken from the conditioning cache's entry, i.e. before
    conditioning zeroes the counters; the lifetime program/erase counts
    alongside say which way a layout moved.
    """
    from repro.sim.engine import Simulator
    from repro.ssd.conditioning import _snapshot_cache, clear_conditioning_cache, condition_device
    from repro.ssd.device import SsdDevice

    digests = {}
    for name in ("clean", "fragmented"):
        clear_conditioning_cache()
        condition_device(SsdDevice(Simulator()), name)
        (snap,) = _snapshot_cache.values()
        stats = snap["stats"]
        state = dict(
            snap, stats=vars(stats), page_map=snap["page_map"].tolist(), rmap=snap["rmap"].tolist()
        )
        digests[name] = {
            "state": _sha(state),
            "host_programs": stats.host_programs,
            "gc_programs": stats.gc_programs,
            "wl_programs": stats.wl_programs,
            "erases": stats.erases,
        }
    clear_conditioning_cache()
    # A rig that never collected would pin only the sequential fill.
    assert digests["fragmented"]["gc_programs"] > 3 * digests["fragmented"]["host_programs"]
    return digests


#: The KV op-path identity rig: a hand-written churn schedule small
#: enough for tier-1 that still enters every completion shape of the
#: closed-loop YCSB path -- memtable hits, table reads and definite
#: misses (A, C), latest-biased reads over a growing key space (D),
#: scans (E) and get-then-put chains (F) -- with arrivals and departures
#: overlapping so ``begin_measurement`` swaps histograms under
#: in-flight operations.
KV_IDENTITY_CONFIG = {
    "seed": 13,
    "num_jbofs": 2,
    "ssds_per_jbof": 2,
    #: (name, workload, record_count, concurrency, arrival_us, lifetime_us)
    "tenants": [
        ("t0", "A", 384, 4, 0.0, 24_000.0),
        ("t1", "C", 320, 4, 3_000.0, 10_000.0),
        ("t2", "D", 128, 2, 6_000.0, 20_000.0),
        ("t3", "E", 96, 2, 9_000.0, 14_000.0),
        ("t4", "F", 288, 2, 12_000.0, 22_000.0),
        ("t5", "C", 96, 8, 15_000.0, 2_000.0),
    ],
    #: Executions hashed: the plain event loop and two inline shards.
    "legs": {"unsharded": None, "shards2": 2},
}


def kv_identity_digest() -> dict:
    """Hash every KV operation and every recorded latency of one churn.

    The ledger's ``kv-rack`` digest pins the rack's aggregates; this
    pins the *operations*, once per execution leg.  ``ops`` covers the
    ordered ``(now, tree, "get"|"put"|"scan", key)`` stream entering
    :class:`~repro.kv.lsm.LsmTree` (load phase, client operations and
    read-modify-write chains alike); ``results`` covers, per tenant in
    arrival order, both latency histograms bucket by bucket with their
    exact float totals, ``kops`` and the LSM counters.  Floats are
    hashed by their IEEE-754 bytes, so a key drawn from a different
    random number, an operation completing one event early or a latency
    landing in the wrong histogram changes the digest even when every
    aggregate still matches.
    """
    from repro.harness.kvcluster import KvClusterConfig
    from repro.workloads.population import TenantSpec

    config = KV_IDENTITY_CONFIG
    specs = [
        TenantSpec(name, f"class-{workload}", workload, records, concurrency, arrival, lifetime)
        for name, workload, records, concurrency, arrival, lifetime in config["tenants"]
    ]
    cluster_config = KvClusterConfig(
        scheme="gimbal",
        condition="clean",
        num_jbofs=config["num_jbofs"],
        ssds_per_jbof=config["ssds_per_jbof"],
        seed=config["seed"],
    )
    digest = {
        leg: _kv_identity_leg(cluster_config, specs, shards)
        for leg, shards in config["legs"].items()
    }
    for leg in digest.values():
        # A rig that never left the memtable, never scanned or never
        # measured an update would pin only part of the path.
        assert leg["get"] > 10_000 and leg["put"] > 2_000 and leg["scan"] > 1_000
        assert leg["measured_reads"] > 10_000 and leg["measured_updates"] > 1_000
    assert set(digest) == set(config["legs"])
    assert digest["shards2"]["shard"]["windows"] > 5_000
    return digest


def _kv_identity_leg(cluster_config, specs, shards) -> dict:
    """One execution of the identity churn, hashed (see above)."""
    from repro.harness.kvcluster import KvCluster
    from repro.kv.lsm import LsmTree

    ops = hashlib.sha256()
    counts = {"get": 0, "put": 0, "scan": 0}
    runners = []

    def recording(op):
        method = getattr(LsmTree, op)

        def wrapper(tree, key, *args):
            counts[op] += 1
            ops.update(struct.pack("<d", tree.sim.now))
            ops.update(f"{tree.name}|{op}|{key};".encode("ascii"))
            return method(tree, key, *args)

        return mock.patch.object(LsmTree, op, wrapper)

    add_instance = KvCluster.add_instance

    def recording_add_instance(cluster, *args, **kwargs):
        runner = add_instance(cluster, *args, **kwargs)
        runners.append(runner)  # the cluster drops it on departure
        return runner

    # Patched on the class, before the cluster exists, so a runner that
    # caches a bound method is still observed.
    with recording("get"), recording("put"), recording("scan"), mock.patch.object(
        KvCluster, "add_instance", recording_add_instance
    ):
        cluster = KvCluster(cluster_config, shards=shards)
        outcome = cluster.run_population(specs)
    results = hashlib.sha256()
    for runner, tenant in zip(runners, outcome["tenants"]):
        assert runner.tree.name == tenant["name"]
        results.update(f"{tenant['name']}|{tenant['workload']};".encode("ascii"))
        for histogram in (runner.read_latency, runner.update_latency):
            results.update(struct.pack("<d", histogram.total))
            results.update(json.dumps(histogram._counts).encode("ascii"))
        results.update(struct.pack("<d", tenant["kops"]))
        results.update(json.dumps(tenant["lsm"], sort_keys=True).encode("ascii"))
    return {
        "ops": ops.hexdigest(),
        "results": results.hexdigest(),
        **counts,
        "measured_reads": sum(runner.read_latency.count for runner in runners),
        "measured_updates": sum(runner.update_latency.count for runner in runners),
        "drained_us": outcome["drained_us"],
        "shard": outcome.get("shard"),
    }


def metrics_snapshots() -> dict:
    """Every name and value a capture session's metrics snapshot reads.

    ``tests/obs/test_session.py`` checks what a snapshot must contain;
    this pins all of it, off a Gimbal tiny testbed and off an unsharded
    two-JBOF rack, each built in its own session, so a change to which
    component reports what, under which prefix, fails.  Values are
    deterministic except the probe's wall-clock gauges
    (``kernel.wall_*``), which are left out.
    """
    from repro.obs.session import capture
    from tests.obs.test_session import small_rack, tiny_testbed

    def snapshot(session):
        values = session.registry.snapshot().items()
        return {name: value for name, value in values if not name.startswith("kernel.wall_")}

    with capture() as session:
        tiny_testbed().run(warmup_us=2000.0, measure_us=8000.0)
        testbed = snapshot(session)
    with capture() as session:
        cluster = small_rack()
        cluster.add_instance("db0", "A", record_count=64)
        cluster.load_all()
        rack = snapshot(session)
    return {"testbed": testbed, "rack": rack}


#: Offered writes (~0.5 x 32.5 pages per 500 us) outrun the fragmented
#: device's drain rate in bursts: about two writes in five wait for
#: buffer space, the rest are admitted at once.
DEVICE_REPLAY_WORKLOAD = {
    "ops": 600,
    "seed": 41,
    "max_pages": 64,
    "mean_gap_us": 500.0,
    "read_fraction": 0.4,
    "trim_fraction": 0.06,
}


def device_replay_digest() -> dict:
    """Hash what the SSD device does with each command of one replay.

    ``conditioning_identity`` pins the conditioned layouts; this pins
    the write path command by command (first frozen before admission was
    made direct).  One seeded open-loop schedule on a fragmented
    ``DIFF_GEOMETRY`` device mixes 1- to 64-page writes (enough to fill
    the write buffer and queue behind it, and to make the FTL collect),
    trims and reads that hit buffered pages.  Every completion time, the
    host and FTL counters, the final mapping and erase counts, the number
    of events the run scheduled and every ``GC_START`` / ``GC_END``
    payload a tracer saw are hashed, so a change that admits one write a
    drain early, charges one GC installment to the wrong page or
    schedules one drain event more fails.
    """
    from repro.obs.trace import TraceBuffer, TraceType, read_jsonl
    from repro.ssd.profiles import DCT983_PROFILE
    from tests.ssd.diffkit import generate_workload, replay

    with tempfile.TemporaryDirectory() as scratch:
        journal = os.path.join(scratch, "journal.jsonl")
        with open(journal, "w", encoding="utf-8") as sink:
            result = replay(
                generate_workload(**DEVICE_REPLAY_WORKLOAD),
                condition="fragmented",
                tracer=TraceBuffer(sink),
            )
        events = read_jsonl(journal)
    # The fastest a write completes: controller plus buffer write.
    unqueued_us = DCT983_PROFILE.t_ctrl_cmd_us + DCT983_PROFILE.t_buf_write_us
    digest = {
        "workload": DEVICE_REPLAY_WORKLOAD,
        "writes": result.device_stats.write_commands,
        "waited_writes": sum(
            1
            for _, op, _, _, submit_us, complete_us in result.completions
            if op == "write" and complete_us - submit_us > 4 * unqueued_us
        ),
        "trims": result.device_stats.trim_commands,
        "buffer_read_hits": result.device_stats.buffer_read_hits,
        "gc_programs": result.ftl_stats.gc_programs,
        "gc_events": {
            kind.value: sum(1 for event in events if event["ev"] == kind.value)
            for kind in (TraceType.GC_START, TraceType.GC_END)
        },
        "scheduled_events": result.scheduled_events,
        "completions": _sha(result.completions),
        "state": _sha(
            {
                "device_stats": asdict(result.device_stats),
                "ftl_stats": asdict(result.ftl_stats),
                "page_map": result.page_map,
                "erase_counts": result.erase_counts,
                "final_time_us": result.final_time_us,
            }
        ),
        "trace": _sha(events),
    }
    # A schedule that never backed up, collected or hit the buffer
    # would pin only the easy path.
    assert 0.2 * digest["writes"] < digest["waited_writes"] < 0.8 * digest["writes"]
    assert digest["gc_events"]["gc_start"] > 50
    assert digest["trims"] > 0 and digest["buffer_read_hits"] > 0
    return digest


def sweep_points_digest() -> dict:
    """Hash the points every registered driver declares.

    For each experiment of ``EXPERIMENTS``, at its quick and at its full
    kwargs: the point count and a sha256 over each point's ``(index,
    label, module:qualname, canonical kwargs)``.  A label seeds its
    point, so a renamed label reseeds a figure with no golden window to
    notice; this fails first.  Only ``sweep()`` is called: no point
    runs, and no sweep either.
    """
    from repro.harness.cache import canonical_value
    from repro.harness.orchestrator import EXPERIMENTS, suite_experiments
    from repro.harness.parallel import split_kwargs

    digest = {}
    for name in EXPERIMENTS:
        digest[name] = {}
        for mode in ("quick", "full"):
            (spec,) = suite_experiments(quick=mode == "quick", names=[name])
            module = spec.load()
            sweep_kwargs, _ = split_kwargs(module.sweep, module.finalize, spec.kwargs)
            points = module.sweep(**sweep_kwargs).points
            digest[name][mode] = {
                "points": len(points),
                "sha256": _sha(
                    [
                        (
                            point.index,
                            point.label,
                            f"{point.fn.__module__}:{point.fn.__qualname__}",
                            canonical_value(point.kwargs),
                        )
                        for point in points
                    ]
                ),
            }
    assert all(leg["points"] for legs in digest.values() for leg in legs.values())
    return digest


#: Keys stay string literals: ``tests/test_ci_node_ids.py`` reads them
#: without importing this module.
RECORDS = {
    "fig02": _figure("fig02", "fig02_unloaded_latency"),
    "fig07": _figure("fig07", "fig07_fairness"),
    "table1": _figure("table1", "table1_overheads"),
    "fig13": _figure("fig13", "fig13_virtual_view"),
    "fig14": _figure("fig14", "fig14_read_ratio"),
    "fig15": _figure("fig15", "fig15_latency_scenarios"),
    "switch_identity": Record(switch_identity_digest),
    "conditioning_identity": Record(conditioning_digest),
    "kv_identity": Record(kv_identity_digest),
    "snapshots": Record(metrics_snapshots),
    "device_replay": Record(device_replay_digest),
    "sweep_points": Record(sweep_points_digest),
}


def frozen(name: str):
    return json.loads((DATA_DIR / f"{name}.json").read_text(encoding="utf-8"))


def live(name: str):
    # The JSON round trip makes tuples lists and keys strings, as frozen.
    return json.loads(json.dumps(RECORDS[name].produce()))


def serialise(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def flatten(value, path: tuple = ()) -> dict:
    """Path (the tuple of dict keys and list indices) -> leaf; an empty
    dict or list is a leaf of its own."""
    if not value or not isinstance(value, (dict, list)):
        return {path: value}
    leaves = {}
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        leaves.update(flatten(item, path + (key,)))
    return leaves


def show(path: tuple) -> str:
    text = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return text.removeprefix(".") or "(root)"


def diff(frozen_value, live_value, rtol: float = 0.0) -> list:
    """Every leaf that differs, as ``(fails, line)``: numeric leaves by
    |relative change|, largest first, then every other changed leaf (the
    digests), then added and removed paths.  A leaf passes only if both
    sides have it with the same type and it is equal or, for a float,
    within ``rtol`` of the frozen magnitude."""
    old, new = flatten(frozen_value), flatten(live_value)
    moved, changed = [], []
    for path, before in old.items():
        after = new.get(path, before)
        if after == before and type(after) is type(before):
            continue
        fails = type(after) is not type(before) or not isinstance(before, float)
        fails = fails or not abs(after - before) <= rtol * max(abs(before), 1e-9)
        if type(before) in (int, float) and type(after) in (int, float):
            change = (after - before) / abs(before) if before else math.copysign(math.inf, after)
            line = f"{change:+10.4%}  {show(path)}: {before!r} -> {after!r}"
            moved.append((-abs(change), fails, line))
        else:
            changed.append((fails, f"   changed  {show(path)}: {before!r} -> {after!r}"))
    moved.sort(key=lambda entry: entry[0])
    return (
        [(fails, line) for _, fails, line in moved]
        + changed
        + [(True, f"     added  {show(path)} = {new[path]!r}") for path in new if path not in old]
        + [(True, f"   removed  {show(path)} = {old[path]!r}") for path in old if path not in new]
    )


def main(argv=None) -> int:
    """``--write``: re-freeze; ``--diff``: print what moved, marking with
    ``!`` each leaf that fails the comparison, and exit 1 if any does."""
    parser = argparse.ArgumentParser(prog="python -m tests.golden.records")
    action = parser.add_mutually_exclusive_group(required=True)
    for flag, verb in (("--write", "re-freeze"), ("--diff", "show what moved in")):
        action.add_argument(flag, nargs="*", metavar="NAME", help=f"{verb} these (default: all)")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the producers' premises are asserts: run without -O")
    names = args.diff if args.write is None else args.write
    unknown = [name for name in names if name not in RECORDS]
    if unknown:
        parser.error(f"unknown record {', '.join(unknown)}; known: {', '.join(RECORDS)}")
    # Every rig runs, asserting its premises, before any file is written.
    values = {name: live(name) for name in names or RECORDS}
    failed = False
    for name, value in values.items():
        if args.write is not None:
            (DATA_DIR / f"{name}.json").write_text(serialise(value), encoding="utf-8")
            print(f"wrote {name}")
            continue
        rtol = RECORDS[name].rtol
        lines = diff(frozen(name), value, rtol)
        broken = any(fails for fails, _ in lines)
        failed |= broken
        verdict = "fails its comparison" if broken else "within its tolerance"
        tolerance = f"rtol {rtol}" if rtol else "exact"
        summary = f"{len(lines)} leaves differ, {verdict} ({tolerance})" if lines else "unchanged"
        print(f"{name}: {summary}")
        for fails, line in lines:
            print(f"{'!' if fails else ' '} {line}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
