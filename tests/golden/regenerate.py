"""Regenerate the golden-figure JSON files.

Run after an *intentional* behaviour change (new scheduler logic, new
seed derivation, retuned device profile) and commit the diff::

    PYTHONPATH=src python tests/golden/regenerate.py

The configs here are the single source of truth -- the golden tests
import them, so the test always runs exactly what the files record.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import struct
from pathlib import Path
from unittest import mock

DATA_DIR = Path(__file__).resolve().parent / "data"

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


#: The driver under ``repro.harness.experiments`` each golden runs.
GOLDEN_DRIVERS = {
    "fig02": "fig02_unloaded_latency",
    "fig07": "fig07_fairness",
    "table1": "table1_overheads",
    "fig13": "fig13_virtual_view",
    "fig14": "fig14_read_ratio",
    "fig15": "fig15_latency_scenarios",
}


def golden_module(name: str):
    """The experiment module a ``GOLDEN_CONFIGS`` entry runs."""
    return importlib.import_module(f"repro.harness.experiments.{GOLDEN_DRIVERS[name]}")


#: The decision-identity rig (``tests/core/test_switch_identity.py``):
#: a seeded Gimbal testbed small enough for tier-1, with 4 KiB and
#: 128 KiB tenants on both sides of a fragmented device, so tokens,
#: deficits and virtual slots all bind and both monitors visit all four
#: congestion states (overload discards included) within the run.
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

    ``decisions`` covers the ordered ``(now, tenant, op, lba)`` stream
    at ``SsdPipeline.device_submit``; ``trajectory`` covers
    ``(now, rate.target_rate, write_cost.cost)`` sampled after every
    device completion.  Floats are hashed by their IEEE-754 bytes, so
    one flipped bit in the switch's arithmetic changes the digest.
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
    return {
        "decisions": decisions.hexdigest(),
        "trajectory": trajectory.hexdigest(),
        **counts,
    }


def conditioning_digest() -> dict:
    """Hash the complete FTL state each conditioning routine leaves.

    One sha256 per conditioned device over every field of
    ``Ftl.snapshot()`` (mapping, reverse map, valid counts, block
    pools, open slots, erase counts, stats), with the lifetime
    program/erase counts alongside so a mismatch says which way the
    layout moved.  The snapshot is taken from the conditioning cache's
    entry, i.e. before conditioning zeroes the counters.
    """
    from repro.sim.engine import Simulator
    from repro.ssd.conditioning import (
        _snapshot_cache,
        clear_conditioning_cache,
        condition_device,
    )
    from repro.ssd.device import SsdDevice

    rigs = ("clean", "fragmented")
    digests = {}
    for name in rigs:
        clear_conditioning_cache()
        condition_device(SsdDevice(Simulator()), name)
        (snap,) = _snapshot_cache.values()
        stats = snap["stats"]
        state = dict(
            snap, stats=vars(stats), page_map=snap["page_map"].tolist(), rmap=snap["rmap"].tolist()
        )
        digests[name] = {
            "state": hashlib.sha256(
                json.dumps(state, sort_keys=True).encode("ascii")
            ).hexdigest(),
            "host_programs": stats.host_programs,
            "gc_programs": stats.gc_programs,
            "wl_programs": stats.wl_programs,
            "erases": stats.erases,
        }
    clear_conditioning_cache()
    return digests


#: The KV op-path identity rig (``tests/kv/test_kv_identity.py``): a
#: hand-written churn schedule small enough for tier-1 that still
#: enters every completion shape of the closed-loop YCSB path --
#: memtable hits, table reads and definite misses (A, C), latest-biased
#: reads over a growing key space (D), scans (E) and get-then-put
#: chains (F) -- with arrivals and departures overlapping so
#: ``begin_measurement`` swaps histograms under in-flight operations.
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

    Per execution leg: ``ops`` covers the ordered
    ``(now, tree, "get"|"put"|"scan", key)`` stream entering
    :class:`~repro.kv.lsm.LsmTree` (load phase, client operations and
    read-modify-write chains alike); ``results`` covers, per tenant in
    arrival order, both latency histograms bucket by bucket with their
    exact float totals, ``kops`` and the LSM counters.  Floats are
    hashed by their IEEE-754 bytes, so a key drawn from a different
    random number, an operation completing one event early or a
    latency landing in the wrong histogram changes the digest.
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
    return {
        leg: _kv_identity_leg(cluster_config, specs, shards)
        for leg, shards in config["legs"].items()
    }


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


def _write(name: str, payload: dict) -> None:
    path = DATA_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, kwargs in GOLDEN_CONFIGS.items():
        _write(name, golden_module(name).run(**kwargs))
    _write("switch_identity", switch_identity_digest())
    _write("conditioning_identity", conditioning_digest())
    _write("kv_identity", kv_identity_digest())


if __name__ == "__main__":
    main()
