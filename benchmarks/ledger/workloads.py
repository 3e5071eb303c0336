"""The four ledger workloads, driven through public entry points only.

Each workload object answers the same five questions:

``build(seed, scratch, ...)``  stand the system up, ready to run (``setup_s``)
``run(state, timed)``          the timed region, cut into ``timed(fn, phase)`` slices
``check(state, result)``       conservation laws that hold inside one run
``headline(result, aux)``      the simulated end-to-end numbers
``counts(state, result, ...)`` count rows (counters pass only)

plus ``aux(seed)``, the short auxiliary run behind ``anchor_err_pct``
(and the f-Util denominators).  ``--seed`` is the only input: it seeds
every RNG stream of the system under test (``TestbedConfig.seed``,
``KvClusterConfig.seed``, the suite's ``root_seed``).

Why these four (the README has the measured shares):

* ``fio-read``     one tenant, vanilla pass-through: kernel dispatch, the
  fabric/NIC path and the SSD read path do all the work; ``core`` and
  ``kv`` are bypassed, FTL writes and GC are idle.
* ``mt-mixed``     sixteen tenants under the Gimbal switch, reads beside
  writes: ``core`` does most of the work and the same ``ssd`` layer runs
  programs, GC and the write buffer, so a read-path gain that costs the
  write path shows.  Fairness and tail latency mean something here.
* ``kv-rack``      the only workload that enters ``kv``, ``workloads.ycsb``,
  the ``sim.shard`` window driver and ``fabric.boundary``.
* ``suite-replay`` what a suite user pays *around* the simulation: sweep
  expansion, code fingerprints, cache lookups and merges (warm passes),
  per-point set-up (cold pass).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from repro.core import GimbalScheduler
from repro.fabric.network import NetworkPort
from repro.fabric.pipeline import SsdPipeline
from repro.fabric.smartnic import NicCore
from repro.harness.cache import ResultCache, clear_fingerprint_caches
from repro.harness.experiments.common import read_spec, run_workers, write_spec
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.orchestrator import run_suite, suite_experiments
from repro.harness.testbed import Testbed, TestbedConfig
from repro.metrics import jain_index
from repro.metrics.fairness import f_util
from repro.metrics.histogram import LatencyHistogram
from repro.ssd import SsdDevice
from repro.workloads import FioSpec
from repro.workloads.population import TenantPopulation

Timed = Callable[..., Any]

#: ``sim_read_tail_us`` is the highest percentile with at least ten
#: samples beyond it: p99.9 from 10 000 samples, p99 from 1 000.
MIN_P999_SAMPLES = 10_000
MIN_P99_SAMPLES = 1_000


def _live(cls: type) -> list:
    """Every live instance of ``cls``, found from outside the program.

    The counters pass reads public ``stats`` attributes off the
    components themselves; discovering them through the collector works
    the same for a testbed, an unsharded rack and an inline-sharded
    rack, whose devices sit behind the shard seam.
    """
    return [obj for obj in gc.get_objects() if type(obj) is cls]


def kernel_counts(session) -> Dict[str, float]:
    """Count rows read off the capture session's kernel probe."""
    probe = session.probe
    return {
        "sim.events": probe.fired_total,
        "sim.heap_high_water": probe.heap_high_water,
        "core.refill_wakeups": probe.fired_by_callback.get(
            "GimbalScheduler._on_refill_wakeup", 0
        ),
    }


def component_counts(session) -> Dict[str, float]:
    """Count rows the simulation workloads share, read at the end of a
    run off the kernel probe and the live components."""
    gc.collect()
    rows = kernel_counts(session)
    ports = _live(NetworkPort)
    pipelines = _live(SsdPipeline)
    cores = _live(NicCore)
    switches = _live(GimbalScheduler)
    devices = _live(SsdDevice)
    ios = sum(p.stats.reads + p.stats.writes + p.stats.trims for p in pipelines)
    host_programs = sum(d.ftl.stats.host_programs for d in devices)
    all_programs = host_programs + sum(
        d.ftl.stats.gc_programs + d.ftl.stats.wl_programs for d in devices
    )
    core_time = sum(core.sim.now for core in cores)
    rows.update(
        {
            "fabric.net_messages": sum(port.messages_sent for port in ports),
            "fabric.net_bytes": sum(port.bytes_sent for port in ports),
            "fabric.pipeline_ios": ios,
            "fabric.nic_busy_share": (
                sum(core.busy_us_total for core in cores) / core_time if core_time else 0.0
            ),
            "core.wakeups_per_io": rows["core.refill_wakeups"] / ios if ios else 0.0,
            "core.slot_deferrals": sum(s.drr.deferrals for s in switches),
            "core.bucket_denials": sum(s.rate.bucket.denials for s in switches),
            "core.congestion_transitions": sum(
                monitor.transitions for s in switches for monitor in s.monitors.values()
            ),
            "core.write_cost": (
                sum(s.write_cost.cost for s in switches) / len(switches) if switches else 0.0
            ),
            "ssd.read_cmds": sum(d.stats.read_commands for d in devices),
            "ssd.write_cmds": sum(d.stats.write_commands for d in devices),
            "ssd.write_amp": (
                all_programs / host_programs if host_programs else float(bool(devices))
            ),
            "ssd.gc_programs": sum(d.ftl.stats.gc_programs for d in devices),
            "ssd.erases": sum(d.ftl.stats.erases for d in devices),
            "ssd.buffer_read_hits": sum(d.stats.buffer_read_hits for d in devices),
        }
    )
    return rows


def _error_pct(measured: float, paper: float) -> float:
    return abs(measured - paper) / paper * 100.0


def _vanilla_mbps(
    condition: str,
    specs: Sequence[FioSpec],
    seed: int,
    warmup_us: float,
    measure_us: float,
    region_pages: int,
) -> float:
    """Total bandwidth of ``specs`` alone on an unmanaged device."""
    results = run_workers(
        TestbedConfig(scheme="vanilla", condition=condition, seed=seed),
        list(specs),
        warmup_us=warmup_us,
        measure_us=measure_us,
        region_pages=region_pages,
    )
    return results["total_bandwidth_mbps"]


# ----------------------------------------------------------------------
# fio-read, mt-mixed: closed-loop fio workers on one Testbed
# ----------------------------------------------------------------------
@dataclass
class FioWorkload:
    """``Testbed.run(warmup, measure)`` advanced in equal simulated-time
    slices (results are byte-identical to the unsliced call)."""

    name: str
    why: str
    scheme: str
    condition: str
    specs: List[FioSpec]
    region_pages: int
    warmup_us: float
    measure_us: float
    slice_us: float
    #: The auxiliary device-anchor run behind ``anchor_err_pct``:
    #: ``label``, ``paper_mbps`` and the ``run`` arguments of ``_vanilla_mbps``.
    anchor: Dict[str, Any]

    #: Twin legs of the traced pass: name -> extra ``run.spawn`` arguments.
    twins = {"batch": {"backend": "batch"}}

    def build(self, seed: int, scratch: Path, **_: Any) -> Testbed:
        testbed = Testbed(
            TestbedConfig(scheme=self.scheme, condition=self.condition, seed=seed)
        )
        for spec in self.specs:
            testbed.add_worker(spec, region_pages=self.region_pages)
        return testbed

    def run(self, testbed: Testbed, timed: Timed) -> Dict[str, Any]:
        sim = testbed.sim
        workers = testbed.workers

        def first_slice() -> None:
            for worker in workers:
                worker.start()
            sim.run(until_us=self.slice_us)

        end_us = self.warmup_us + self.measure_us
        now_us = self.slice_us
        timed(first_slice)
        while now_us < end_us:
            if now_us == self.warmup_us:
                for worker in workers:
                    worker.begin_measurement()
            now_us = min(now_us + self.slice_us, end_us)
            timed(lambda: sim.run(until_us=now_us))
        result = testbed.results()
        pooled = LatencyHistogram()
        for worker in workers:
            pooled.merge(worker.read_latency)
        result["pooled_read_latency"] = pooled.summary()
        return result

    def check(self, testbed: Testbed, result: Dict[str, Any]) -> Dict[str, Any]:
        attempted = failed = 0
        violations: List[str] = []
        for initiator in testbed.initiators.values():
            for session in initiator.sessions:
                attempted += session.submitted
                lost = session.submitted - session.completed - session.inflight
                if lost:
                    failed += abs(lost)
                    violations.append(
                        f"{session.tenant_id}: issued {session.submitted} != "
                        f"completed {session.completed} + in flight {session.inflight}"
                    )
                if session.inflight > session.queue_depth:
                    failed += session.inflight - session.queue_depth
                    violations.append(
                        f"{session.tenant_id}: {session.inflight} in flight over "
                        f"queue depth {session.queue_depth}"
                    )
        for pipeline in testbed.target.pipelines.values():
            stats = pipeline.stats
            by_tenant = sum(stats.by_tenant_bytes.values())
            if by_tenant != stats.read_bytes + stats.write_bytes:
                failed += 1
                violations.append(
                    f"{pipeline.name}: per-tenant bytes {by_tenant} != "
                    f"pipeline bytes {stats.read_bytes + stats.write_bytes}"
                )
        return {"attempted": attempted, "failed": failed, "violations": violations}

    def headline(self, result: Dict[str, Any], aux: Dict[str, Any]) -> Dict[str, Any]:
        workers = result["workers"]
        pooled = result["pooled_read_latency"]
        if len(workers) > 1:
            standalone = aux["standalone_mbps"]
            fairness = min(
                f_util(
                    worker["bandwidth_mbps"],
                    standalone["read" if spec.read_ratio >= 1.0 else "write"],
                    len(workers),
                )
                for worker, spec in zip(workers, self.specs)
            )
        else:
            fairness = 1.0  # one tenant is trivially fair
        return {
            "sim_ops_per_s": sum(worker["iops"] for worker in workers),
            # All tenants' reads pooled.  On mt-mixed the p99 sits on the
            # cliff between reads served at once and reads stalled behind
            # GC and moved 25 % between seeds; p99.9 is past the cliff.
            "sim_read_tail_us": pooled["p999" if pooled["count"] >= MIN_P999_SAMPLES else "p99"],
            "read_samples": int(pooled["count"]),
            "sim_fairness": fairness,
            "anchor_err_pct": _error_pct(aux["anchor_mbps"], self.anchor["paper_mbps"]),
        }

    def aux(self, seed: int) -> Dict[str, Any]:
        """The device-anchor run, plus f-Util's standalone denominators."""
        out: Dict[str, Any] = {
            "anchor": self.anchor["label"],
            "anchor_mbps": _vanilla_mbps(seed=seed, **self.anchor["run"]),
        }
        if len(self.specs) > 1:
            out["standalone_mbps"] = {
                kind: _vanilla_mbps(self.condition, [spec], seed, 20_000.0, 50_000.0, 16384)
                for kind, spec in (("read", read_spec("r", 1)), ("write", write_spec("w", 1)))
            }
        return out

    def counts(self, testbed: Testbed, result: Dict[str, Any], session) -> Dict[str, float]:
        rows = component_counts(session)
        rows["workloads.ops_issued"] = sum(
            session_.submitted
            for initiator in testbed.initiators.values()
            for session_ in initiator.sessions
        )
        rows["workloads.tenants"] = len(testbed.workers)
        return rows


# ----------------------------------------------------------------------
# kv-rack: tenant churn over a sharded two-JBOF rack
# ----------------------------------------------------------------------
class _CountingCluster(KvCluster):
    """Keeps every tenant's LSM tree reachable after it departs, so the
    counters pass can read ``tree.stats`` (the cluster drops instances
    on departure).  Used in the counters pass only."""

    def __init__(self, *args: Any, **kwargs: Any):
        self.seen_trees: list = []
        super().__init__(*args, **kwargs)

    def add_instance(self, *args: Any, **kwargs: Any):
        runner = super().add_instance(*args, **kwargs)
        self.seen_trees.append(runner.tree)
        return runner


class KvRackWorkload:
    """``KvCluster.run_population`` is monolithic: one slice per
    repetition, so this workload leans on repetitions for steadiness."""

    name = "kv-rack"
    why = (
        "tenant churn over a 2-JBOF rack in 2 inline shards: the only workload "
        "that runs kv, workloads.ycsb, the sim.shard window driver and fabric.boundary"
    )
    #: The tenant mix is pinned (the legacy BENCH_rack population):
    #: twelve draws from a heavy-tailed class mix moved every metric of
    #: this workload 2-5x from one seed to the next, so a change could
    #: not be told from a redraw.  ``--seed`` still seeds every key,
    #: LSM and device stream.
    POPULATION_SEED = 5
    TENANTS = 12
    HORIZON_US = 200_000.0
    SHARDS = 2
    #: Paper anchor (EXPERIMENTS.md: clean sequential write 1.1-1.4 GB/s).
    SEQ_WRITE_MBPS = 1250.0
    #: Twin legs of the traced pass: name -> extra ``run.spawn`` arguments.
    twins = {"batch": {"backend": "batch"}, "unsharded": {"unsharded": True}}

    def build(
        self, seed: int, scratch: Path, unsharded: bool = False, counting: bool = False
    ):
        cluster_cls = _CountingCluster if counting else KvCluster
        cluster = cluster_cls(
            KvClusterConfig(
                scheme="gimbal", condition="clean", num_jbofs=2, ssds_per_jbof=2, seed=seed
            ),
            shards=None if unsharded else self.SHARDS,
            shard_mode="inline",
        )
        specs = TenantPopulation(
            tenants=self.TENANTS,
            horizon_us=self.HORIZON_US,
            churn=0.8,
            seed=self.POPULATION_SEED,
        ).generate()
        return cluster, specs

    def run(self, state, timed: Timed) -> Dict[str, Any]:
        cluster, specs = state
        return timed(lambda: cluster.run_population(specs))

    def check(self, state, result: Dict[str, Any]) -> Dict[str, Any]:
        cluster, specs = state
        tenants = result["tenants"]
        attempted = sum(
            int(t["read_latency"]["count"] + t["update_latency"]["count"]) for t in tenants
        )
        failed = 0
        violations: List[str] = []
        if result["megas_leaked"] or result["megas_allocated"] != result["megas_freed"]:
            failed += max(
                abs(result["megas_leaked"]),
                abs(result["megas_allocated"] - result["megas_freed"]),
            )
            violations.append(
                f"megas: allocated {result['megas_allocated']}, freed "
                f"{result['megas_freed']}, leaked {result['megas_leaked']}"
            )
        if not (cluster.tenants_arrived == cluster.tenants_departed == len(specs)):
            failed += abs(cluster.tenants_arrived - cluster.tenants_departed) or 1
            violations.append(
                f"tenants: planned {len(specs)}, arrived {cluster.tenants_arrived}, "
                f"departed {cluster.tenants_departed}"
            )
        for tenant in tenants:
            if tenant["megas_acquired"] != tenant["megas_released_total"]:
                failed += 1
                violations.append(f"{tenant['name']}: megas acquired != released")
        executor = cluster.shard_executor
        if executor is not None:
            # Every message a shard emitted was routed exactly once.
            emitted = sum(channel.stats()["messages_sent"] for channel in executor.channels)
            if emitted != result["shard"]["messages"]:
                failed += abs(emitted - result["shard"]["messages"])
                violations.append(
                    f"shard seam: {emitted} messages emitted, "
                    f"{result['shard']['messages']} routed"
                )
        return {"attempted": attempted, "failed": failed, "violations": violations}

    def headline(self, result: Dict[str, Any], aux: Dict[str, Any]) -> Dict[str, Any]:
        tenants = result["tenants"]
        kops = [tenant["kops"] for tenant in tenants]
        eligible = [
            tenant["read_latency"]
            for tenant in tenants
            if tenant["read_latency"]["count"] >= MIN_P99_SAMPLES
        ]
        return {
            "sim_ops_per_s": sum(kops) * 1000.0,
            # Per-tenant summaries cannot be pooled; worst tenant with
            # enough samples for a p99.
            "sim_read_tail_us": max(summary["p99"] for summary in eligible),
            "read_samples": int(min(summary["count"] for summary in eligible)),
            "sim_fairness": jain_index(kops),
            "anchor_err_pct": _error_pct(aux["anchor_mbps"], self.SEQ_WRITE_MBPS),
        }

    @staticmethod
    def shadow_read_share(result: Dict[str, Any]) -> float:
        """Share of blob reads steered to the shadow replica."""
        reads = result["reads_to_primary"] + result["reads_to_shadow"]
        return result["reads_to_shadow"] / reads if reads else 0.0

    def aux(self, seed: int) -> Dict[str, Any]:
        """Clean sequential-write anchor: what LSM flushes and compactions
        ride on (paper: 1.1-1.4 GB/s; the midpoint is the reference)."""
        return {
            "anchor": "clean 128 KiB QD4 sequential write vs 1250 MB/s",
            "anchor_mbps": _vanilla_mbps(
                "clean", [write_spec("w0", 32)], seed, 20_000.0, 80_000.0, 16384
            ),
        }

    def counts(self, state, result: Dict[str, Any], session) -> Dict[str, float]:
        cluster, specs = state
        rows = component_counts(session)
        stats = [tree.stats for tree in cluster.seen_trees]
        gets = sum(s.gets for s in stats)
        puts = sum(s.puts for s in stats)
        rows.update(
            {
                "kv.puts": puts,
                "kv.gets": gets,
                "kv.memtable_hit_share": (
                    sum(s.memtable_hits for s in stats) / gets if gets else 0.0
                ),
                "kv.flushes": sum(s.flushes for s in stats),
                "kv.compactions": sum(s.compactions for s in stats),
                "kv.stalled_puts": sum(s.stalled_puts for s in stats),
                "kv.megas_allocated": result["megas_allocated"],
                "kv.shadow_read_share": self.shadow_read_share(result),
                "workloads.ops_issued": puts + gets,
                "workloads.tenants": len(specs),
            }
        )
        shard = result.get("shard")
        if shard is not None:
            rows["sim.shard_windows"] = shard["windows"]
            rows["sim.shard_messages"] = shard["messages"]
            rows["sim.events_per_window"] = rows["sim.events"] / shard["windows"]
            rows["sim.barrier_stall_s"] = cluster.shard_report["barrier_stall_s"]
        return rows


# ----------------------------------------------------------------------
# suite-replay: one cold pass, then warm passes, through the result cache
# ----------------------------------------------------------------------
class SuiteReplayWorkload:
    name = "suite-replay"
    why = (
        "fig02 + fig14 through run_suite and the result cache, one cold pass then "
        "warm passes: what a suite user pays around the simulation (harness, not sim)"
    )
    KWARGS = {"fig02": {"measure_us": 10_000.0}, "fig14": {"duration_us": 10_000.0}}
    WARM_PASSES = 5
    #: No twin legs: the suite is measured as its users run it.
    twins: Dict[str, Dict[str, Any]] = {}
    #: Paper anchor for fig02's first cell (EXPERIMENTS.md: ~75-80 us).
    UNLOADED_READ_US = 77.5

    def build(self, seed: int, scratch: Path, **_: Any):
        specs = [
            replace(spec, kwargs=dict(self.KWARGS[spec.name], root_seed=seed))
            for spec in suite_experiments(quick=True, names=list(self.KWARGS))
        ]
        return specs, ResultCache(Path(scratch) / "cache")

    def run(self, state, timed: Timed) -> Dict[str, Any]:
        specs, cache = state
        cold = timed(lambda: run_suite(specs, jobs=1, cache=cache), phase="cold")
        cold_stats = cache.stats.snapshot()
        journaled_s = sum(record["elapsed_s"] for record in cache.point_records())
        warm_mismatches = 0
        for _ in range(self.WARM_PASSES):
            clear_fingerprint_caches()
            before = cache.stats.snapshot()
            warm = timed(lambda: run_suite(specs, jobs=1, cache=cache), phase="warm")
            delta = cache.stats.delta_since(before)
            if (
                warm.results != cold.results
                or delta["hits"] != cold.points_total
                or delta["misses"]
            ):
                warm_mismatches += 1
        return {
            "experiments": cold.results,
            "points": cold.points_total,
            "passes": 1 + self.WARM_PASSES,
            "cold_cache_hits": cold.cache_hits,
            "cold_cache_misses": cold_stats["misses"],
            "warm_mismatches": warm_mismatches,
            # Host-side readings: never part of the simulated digest.
            "host": {
                "journaled_point_s": journaled_s,
                "cache_bytes_written": cold_stats["bytes_written"],
            },
        }

    def check(self, state, result: Dict[str, Any]) -> Dict[str, Any]:
        violations: List[str] = []
        failed = result["warm_mismatches"]
        if failed:
            violations.append(f"{failed} warm passes differ from the cold pass")
        if result["cold_cache_hits"] or result["cold_cache_misses"] != result["points"]:
            failed += 1
            violations.append("cold pass did not miss the cache on every point")
        return {
            "attempted": result["points"] * result["passes"],
            "failed": failed,
            "violations": violations,
        }

    @staticmethod
    def _rows(result: Dict[str, Any], figure: str) -> List[Dict[str, Any]]:
        return result["experiments"][figure]["rows"]

    def headline(self, result: Dict[str, Any], aux: Dict[str, Any]) -> Dict[str, Any]:
        reads = [
            row["avg_latency_us"]
            for row in self._rows(result, "fig02")
            if row["op"] == "rnd-read"
        ]
        unloaded = next(
            row["avg_latency_us"]
            for row in self._rows(result, "fig02")
            if (row["host"], row["op"], row["size_kb"]) == ("smartnic", "rnd-read", 4)
        )
        return {
            "sim_ops_per_s": sum(row["kiops"] for row in self._rows(result, "fig14")) * 1000.0,
            # fig02 is QD1, so there is no queueing tail to take a p99
            # of: the slowest read cell (256 KiB) stands in.
            "sim_read_tail_us": max(reads),
            "read_samples": len(reads),
            "sim_fairness": 1.0,  # no tenants compete inside a sweep point
            # The anchor is a cell of the suite's own output (fig02's
            # unloaded 4 KiB read), so this workload has no ``aux`` run.
            "anchor_err_pct": _error_pct(unloaded, self.UNLOADED_READ_US),
        }

    def counts(self, state, result: Dict[str, Any], session) -> Dict[str, float]:
        specs, cache = state
        # Components live and die inside a sweep point, so only the
        # kernel rows (summed over every point's simulator) are read.
        rows = kernel_counts(session)
        rows.update(
            {
                "harness.points": result["points"],
                "harness.cache_hits": cache.stats.hits,
                "harness.cache_misses": cache.stats.misses,
                "harness.cache_bytes_written": cache.stats.bytes_written,
                "workloads.ops_issued": result["points"] * result["passes"],
                "workloads.tenants": 0,
            }
        )
        return rows


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        FioWorkload(
            name="fio-read",
            why=(
                "one tenant, 4 KiB random read QD32, vanilla pass-through: kernel "
                "dispatch, fabric/NIC path and SSD read path only; core and kv bypassed"
            ),
            scheme="vanilla",
            condition="clean",
            specs=[FioSpec("w0", io_pages=1, queue_depth=32, read_ratio=1.0)],
            region_pages=8192,
            warmup_us=50_000.0,
            measure_us=500_000.0,
            slice_us=50_000.0,
            anchor={
                "label": "4 x QD32 4 KiB random read vs 1600 MB/s",
                "paper_mbps": 1600.0,
                "run": {
                    "condition": "clean",
                    "specs": [read_spec(f"r{i}", 1) for i in range(4)],
                    "warmup_us": 20_000.0,
                    "measure_us": 50_000.0,
                    "region_pages": 8192,
                },
            },
        ),
        FioWorkload(
            name="mt-mixed",
            why=(
                "16 tenants under the Gimbal switch, 8 readers beside 8 writers: core "
                "does most of the work; ssd runs programs, GC and the write buffer"
            ),
            scheme="gimbal",
            condition="clean",
            specs=[read_spec(f"r{i}", 1) for i in range(8)]
            + [write_spec(f"w{i}", 1) for i in range(8)],
            region_pages=1600,
            warmup_us=40_000.0,
            measure_us=160_000.0,
            slice_us=20_000.0,
            anchor={
                "label": "fragmented 4 KiB QD32 random write vs 180 MB/s",
                "paper_mbps": 180.0,
                "run": {
                    "condition": "fragmented",
                    "specs": [write_spec("w0", 1)],
                    "warmup_us": 50_000.0,
                    "measure_us": 100_000.0,
                    "region_pages": 16384,
                },
            },
        ),
        KvRackWorkload(),
        SuiteReplayWorkload(),
    )
}
