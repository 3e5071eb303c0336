"""Aging study: Gimbal's mechanisms on worn, map-cache-limited devices.

The paper evaluates fresh devices only; this experiment runs the same
multi-tenant stack on devices deep into their service life, where two
fidelity effects the idealized FTL lacks start moving exactly the
signals Gimbal's control loops consume:

* a **DFTL mapping cache** too small for the working set adds
  translation-page reads in front of host reads (tail-latency
  inflation) and writeback programs behind mapping updates (extra
  write cost);
* **wear** -- skewed per-block erase counts, endurance-driven block
  retirement, static wear-levelling migrations -- adds background
  relocation work and erodes the effective overprovisioning the
  write-cost worst case is derived from.

Axes: scheme x device age x mapping-cache size x tenant (writer)
skew.  Rollups per point: read p99 (and, in ``finalize``, its
inflation relative to the full-map row of the same scheme/age/skew),
mapping-cache hit rate, the write-cost estimator's converged cost vs
the cost the device actually charged (estimator error), and Jain
fairness over the writers' achieved bandwidth -- the per-tenant wear
contribution under credit admission.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.write_cost import actual_write_cost
from repro.harness.experiments.common import (
    DEFAULT_MEASURE_US,
    DEFAULT_WARMUP_US,
    Sweep,
    TestbedConfig,
    derived_run,
    merge_rows,
    read_spec,
    write_spec,
)
from repro.harness.report import format_table
from repro.harness.testbed import Testbed
from repro.metrics.fairness import jain_index
from repro.ssd.geometry import SsdGeometry

#: Per-block P/E endurance for the aged profiles.  2000 cycles (a
#: conservative TLC rating) keeps retirement observable: at age 0.8
#: the wear skew pushes a visible fraction of blocks against the
#: clamp, so they retire during the measured run.
ENDURANCE_CYCLES = 2000

#: Static wear-levelling trigger (erase-count spread per channel).
STATIC_WL_THRESHOLD = 200


def _aged_geometry() -> SsdGeometry:
    """Enterprise-style geometry with real spare capacity.

    The default 12%-overprovisioned geometry has no blocks to lose:
    the FTL's viability floor would veto every retirement.  25% OP
    (typical for write-optimised enterprise SKUs) leaves several
    blocks per channel that endurance death can actually consume.
    """
    return SsdGeometry(
        num_channels=8, blocks_per_channel=44, pages_per_block=256, overprovision=0.25
    )


def _point(
    scheme: str,
    age: float,
    cache_pages: Optional[int],
    skew: float,
    readers: int,
    writers: int,
    region_pages: int,
    warmup_us: float,
    measure_us: float,
    seed: int,
) -> dict:
    """One multi-tenant run on one aged device configuration."""
    overrides = {
        "endurance_cycles": ENDURANCE_CYCLES,
        "static_wear_threshold": STATIC_WL_THRESHOLD,
    }
    if cache_pages is not None:
        overrides["map_cache_pages"] = cache_pages
    testbed = Testbed(
        TestbedConfig(
            scheme=scheme,
            condition="aged",
            device_age=age,
            geometry=_aged_geometry(),
            profile_overrides=overrides,
            seed=seed,
        )
    )
    specs = [read_spec(f"reader{index}", io_pages=1) for index in range(readers)]
    for index in range(writers):
        # Geometric queue-depth decay models tenant skew: writer 0 is
        # the heavy hitter, later writers offer progressively less
        # load.  skew=1.0 is a uniform population.
        depth = max(1, int(round(16 * skew**index)))
        specs.append(write_spec(f"writer{index}", io_pages=1, queue_depth=depth))
    for spec in specs:
        testbed.add_worker(spec, region_pages=region_pages)
    results = testbed.run(warmup_us=warmup_us, measure_us=measure_us)

    device = testbed.devices["ssd0"]
    ftl = device.ftl
    cache = ftl.map_cache
    wear = ftl.wear_stats()
    map_reads = cache.misses if cache is not None else 0
    map_writes = cache.writebacks if cache is not None else 0
    cost_actual = actual_write_cost(device.profile, ftl.stats, map_reads, map_writes)
    estimator = getattr(testbed.target.pipelines["ssd0"].scheduler, "write_cost", None)
    cost_estimated = estimator.cost if estimator is not None else None
    cost_error = (
        abs(cost_estimated - cost_actual) / cost_actual
        if cost_estimated is not None and cost_actual > 0
        else None
    )

    reader_rows = [w for w in results["workers"] if w["name"].startswith("reader")]
    writer_rows = [w for w in results["workers"] if w["name"].startswith("writer")]
    writer_bws = [w["bandwidth_mbps"] for w in writer_rows]
    read_count = sum(w["read_latency"]["count"] for w in reader_rows)
    return {
        "scheme": scheme,
        "age": age,
        "cache_pages": cache_pages,
        "skew": skew,
        "total_bandwidth_mbps": results["total_bandwidth_mbps"],
        "read_p99_us": max((w["read_latency"]["p99"] for w in reader_rows), default=0.0),
        "read_count": read_count,
        "map_hit_rate": cache.hit_rate if cache is not None else 1.0,
        "map_misses": map_reads,
        "map_writebacks": map_writes,
        "write_amplification": ftl.stats.write_amplification,
        "wl_migrations": ftl.stats.wl_migrations,
        "retired_blocks": wear.retired_blocks,
        "wear_spread": wear.spread,
        "wear_jain": jain_index(writer_bws) if any(bw > 0 for bw in writer_bws) else 0.0,
        "write_cost_actual": cost_actual,
        "write_cost_estimated": cost_estimated,
        "write_cost_error": cost_error,
    }


def sweep(
    schemes=("gimbal", "vanilla"),
    ages=(0.0, 0.8),
    cache_sizes=(None, 8),
    skews=(0.6,),
    readers: int = 2,
    writers: int = 4,
    region_pages: int = 2048,
    warmup_us: float = DEFAULT_WARMUP_US,
    measure_us: float = DEFAULT_MEASURE_US,
    root_seed: int = 42,
):
    """One point per (scheme, age, cache size, skew) combination."""
    sw = Sweep("aging", root_seed=root_seed)
    for scheme in schemes:
        for age in ages:
            for cache_pages in cache_sizes:
                for skew in skews:
                    label = (
                        f"scheme={scheme},age={age},cache={cache_pages},skew={skew}"
                    )
                    sw.point(
                        _point,
                        label=label,
                        scheme=scheme,
                        age=age,
                        cache_pages=cache_pages,
                        skew=skew,
                        readers=readers,
                        writers=writers,
                        region_pages=region_pages,
                        warmup_us=warmup_us,
                        measure_us=measure_us,
                        seed=sw.seed_for(label),
                    )
    return sw


def finalize(results) -> Dict[str, object]:
    rows = merge_rows(results)
    # p99 inflation: each row relative to the full-map (cache=None)
    # row of the same scheme/age/skew -- the share of tail latency the
    # translation cache is responsible for.
    baseline: Dict[tuple, float] = {}
    for row in rows:
        if row["cache_pages"] is None:
            baseline[(row["scheme"], row["age"], row["skew"])] = row["read_p99_us"]
    for row in rows:
        base = baseline.get((row["scheme"], row["age"], row["skew"]), 0.0)
        row["read_p99_inflation"] = row["read_p99_us"] / base if base > 0 else 1.0
    return {"figure": "aging", "rows": rows}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = []
    for row in results["rows"]:
        table_rows.append(
            (
                row["scheme"],
                row["age"],
                "full" if row["cache_pages"] is None else row["cache_pages"],
                row["skew"],
                row["total_bandwidth_mbps"],
                row["read_p99_us"],
                row["read_p99_inflation"],
                row["map_hit_rate"],
                row["wear_jain"],
                row["retired_blocks"],
                "-" if row["write_cost_error"] is None else f"{row['write_cost_error']:.2f}",
            )
        )
    return format_table(
        [
            "scheme",
            "age",
            "map cache",
            "skew",
            "MB/s",
            "read p99 us",
            "p99 infl",
            "map hit",
            "wear Jain",
            "retired",
            "cost err",
        ],
        table_rows,
        title="Aging: schemes on worn devices with a DFTL mapping cache",
    )
