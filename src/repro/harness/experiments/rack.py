"""Rack-scale multi-JBOF churn: hundreds of tenants over N JBOFs.

The paper's application experiments (Sections 4.3, 5.6) run a handful
of DB instances against one JBOF.  This driver scales the same stack
to the rack: a heavy-hitter + long-tail :class:`TenantPopulation`
arrives, runs and departs over N JBOFs x M SSDs, exercising the full
tenant lifecycle -- file create/delete, mega-blob reclamation back to
the rack allocator, replica read steering -- under churn.

Axes: scheduling scheme x rack size (JBOF count) x churn rate x
population skew.  Each point reports rack occupancy, allocator
behaviour (a run must end with zero leaked mega blobs), per-tenant
fairness (Jain's index over per-tenant throughput) and the per-tenant
read-latency aggregate.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.experiments.common import build_sweep, derived_run, merge_rows
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.report import format_table
from repro.metrics.fairness import jain_index
from repro.sim.rng import derive_seed
from repro.workloads.population import TenantPopulation, peak_concurrent


def _aggregate(outcome: Dict[str, object]) -> Dict[str, object]:
    """Per-tenant fairness/latency rollup of one population run."""
    tenants = outcome["tenants"]
    kops = [tenant["kops"] for tenant in tenants]
    reads = [tenant["read_latency"] for tenant in tenants]
    read_count = sum(summary["count"] for summary in reads)
    read_mean = (
        sum(summary["mean"] * summary["count"] for summary in reads) / read_count
        if read_count
        else 0.0
    )
    return {
        "tenants_run": len(tenants),
        "peak_tenants": outcome["peak_tenants"],
        "peak_megas_in_use": outcome["peak_megas_in_use"],
        "megas_allocated": outcome["megas_allocated"],
        "megas_leaked": outcome["megas_leaked"],
        "reads_to_primary": outcome["reads_to_primary"],
        "reads_to_shadow": outcome["reads_to_shadow"],
        "drained_us": outcome["drained_us"],
        "total_kops": sum(kops),
        "jain": jain_index(kops) if any(k > 0 for k in kops) else 0.0,
        "read_avg_us": read_mean,
        "read_p999_us": max((summary["p999"] for summary in reads), default=0.0),
    }


def _point(
    scheme: str,
    jbofs: int,
    ssds_per_jbof: int,
    tenants: int,
    churn: float,
    skew: float,
    horizon_us: float,
    condition: str,
    seed: int,
) -> dict:
    """One full churn schedule on one rack configuration."""
    cluster = KvCluster(
        KvClusterConfig(
            scheme=scheme,
            condition=condition,
            num_jbofs=jbofs,
            ssds_per_jbof=ssds_per_jbof,
            seed=seed,
        )
    )
    population = TenantPopulation(
        tenants=tenants,
        horizon_us=horizon_us,
        skew=skew,
        churn=churn,
        seed=derive_seed(seed, "population"),
    )
    specs = population.generate()
    outcome = cluster.run_population(specs)
    row = {
        "scheme": scheme,
        "jbofs": jbofs,
        "churn": churn,
        "skew": skew,
        "peak_planned": peak_concurrent(specs),
    }
    row.update(_aggregate(outcome))
    return row


def sweep(
    schemes=("gimbal", "vanilla"),
    rack=(4,),
    churns=(0.8,),
    skews=(0.9,),
    tenants: int = 200,
    ssds_per_jbof: int = 4,
    horizon_us: float = 600_000.0,
    condition: str = "clean",
    root_seed: int = 42,
):
    """One point per (scheme, rack size, churn, skew) combination."""
    return build_sweep(
        "rack",
        {"scheme": schemes, "jbofs": rack, "churn": churns, "skew": skews},
        _point,
        root_seed=root_seed,
        ssds_per_jbof=ssds_per_jbof,
        tenants=tenants,
        horizon_us=horizon_us,
        condition=condition,
    )


def finalize(results) -> Dict[str, object]:
    rows = merge_rows(results)
    leaked = sum(row["megas_leaked"] for row in rows)
    if leaked:
        raise RuntimeError(f"rack churn leaked {leaked} mega blobs across the sweep")
    return {"figure": "rack", "rows": rows}


run = derived_run(sweep, finalize)


def summarize(results: Dict[str, object]) -> str:
    table_rows = [
        (
            row["scheme"],
            row["jbofs"],
            row["churn"],
            row["skew"],
            row["peak_tenants"],
            row["total_kops"],
            row["jain"],
            row["read_p999_us"],
            row["megas_leaked"],
        )
        for row in results["rows"]
    ]
    return format_table(
        [
            "scheme",
            "JBOFs",
            "churn",
            "skew",
            "peak tenants",
            "KOPS",
            "Jain",
            "read p99.9 us",
            "leaked megas",
        ],
        table_rows,
        title="Rack-scale churn: tenant population over a multi-JBOF rack",
    )
