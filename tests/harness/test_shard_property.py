"""Property-based determinism gates for the sharded rack.

Hypothesis draws random churn schedules and shard fan-outs, and asserts
that every schedule drains with zero leaked mega blobs (reclamation is
independent of the execution layer) on the shard count it asked for.

Schedules are kept tiny (a few tenants over a few simulated
milliseconds): the window count scales with the simulated horizon.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.workloads.population import TenantPopulation


def _outcome(shards, tenants, horizon_us, churn, skew, seed):
    cluster = KvCluster(
        KvClusterConfig(
            scheme="gimbal",
            condition="clean",
            num_jbofs=2,
            ssds_per_jbof=2,
            seed=11,
        ),
        shards=shards,
    )
    specs = TenantPopulation(
        tenants=tenants,
        horizon_us=horizon_us,
        churn=churn,
        skew=skew,
        seed=seed,
    ).generate()
    return cluster.run_population(specs)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tenants=st.integers(min_value=2, max_value=4),
    horizon_ms=st.integers(min_value=5, max_value=9),
    churn=st.sampled_from([0.5, 0.8, 1.0]),
    skew=st.sampled_from([0.5, 0.9]),
    shards=st.sampled_from([1, 2]),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_sharded_schedules_never_leak(tenants, horizon_ms, churn, skew, shards, seed):
    outcome = _outcome(
        shards=shards,
        tenants=tenants,
        horizon_us=float(horizon_ms) * 1_000.0,
        churn=churn,
        skew=skew,
        seed=seed,
    )
    assert outcome["megas_leaked"] == 0
    assert outcome["shard"]["shards"] == shards
    assert len(outcome["tenants"]) == tenants
