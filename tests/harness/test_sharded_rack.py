"""Sharded rack execution: shard-count invariance, outcome fields and
the failure path.

Shard *count* invariance holds structurally (same tenants, same
reclamation accounting, same drain clock) because shards never share
simulator state.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiments import rack
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.workloads.population import TenantPopulation


def _config() -> KvClusterConfig:
    return KvClusterConfig(
        scheme="gimbal",
        condition="clean",
        num_jbofs=2,
        ssds_per_jbof=2,
        seed=11,
    )


def _specs(tenants: int = 3, horizon_us: float = 9_000.0):
    return TenantPopulation(
        tenants=tenants, horizon_us=horizon_us, churn=0.8, seed=5
    ).generate()


def _churn(shards):
    return KvCluster(_config(), shards=shards).run_population(_specs())


class TestShardCountInvariance:
    def test_one_vs_two_shards_structurally_equal(self):
        one = _churn(shards=1)
        two = _churn(shards=2)
        for outcome in (one, two):
            outcome.pop("shard")
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_sharded_tracks_unsharded(self):
        # The boundary charges one control-message latency for connect /
        # disconnect (instant calls unsharded), so clocks drift by a few
        # microseconds; everything structural must still match.
        unsharded = KvCluster(_config()).run_population(_specs())
        sharded = _churn(shards=2)
        assert sharded["megas_leaked"] == 0
        assert unsharded["megas_leaked"] == 0
        assert len(sharded["tenants"]) == len(unsharded["tenants"])
        assert sharded["peak_tenants"] == unsharded["peak_tenants"]
        assert abs(sharded["drained_us"] - unsharded["drained_us"]) < 100.0


class TestShardOutcome:
    def test_population_outcome_records_shard_fields(self):
        outcome = _churn(shards=2)
        shard = outcome["shard"]
        assert shard["shards"] == 2
        assert shard["requested"] == 2
        assert shard["windows"] > 0
        assert shard["messages"] > 0
        assert shard["lookahead_us"] > 0.0

    def test_shard_count_clamped_to_jbofs(self):
        cluster = KvCluster(_config(), shards=5)
        assert cluster.shard_counts == (5, 2)  # only 2 JBOFs to host
        assert cluster.shard_executor.shards == 3  # and the coordinator

    @pytest.mark.parametrize("bad", [-3, 2.7, "2"])
    def test_bad_shard_count_rejected_naming_it(self, bad):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            KvCluster(_config(), shards=bad)

    def test_zero_and_none_mean_unsharded(self):
        for shards in (0, None):
            assert KvCluster(_config(), shards=shards).shard_executor is None

    def test_only_inline_mode_runs(self):
        with pytest.raises(ValueError, match="'processes'"):
            KvCluster(_config(), shards=2, shard_mode="processes")

    def test_unsharded_outcome_has_no_shard_key(self):
        outcome = KvCluster(_config()).run_population(_specs())
        assert "shard" not in outcome


class TestFailedAdvanceFinishesExecutor:
    """A population that dies mid-run still leaves a shard report: nobody
    gets a result to call ``finish_shards()`` on."""

    def _expect(self, error, match):
        cluster = KvCluster(_config(), shards=2)
        with pytest.raises(error, match=match):
            cluster.run_population(_specs())
        assert cluster.shard_report["windows"] > 0
        assert cluster.shard_report["messages"] > 0
        assert cluster.finish_shards() == cluster.shard_report  # idempotent afterwards

    def test_coordinator_callback_that_raises(self, monkeypatch):
        def failing_depart(self, name, on_done=None, poll_us=None):
            raise KeyError("deliberate departure failure")

        monkeypatch.setattr(KvCluster, "depart_instance", failing_depart)
        self._expect(KeyError, "deliberate departure failure")

    def test_population_that_strands_tenants(self, monkeypatch):
        """The advance itself succeeds (every client stopped, the rack
        drained) but nobody left."""

        def stop_but_stay(self, name, on_done=None, poll_us=None):
            self.instances[name].runner.stop()

        monkeypatch.setattr(KvCluster, "depart_instance", stop_but_stay)
        self._expect(RuntimeError, "instances still resident")


class TestRackDriver:
    def test_unsharded_rows_have_no_shard_fields(self):
        row = rack._point(
            scheme="gimbal",
            jbofs=2,
            ssds_per_jbof=2,
            tenants=3,
            churn=0.8,
            skew=0.9,
            horizon_us=9_000.0,
            condition="clean",
            seed=11,
        )
        assert row["megas_leaked"] == 0
        assert not [key for key in row if key.startswith("shard")]
