"""Sharded rack execution: identity, invariance and budget gates.

The hard contract is per-plan determinism: running the same shard plan
inline (single-process round-robin) and with worker processes must
produce byte-identical outcome JSON.  Shard
*count* invariance additionally holds structurally (same tenants, same
reclamation accounting, same drain clock) because shards never share
simulator state.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.harness.experiments import rack
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.sim.shard import EFFECTIVE_JOBS_ENV, ShardWorkerError
from repro.ssd.device import SsdDevice
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


def _churn(shards, mode="inline"):
    cluster = KvCluster(_config(), shards=shards, shard_mode=mode)
    return cluster.run_population(_specs())


class TestPlanIdentity:
    def test_inline_vs_processes_byte_identical(self):
        inline = _churn(shards=2, mode="inline")
        multiproc = _churn(shards=2, mode="processes")
        assert json.dumps(inline, sort_keys=True) == json.dumps(
            multiproc, sort_keys=True
        )
        assert inline["megas_leaked"] == 0

    def test_bounded_run_inline_vs_processes(self):
        outcomes = {}
        for mode in ("inline", "processes"):
            cluster = KvCluster(_config(), shards=2, shard_mode=mode)
            cluster.add_instance("db0", "A", record_count=128)
            cluster.add_instance("db1", "B", record_count=128)
            cluster.load_all()
            outcomes[mode] = cluster.run(warmup_us=2_000.0, measure_us=3_000.0)
        assert json.dumps(outcomes["inline"], sort_keys=True) == json.dumps(
            outcomes["processes"], sort_keys=True
        )
        assert outcomes["inline"]["total_kops"] > 0


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
        assert shard["clamped"] is False
        assert shard["windows"] > 0
        assert shard["messages"] > 0
        assert shard["lookahead_us"] > 0.0

    def test_shard_count_clamped_to_jbofs(self):
        cluster = KvCluster(_config(), shards=5, shard_mode="inline")
        assert cluster.shard_plan.shards == 2  # only 2 JBOFs to host
        assert cluster.shard_plan.requested == 5

    def test_unsharded_outcome_has_no_shard_key(self):
        outcome = KvCluster(_config()).run_population(_specs())
        assert "shard" not in outcome


class TestFailedAdvanceStopsWorkers:
    """A population that dies mid-run must not leave ``repro-shard-N``
    processes behind: nobody gets a result to call ``finish_shards()``
    on, and a ``--jobs`` pool worker runs many points in one life."""

    def _expect(self, error, match):
        def children():
            return {child.pid for child in multiprocessing.active_children()}

        before = children()
        cluster = KvCluster(_config(), shards=2, shard_mode="processes")
        workers = children() - before
        assert len(workers) == 2
        started = time.monotonic()
        with pytest.raises(error, match=match) as raised:
            cluster.run_population(_specs())
        assert not children() & workers
        assert time.monotonic() - started < 60.0
        assert cluster.finish_shards()["windows"] > 0  # idempotent afterwards
        return raised.value

    def test_worker_that_raises_mid_population(self, monkeypatch):
        submit = SsdDevice.submit
        calls = []

        def failing_submit(self, cmd, on_complete):
            # Workers are forked from this process, patch included; each
            # counts its own device's commands.
            calls.append(cmd)
            if len(calls) > 200:
                raise RuntimeError("deliberate device failure")
            submit(self, cmd, on_complete)

        monkeypatch.setattr(SsdDevice, "submit", failing_submit)
        error = self._expect(ShardWorkerError, "deliberate device failure")
        assert error.shard_id in (1, 2)
        assert not calls  # the coordinator hosts no device

    def test_coordinator_callback_that_raises(self, monkeypatch):
        """Not a worker failure: the workers are healthy and may hold a
        step reply nobody read, so they are stopped without being asked
        for anything."""

        def failing_depart(self, name, on_done=None, poll_us=None):
            raise KeyError("deliberate departure failure")

        monkeypatch.setattr(KvCluster, "depart_instance", failing_depart)
        self._expect(KeyError, "deliberate departure failure")

    def test_population_that_strands_tenants(self, monkeypatch):
        """The advance itself succeeds (every client stopped, the rack
        drained) but nobody left: still no worker may outlive the error."""

        def stop_but_stay(self, name, on_done=None, poll_us=None):
            self.instances[name].runner.stop()

        monkeypatch.setattr(KvCluster, "depart_instance", stop_but_stay)
        self._expect(RuntimeError, "instances still resident")


class TestRackDriver:
    POINT = dict(
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

    def test_point_rows_record_shard_fields(self):
        row = rack._point(**self.POINT, shards=2, shard_mode="inline")
        assert row["shards"] == 2
        assert row["shards_requested"] == 2
        assert row["shards_clamped"] is False
        assert row["shard_windows"] > 0
        assert row["shard_messages"] > 0
        assert row["megas_leaked"] == 0

    def test_unsharded_rows_have_no_shard_fields(self):
        row = rack._point(**self.POINT)
        assert "shards" not in row

    def test_budget_clamp_recorded_and_journaled(self, monkeypatch):
        # Budget of 1: no headroom for worker processes, so the plan
        # falls back to inline execution and the clamp is journaled.
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "1")
        row = rack._point(**self.POINT, shards=2, shard_mode="processes")
        assert row["shards_clamped"] is True
        assert row["shards"] == 2
        out = rack.finalize([row])
        assert out["shards_clamped"] == 1
