"""Integration tests for the KV cluster builder."""

from __future__ import annotations

import pytest

from repro.harness.kvcluster import KvCluster, KvClusterConfig
from tests.kv.test_lsm import holds


def small_cluster(**kwargs):
    defaults = dict(scheme="gimbal", condition="clean", num_jbofs=1, ssds_per_jbof=2)
    defaults.update(kwargs)
    return KvCluster(KvClusterConfig(**defaults))



def test_invalid_condition_rejected():
    # The rack conditions only clean or fragmented devices; anything else
    # used to build unconditioned devices without a word.
    for condition in ("none", "aegd"):
        with pytest.raises(ValueError, match="clean.*fragmented"):
            KvClusterConfig(condition=condition)

class TestKvCluster:
    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            KvClusterConfig(scheme="bogus")

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            KvClusterConfig(num_jbofs=0)

    def test_load_and_run(self):
        cluster = small_cluster()
        cluster.add_instance("db0", "A", record_count=256, concurrency=2)
        cluster.load_all()
        assert cluster.runners[0].loaded
        results = cluster.run(warmup_us=50_000, measure_us=150_000)
        assert results["total_kops"] > 0
        assert results["instances"][0]["kops"] > 0

    def test_loaded_keys_are_readable(self):
        cluster = small_cluster()
        runner = cluster.add_instance("db0", "C", record_count=128, concurrency=2)
        cluster.load_all()
        for key in range(128):
            assert holds(runner.tree, key)

    def test_multiple_instances_share_backends(self):
        cluster = small_cluster()
        a = cluster.add_instance("db0", "A", record_count=128)
        b = cluster.add_instance("db1", "B", record_count=128)
        assert set(a.tree.store.backends) == set(b.tree.store.backends)
        cluster.load_all()

    def test_flow_control_toggle_changes_policy(self):
        from repro.fabric.policies import CreditClientPolicy, UnlimitedClientPolicy

        with_fc = small_cluster(flow_control=True)
        without_fc = small_cluster(flow_control=False)
        runner_fc = with_fc.add_instance("db0", "A", record_count=64)
        runner_nofc = without_fc.add_instance("db0", "A", record_count=64)
        backend_fc = next(iter(runner_fc.tree.store.backends.values()))
        backend_nofc = next(iter(runner_nofc.tree.store.backends.values()))
        assert isinstance(backend_fc.session.policy, CreditClientPolicy)
        assert isinstance(backend_nofc.session.policy, UnlimitedClientPolicy)

    @pytest.mark.parametrize("scheme", ["reflex", "parda", "flashfq", "vanilla"])
    def test_flow_control_is_refused_off_gimbal(self, scheme):
        # It used to be ignored: reflex ran unlimited with flow_control
        # on, and parda kept PARDA with it off.
        for flow_control in (True, False):
            with pytest.raises(ValueError, match="flow_control"):
                KvClusterConfig(scheme=scheme, flow_control=flow_control)
        assert KvClusterConfig(scheme=scheme).flow_control is None

    def test_load_balance_toggle(self):
        cluster = small_cluster(load_balance=False)
        runner = cluster.add_instance("db0", "A", record_count=64)
        assert runner.tree.store.load_balance_reads is False

    def test_gimbal_credits_flow_to_backends(self):
        cluster = small_cluster()
        runner = cluster.add_instance("db0", "A", record_count=256)
        cluster.load_all()
        credits = [backend.credit for backend in runner.tree.store.backends.values()]
        assert any(credit > 0 for credit in credits)


def drain_population(cluster, **kwargs):
    from repro.workloads.population import TenantPopulation

    defaults = dict(tenants=4, horizon_us=150_000.0, churn=0.6, seed=5)
    defaults.update(kwargs)
    return cluster.run_population(TenantPopulation(**defaults).generate())


class TestChurn:
    def test_departure_releases_everything(self):
        cluster = small_cluster()
        total = cluster.global_allocator.total_available_megas
        runner = cluster.add_instance("db0", "A", record_count=128, concurrency=2)
        runner.load(runner.start)
        cluster.sim.run(until_us=60_000.0)
        done = []
        cluster.depart_instance("db0", on_done=done.append)
        cluster.sim.run(until_us=cluster.sim.now + 100_000.0)
        assert done and done[0]["kops"] > 0
        assert "db0" not in cluster.instances
        assert cluster.runners == []
        assert cluster.global_allocator.total_available_megas == total
        assert cluster.tenants_departed == 1
        # All per-SSD session lists shrank back to empty.
        assert all(not lst for lst in cluster._backends_by_ssd.values())

    def test_departed_name_can_rearrive(self):
        cluster = small_cluster()
        runner = cluster.add_instance("db0", "A", record_count=64, concurrency=1)
        runner.load(runner.start)
        cluster.sim.run(until_us=40_000.0)
        cluster.depart_instance("db0")
        cluster.sim.run(until_us=cluster.sim.now + 100_000.0)
        assert "db0" not in cluster.instances
        again = cluster.add_instance("db0", "B", record_count=64, concurrency=1)
        loaded = []
        again.load(lambda: loaded.append(cluster.sim.now))
        cluster.sim.run(until_us=cluster.sim.now + 100_000.0)
        assert loaded
        assert cluster.tenants_arrived == 2

    def test_double_departure_rejected(self):
        cluster = small_cluster()
        cluster.add_instance("db0", "A", record_count=64)
        cluster.depart_instance("db0")
        with pytest.raises(ValueError):
            cluster.depart_instance("db0")

    def test_duplicate_instance_rejected(self):
        cluster = small_cluster()
        cluster.add_instance("db0", "A", record_count=64)
        with pytest.raises(ValueError):
            cluster.add_instance("db0", "B", record_count=64)

    def test_run_population_needs_empty_rack(self):
        cluster = small_cluster()
        cluster.add_instance("db0", "A", record_count=64)
        with pytest.raises(RuntimeError):
            drain_population(cluster)

    def test_population_drains_without_leaks(self):
        cluster = small_cluster()
        out = drain_population(cluster)
        assert len(out["tenants"]) == 4
        assert out["megas_leaked"] == 0
        assert out["megas_allocated"] == out["megas_freed"] > 0
        assert out["peak_tenants"] >= 1
        assert cluster.instances == {}
        for tenant in out["tenants"]:
            assert tenant["departed_us"] > tenant["arrived_us"]

    def test_population_byte_identical_across_runs(self):
        import json

        def once():
            out = drain_population(small_cluster())
            return json.dumps(out, sort_keys=True)

        assert once() == once()

    def test_rack_metrics_registered(self):
        from repro.obs.registry import Registry

        cluster = small_cluster()
        registry = Registry()
        registry.add("rack", cluster)
        drain_population(cluster, tenants=2, horizon_us=80_000.0)
        sample = registry.snapshot()
        assert sample["rack.active_tenants"] == 0
        assert sample["rack.tenants_arrived"] == 2
        assert sample["rack.tenants_departed"] == 2
        assert sample["rack.megas_available"] == sample["rack.megas_total"]
        assert sample["rack.megas_allocated"] == sample["rack.megas_freed"] > 0
        assert sample["rack.peak_megas_in_use"] > 0
