"""System-level integration tests across the whole stack."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.testbed import SCHEMES, Testbed, TestbedConfig
from repro.ssd.commands import IoOp
from repro.workloads.fio import FioSpec


class TestConservation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_submitted_io_completes(self, scheme):
        """No scheme loses requests: submitted == completed after drain."""
        testbed = Testbed(TestbedConfig(scheme=scheme, condition="clean"))
        workers = [
            testbed.add_worker(
                FioSpec(f"w{i}", io_pages=1 if i % 2 else 32,
                        queue_depth=8, read_ratio=0.5)
            )
            for i in range(4)
        ]
        for worker in workers:
            worker.start()
        testbed.sim.run(until_us=100_000.0)
        for worker in workers:
            worker.stop()
        testbed.sim.run()  # drain
        for worker in workers:
            assert worker.session.submitted == worker.session.completed
            assert worker.session.inflight == 0

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_random_mixes_complete_under_gimbal(self, seed):
        """Property: arbitrary worker mixes drain cleanly under Gimbal."""
        rng = random.Random(seed)
        testbed = Testbed(TestbedConfig(scheme="gimbal", condition="clean", seed=seed))
        for index in range(rng.randint(1, 5)):
            testbed.add_worker(
                FioSpec(
                    f"w{index}",
                    io_pages=rng.choice([1, 8, 32]),
                    queue_depth=rng.randint(1, 16),
                    read_ratio=rng.choice([0.0, 0.5, 1.0]),
                    pattern=rng.choice(["random", "sequential"]),
                )
            )
        for worker in testbed.workers:
            worker.start()
        testbed.sim.run(until_us=50_000.0)
        for worker in testbed.workers:
            worker.stop()
        testbed.sim.run()
        for worker in testbed.workers:
            assert worker.session.inflight == 0
            assert worker.session.submitted == worker.session.completed


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run_once():
            testbed = Testbed(TestbedConfig(scheme="gimbal", condition="fragmented", seed=11))
            for index in range(3):
                testbed.add_worker(
                    FioSpec(f"w{index}", io_pages=1, queue_depth=16, read_ratio=0.7)
                )
            results = testbed.run(warmup_us=20_000, measure_us=100_000)
            return [
                (w["bandwidth_mbps"], w["iops"], w["read_latency"]["mean"])
                for w in results["workers"]
            ]

        assert run_once() == run_once()

    def test_different_seed_changes_results(self):
        def run_once(seed):
            testbed = Testbed(TestbedConfig(scheme="vanilla", condition="clean", seed=seed))
            testbed.add_worker(FioSpec("w0", io_pages=1, queue_depth=8, read_ratio=0.5))
            results = testbed.run(warmup_us=10_000, measure_us=50_000)
            return results["workers"][0]["read_latency"]["mean"]

        assert run_once(1) != run_once(2)


class TestPriorityTagging:
    def test_high_priority_reads_see_lower_latency_under_gimbal(self):
        """Section 3.5's per-tenant priority queues: a tenant's tagged
        latency-sensitive IOs overtake its own bulk traffic."""
        testbed = Testbed(TestbedConfig(scheme="gimbal", condition="clean"))
        session = testbed.initiator("client").connect(
            "t0", testbed.target, "ssd0",
            policy=SCHEMES["gimbal"][1](), queue_depth=256,
        )
        latencies = {0: [], 3: []}
        state = {"issued": 0}

        def issue(priority):
            def on_complete(request):
                latencies[priority].append(request.e2e_latency_us)
                if testbed.sim.now < 400_000.0:
                    issue(priority)

            session.submit(IoOp.READ, state["issued"] % 4096, 32,
                           priority=priority, on_complete=on_complete)
            state["issued"] += 1

        # A deep bulk stream at priority 0, a thin probe at priority 3.
        for _ in range(24):
            issue(0)
        for _ in range(2):
            issue(3)
        testbed.sim.run(until_us=500_000.0)
        assert latencies[3], "no high-priority completions"
        mean = lambda values: sum(values) / len(values)
        assert mean(latencies[3]) < mean(latencies[0])


class TestLoadSteering:
    def test_reads_avoid_an_overloaded_replica(self):
        """Failure-injection-flavoured check: when one SSD of a replica
        pair is hammered by an external tenant, credit-driven steering
        sends most reads to the healthy replica."""
        from repro.harness.kvcluster import KvCluster, KvClusterConfig

        cluster = KvCluster(
            KvClusterConfig(scheme="gimbal", condition="clean", num_jbofs=1, ssds_per_jbof=2)
        )
        runner = cluster.add_instance("db0", "C", record_count=512, concurrency=4)
        cluster.load_all()
        # Hammer ssd0 with an aggressive external tenant.
        from repro.fabric.initiator import NvmeOfInitiator
        from repro.fabric.policies import UnlimitedClientPolicy

        bully = NvmeOfInitiator(cluster.sim, cluster.network, "bully")
        bully_session = bully.connect(
            "bully", cluster.targets[0], "ssd0", policy=UnlimitedClientPolicy()
        )
        stop_at = cluster.sim.now + 400_000.0
        rng = random.Random(0)

        def hammer(request=None):
            if cluster.sim.now < stop_at:
                bully_session.submit(
                    IoOp.WRITE, rng.randrange(40_000), 32, on_complete=hammer
                )

        for _ in range(64):
            hammer()
        runner.start()
        cluster.sim.run(until_us=stop_at)
        runner.stop()
        store = runner.tree.store
        total = store.reads_to_primary + store.reads_to_shadow
        assert total > 100
        # Steering happened at all (both replicas used, not just primary).
        assert store.reads_to_shadow > 0
