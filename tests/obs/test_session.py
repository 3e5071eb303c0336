"""Tests for observability sessions and testbed integration."""

from __future__ import annotations

import gc
import weakref

from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.testbed import Testbed, TestbedConfig
from repro.obs.session import capture, current_session
from repro.obs.trace import read_jsonl
from repro.sim.engine import Simulator
from repro.workloads.fio import FioSpec


class TestSessionLifecycle:
    def test_no_session_by_default(self):
        assert current_session() is None

    def test_capture_installs_and_restores(self):
        with capture() as session:
            assert current_session() is session
        assert current_session() is None

    def test_capture_restores_on_error(self):
        try:
            with capture():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_session() is None

    def test_sessions_nest(self):
        with capture() as outer:
            with capture() as inner:
                assert current_session() is inner
            assert current_session() is outer

    def test_stats_only_session_has_no_tracer(self):
        with capture() as session:
            sim = Simulator()
            session.attach_simulator(sim)
            assert sim.tracer is None
            assert sim.probe is session.probe
            assert session.trace_events_emitted == 0

    def test_journal_trace_session(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with capture(trace_path=path) as session:
            sim = Simulator()
            assert sim.tracer is session.tracer
            sim.tracer.emit("credit", 0.0, "pipe0", credit=4)
        assert read_jsonl(path) == [{"t": 0.0, "ev": "credit", "comp": "pipe0", "credit": 4}]


def tiny_testbed():
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition="fragmented", seed=7))
    testbed.add_worker(
        FioSpec("r0", io_pages=1, queue_depth=8, read_ratio=1.0), region_pages=512
    )
    testbed.add_worker(
        FioSpec("w0", io_pages=1, queue_depth=8, read_ratio=0.0), region_pages=512
    )
    return testbed


class TestTestbedIntegration:
    def test_untraced_testbed_has_no_hooks(self):
        testbed = tiny_testbed()
        assert testbed.sim.tracer is None
        assert testbed.sim.probe is None

    def test_journal_contains_congestion_and_bucket_events(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with capture(trace_path=path) as session:
            testbed = tiny_testbed()
            assert testbed.sim.tracer is session.tracer
            testbed.run(warmup_us=2000.0, measure_us=10000.0)
        counts = session.tracer.counts_by_type
        assert counts["congestion"] > 0
        assert counts["bucket_deny"] > 0
        events = read_jsonl(path)
        assert len(events) == session.trace_events_emitted
        assert {"t", "ev", "comp"} <= set(events[0])

    def test_registry_collects_component_metrics(self):
        with capture() as session:
            testbed = tiny_testbed()
            testbed.run(warmup_us=2000.0, measure_us=8000.0)
            snapshot = session.registry.snapshot()
        assert snapshot["ssd.ssd0.write_commands"] > 0
        assert snapshot["pipeline.jbof0/ssd0.reads"] > 0
        assert snapshot["kernel.events_fired"] > 0
        assert any(name.startswith("switch.") for name in snapshot)
        assert any(name.startswith("core.") for name in snapshot)
        assert any(name.startswith("net.") for name in snapshot)

    def test_registry_names_by_group(self):
        """One SSD, one core, one Gimbal pipeline, three ports (the
        target's and the two clients') and two clients, each with one
        op's waterfall: six stages x (mean, p99), the count and three
        e2e figures."""
        with capture() as session:
            tiny_testbed().run(warmup_us=0.0, measure_us=1000.0)
        groups = {}
        for name in session.registry.snapshot():
            head = name.partition(".")[0]
            groups[head] = groups.get(head, 0) + 1
        assert groups == {
            "kernel": 5, "ssd": 13, "core": 5, "pipeline": 6, "switch": 28, "net": 6,
            "client": 2 * 16,
        }

    def test_ports_created_after_registration_register_too(self):
        """The network registers before any client connects; the client
        ports it creates afterwards still get their gauges."""
        with capture() as session:
            testbed = tiny_testbed()
            testbed.run(warmup_us=2000.0, measure_us=4000.0)
            snapshot = session.registry.snapshot()
        for client in ("client-r0", "client-w0"):
            assert snapshot[f"net.{client}.bytes_sent"] > 0
            assert snapshot[f"net.{client}.messages_sent"] > 0

    def test_a_dropped_testbed_is_freed(self):
        """The session keeps the latest topology's sources, nothing of a
        testbed built before it."""
        with capture() as session:
            first = tiny_testbed()
            first.run(warmup_us=1000.0, measure_us=2000.0)
            dropped = weakref.ref(first.network)
            del first
            tiny_testbed().run(warmup_us=1000.0, measure_us=2000.0)
            gc.collect()
            assert dropped() is None
            assert session.registry.snapshot()["kernel.runs"] == 4

    def test_stats_report_renders(self, tmp_path):
        with capture(trace_path=str(tmp_path / "journal.jsonl")) as session:
            testbed = tiny_testbed()
            testbed.run(warmup_us=1000.0, measure_us=5000.0)
            report = session.stats_report()
        assert "run metrics" in report
        assert "kernel probe" in report
        assert "trace events" in report

    def test_tracing_identical_simulation_outcome(self, tmp_path):
        """Observability must not perturb the simulation itself."""

        def total_bandwidth(traced):
            if traced:
                with capture(trace_path=str(tmp_path / "journal.jsonl")):
                    testbed = tiny_testbed()
                    results = testbed.run(warmup_us=2000.0, measure_us=10000.0)
            else:
                testbed = tiny_testbed()
                results = testbed.run(warmup_us=2000.0, measure_us=10000.0)
            return results["total_bandwidth_mbps"]

        assert total_bandwidth(True) == total_bandwidth(False)


def small_rack(**kwargs):
    config = KvClusterConfig(scheme="gimbal", condition="clean", num_jbofs=2, ssds_per_jbof=1)
    return KvCluster(config, **kwargs)


class TestKvClusterIntegration:
    def test_unsharded_rack_registers_every_device_and_itself(self):
        """Both JBOFs have an ``ssd0``: each must keep its own gauges."""
        with capture() as session:
            cluster = small_rack()
            cluster.add_instance("db0", "A", record_count=64)
            cluster.load_all()
            snapshot = session.registry.snapshot()
        assert snapshot["rack.active_tenants"] == 1
        for target in cluster.targets:
            device = target.pipeline("ssd0").device
            assert device.stats.write_commands > 0
            name = f"ssd.{target.name}/ssd0.write_commands"
            assert snapshot[name] == device.stats.write_commands
        assert "ssd.ssd0.write_commands" not in snapshot
        assert snapshot["core.jbof1/core0.busy_us"] > 0
        assert snapshot["net.jbof1.bytes_sent"] > 0

    def test_sharded_rack_registers_itself_and_its_executor(self):
        with capture() as session:
            cluster = small_rack(shards=2)
            cluster.add_instance("db0", "A", record_count=64)
            cluster.load_all()
            snapshot = session.registry.snapshot()
        assert snapshot["rack.active_tenants"] == 1
        assert snapshot["shard.windows"] > 0
