"""Tests for the LSM tree engine."""

from __future__ import annotations

import random

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import UnlimitedClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.kv.allocator import GlobalBlobAllocator, LocalBlobAllocator
from repro.kv.backend import RemoteBackend
from repro.kv.blobstore import Blobstore
from repro.kv.lsm import LsmConfig, LsmTree
from repro.kv.runner import YcsbRunner
from repro.ssd.device import NullDevice
from repro.workloads.patterns import AddressRegion
from repro.workloads.ycsb import YCSB_WORKLOADS


def build_tree(sim, config=None):
    network = Network(sim)
    devices = {f"ssd{i}": NullDevice(sim, name=f"ssd{i}") for i in range(2)}
    target = NvmeOfTarget(sim, network, "jbof", devices, FifoScheduler)
    initiator = NvmeOfInitiator(sim, network, "client")
    global_allocator = GlobalBlobAllocator(mega_pages=512)
    backends = {}
    for name in devices:
        backend_name = f"jbof/{name}"
        global_allocator.register_backend(backend_name, AddressRegion(0, 1 << 20))
        session = initiator.connect(
            f"db@{backend_name}", target, name, policy=UnlimitedClientPolicy()
        )
        backends[backend_name] = RemoteBackend(backend_name, session)
    local = LocalBlobAllocator(global_allocator, micro_pages=64)
    store = Blobstore(local, backends)
    return LsmTree("db0", store, sim, config=config, rng=random.Random(0))


def put_sync(sim, tree, key):
    done = []
    tree.put(key, lambda: done.append(True))
    sim.run()
    assert done


def holds(tree, key):
    """``key`` sits in the memtable, the immutable memtable or a table."""
    tables = [table.keyset for level in tree.levels for table in level]
    return any(key in keys for keys in [tree.memtable, tree.immutable or ()] + tables)


def get_sync(sim, tree, key):
    result = []
    tree.get(key, result.append)
    sim.run()
    return result[0]


class TestBasics:
    def test_put_then_get_from_memtable(self, sim):
        tree = build_tree(sim)
        put_sync(sim, tree, 42)
        assert get_sync(sim, tree, 42) is True
        assert tree.stats.memtable_hits == 1

    def test_get_missing_key(self, sim):
        tree = build_tree(sim)
        assert get_sync(sim, tree, 999) is False

    def test_put_is_wal_durable_before_callback(self, sim):
        tree = build_tree(sim)
        done = []
        tree.put(1, lambda: done.append(True))
        assert not done  # callback only after the WAL write completes
        sim.run()
        assert done

    def test_wal_batches_group_commit(self, sim):
        tree = build_tree(sim)
        done = []
        for key in range(20):
            tree.put(key, lambda: done.append(True))
        sim.run()
        assert len(done) == 20

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LsmConfig(record_bytes=0)
        with pytest.raises(ValueError):
            LsmConfig(l0_compaction_trigger=8, l0_stall_trigger=4)
        with pytest.raises(ValueError):
            LsmConfig(bloom_fp_rate=1.0)


class TestFlushAndCompaction:
    @pytest.fixture
    def small_config(self):
        # 16-record memtables force frequent flushes/compactions.
        return LsmConfig(
            record_bytes=1024,
            memtable_bytes=16 * 1024,
            l0_compaction_trigger=2,
            l0_stall_trigger=6,
        )

    def test_flush_moves_data_to_l0(self, sim, small_config):
        tree = build_tree(sim, small_config)
        for key in range(40):
            put_sync(sim, tree, key)
        assert tree.stats.flushes >= 1
        assert any(tree.levels)

    def test_flushed_keys_remain_readable(self, sim, small_config):
        tree = build_tree(sim, small_config)
        for key in range(60):
            put_sync(sim, tree, key)
        for key in range(60):
            assert get_sync(sim, tree, key) is True, f"lost key {key}"

    def test_compaction_triggered_and_preserves_keys(self, sim, small_config):
        tree = build_tree(sim, small_config)
        for key in range(200):
            put_sync(sim, tree, key % 80)
        assert tree.stats.compactions >= 1
        for key in range(80):
            assert holds(tree, key), f"compaction lost key {key}"

    def test_l0_bounded_by_compaction(self, sim, small_config):
        tree = build_tree(sim, small_config)
        for key in range(400):
            put_sync(sim, tree, key)
        assert len(tree.levels[0]) <= small_config.l0_stall_trigger

    def test_table_reads_counted_for_flushed_keys(self, sim, small_config):
        tree = build_tree(sim, small_config)
        for key in range(40):
            put_sync(sim, tree, key)
        before = tree.stats.table_reads
        assert get_sync(sim, tree, 0) is True
        assert tree.stats.table_reads == before + 1


class TestYcsbRunner:
    def _runner(self, sim, workload="A", records=64):
        tree = build_tree(
            sim,
            LsmConfig(record_bytes=1024, memtable_bytes=32 * 1024),
        )
        return YcsbRunner(
            tree,
            YCSB_WORKLOADS[workload],
            record_count=records,
            rng=random.Random(1),
            concurrency=2,
        )

    def test_load_inserts_all_records(self, sim):
        runner = self._runner(sim)
        loaded = []
        runner.load(lambda: loaded.append(True))
        sim.run()
        assert loaded
        for key in range(64):
            assert holds(runner.tree, key)

    def test_run_measures_ops(self, sim):
        runner = self._runner(sim)
        runner.load(lambda: None)
        sim.run()
        runner.start()
        sim.run(until_us=sim.now + 200_000.0)
        runner.stop()
        results = runner.results()
        assert results["kops"] > 0
        assert results["read_latency"]["count"] + results["update_latency"]["count"] > 10

    def test_read_only_workload_never_updates(self, sim):
        runner = self._runner(sim, workload="C")
        runner.load(lambda: None)
        sim.run()
        runner.start()
        sim.run(until_us=sim.now + 100_000.0)
        runner.stop()
        assert runner.results()["update_latency"]["count"] == 0

    def test_begin_measurement_resets(self, sim):
        runner = self._runner(sim)
        runner.load(lambda: None)
        sim.run()
        runner.start()
        sim.run(until_us=sim.now + 100_000.0)
        runner.begin_measurement()
        assert runner.read_latency.count == 0

    def test_invalid_concurrency_rejected(self, sim):
        tree = build_tree(sim)
        with pytest.raises(ValueError):
            YcsbRunner(tree, YCSB_WORKLOADS["A"], 10, random.Random(0), concurrency=0)
