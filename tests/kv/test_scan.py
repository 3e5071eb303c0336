"""Tests for LSM range scans (YCSB-E support)."""

from __future__ import annotations

import random

import pytest

from repro.kv.lsm import LsmConfig
from repro.kv.runner import YcsbRunner
from repro.workloads.ycsb import YCSB_WORKLOADS
from tests.kv.test_lsm import build_tree, put_sync


def scan_sync(sim, tree, start_key, count):
    result = []
    tree.scan(start_key, count, result.append)
    sim.run()
    return result[0]


class TestScan:
    def test_scan_from_memtable_only(self, sim):
        tree = build_tree(sim)
        for key in (5, 1, 9, 3):
            put_sync(sim, tree, key)
        assert scan_sync(sim, tree, 2, 3) == [3, 5, 9]

    def test_scan_spanning_memtable_and_tables(self, sim):
        config = LsmConfig(record_bytes=1024, memtable_bytes=16 * 1024)
        tree = build_tree(sim, config)
        for key in range(0, 60, 2):  # evens; several flushes
            put_sync(sim, tree, key)
        result = scan_sync(sim, tree, 10, 5)
        assert result == [10, 12, 14, 16, 18]
        assert any(tree.levels)

    def test_scan_past_end_returns_partial(self, sim):
        tree = build_tree(sim)
        for key in range(5):
            put_sync(sim, tree, key)
        assert scan_sync(sim, tree, 3, 10) == [3, 4]

    def test_scan_empty_range(self, sim):
        tree = build_tree(sim)
        put_sync(sim, tree, 1)
        assert scan_sync(sim, tree, 100, 5) == []

    def test_scan_issues_table_reads(self, sim):
        config = LsmConfig(record_bytes=1024, memtable_bytes=16 * 1024)
        tree = build_tree(sim, config)
        for key in range(48):
            put_sync(sim, tree, key)
        before = tree.stats.table_reads
        scan_sync(sim, tree, 0, 30)
        assert tree.stats.table_reads > before

    def test_invalid_count_rejected(self, sim):
        tree = build_tree(sim)
        with pytest.raises(ValueError):
            tree.scan(0, 0, lambda keys: None)

    def test_deduplicates_across_levels(self, sim):
        """A key rewritten after a flush appears once in scan output."""
        config = LsmConfig(record_bytes=1024, memtable_bytes=16 * 1024)
        tree = build_tree(sim, config)
        for key in range(40):
            put_sync(sim, tree, key)
        for key in range(10, 20):  # overwrite a band
            put_sync(sim, tree, key)
        result = scan_sync(sim, tree, 8, 10)
        assert result == sorted(set(result))
        assert result == list(range(8, 18))


class TestYcsbE:
    def test_workload_e_runs(self, sim):
        tree = build_tree(sim, LsmConfig(record_bytes=1024, memtable_bytes=32 * 1024))
        runner = YcsbRunner(
            tree, YCSB_WORKLOADS["E"], record_count=128, rng=random.Random(4), concurrency=2
        )
        runner.load(lambda: None)
        sim.run()
        runner.start()
        sim.run(until_us=sim.now + 100_000.0)
        runner.stop()
        results = runner.results()
        # Scans land in the read latency histogram.
        assert results["read_latency"]["count"] > 10

    def test_scan_lengths_bounded(self):
        from repro.workloads.ycsb import YcsbWorkloadGenerator

        generator = YcsbWorkloadGenerator(
            YCSB_WORKLOADS["E"], record_count=100, rng=random.Random(5)
        )
        for _ in range(200):
            assert 1 <= generator.next_scan_length() <= 100
