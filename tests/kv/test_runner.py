"""``YcsbRunner.results()["kops"]`` against an independent op count.

The runner keeps no throughput counter of its own: ``kops`` is the two
latency histograms' sample count over the measured window.  These tests
count completed operations at the tree instead (every get and put the
client issues after loading is one YCSB op in workloads A-C) and check
that ``kops`` is exactly that count over the measured seconds.
"""

from __future__ import annotations

import random

import pytest

from repro.kv.lsm import LsmConfig
from repro.kv.runner import YcsbRunner
from repro.workloads.ycsb import YCSB_WORKLOADS
from tests.kv.test_lsm import build_tree


def loaded_runner(sim, workload):
    tree = build_tree(sim, LsmConfig(record_bytes=1024, memtable_bytes=32 * 1024))
    runner = YcsbRunner(
        tree, YCSB_WORKLOADS[workload], record_count=64, rng=random.Random(3), concurrency=4
    )
    runner.load(lambda: None)
    sim.run()
    return runner


def count_ops(runner):
    """Wrap the tree's get and put: ``(issued_us, completed_us)`` per op."""
    tree, sim = runner.tree, runner.sim
    ops = []

    def counted(operation):
        def issue(key, on_done):
            issued = sim.now

            def complete(*result):
                ops.append((issued, sim.now))
                on_done(*result)

            operation(key, complete)

        return issue

    tree.get = counted(tree.get)
    tree.put = counted(tree.put)
    return ops


def expected_kops(completed, opened_us, now_us):
    return completed / ((now_us - opened_us) / 1e6) / 1000.0


@pytest.mark.parametrize("workload", ["A", "B", "C"])
def test_kops_is_completed_ops_over_the_measured_window(sim, workload):
    runner = loaded_runner(sim, workload)
    ops = count_ops(runner)
    runner.start()
    # Off the op grid, so some ops are in flight when the window opens.
    sim.run(until_us=sim.now + 20_000.5)
    opened = sim.now
    before = len(ops)
    runner.begin_measurement()
    sim.run(until_us=opened + 60_000.0)
    assert any(issued < opened < completed for issued, completed in ops[before:])
    assert runner.results()["kops"] == expected_kops(len(ops) - before, opened, sim.now)


def test_completions_after_stop_still_count(sim):
    runner = loaded_runner(sim, "A")
    ops = count_ops(runner)
    runner.start()
    opened = sim.now
    sim.run(until_us=opened + 30_000.5)
    stopped = sim.now
    runner.stop()
    sim.run()
    assert sim.now > stopped
    assert any(completed > stopped for _, completed in ops)
    assert runner.results()["kops"] == expected_kops(len(ops), opened, sim.now)


def test_start_opens_the_window(sim):
    runner = loaded_runner(sim, "B")
    ops = count_ops(runner)
    runner.start()
    opened = sim.now
    sim.run(until_us=opened + 25_000.0)
    assert runner.results()["kops"] == expected_kops(len(ops), opened, sim.now) > 0


def test_zero_before_start_and_at_the_window_edge(sim):
    runner = loaded_runner(sim, "A")
    assert runner.results()["kops"] == 0.0
    runner.start()
    # No simulated time has passed since the window opened.
    assert runner.results()["kops"] == 0.0
