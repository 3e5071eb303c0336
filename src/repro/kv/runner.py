"""YCSB driver for one LSM instance.

Runs the paper's Section 5.6 methodology: load ``record_count``
records, then issue the workload mix closed-loop at a configurable
concurrency, recording per-operation latency (reads and updates
separately -- the figures report read latency); ``kops`` is the two
histograms' sample count over the measured window.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.kv.lsm import LsmTree
from repro.metrics.histogram import LatencyHistogram
from repro.workloads.ycsb import (
    YCSB_READ,
    YCSB_READ_MODIFY_WRITE,
    YCSB_SCAN,
    YcsbSpec,
    YcsbWorkloadGenerator,
)

#: Load-phase puts kept in flight at once.
LOAD_BATCH = 8


class YcsbRunner:
    """Closed-loop YCSB client for one DB instance."""

    def __init__(
        self,
        tree: LsmTree,
        spec: YcsbSpec,
        record_count: int,
        rng: random.Random,
        concurrency: int = 4,
    ):
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        self.tree = tree
        self.sim = tree.sim
        self.spec = spec
        self.record_count = record_count
        self.concurrency = concurrency
        self.generator = YcsbWorkloadGenerator(spec, record_count, rng)
        self.read_latency = LatencyHistogram()
        self.update_latency = LatencyHistogram()
        self.measure_start: Optional[float] = None
        self.running = False
        self.loaded = False

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------
    def load(self, on_done: Callable[[], None]) -> None:
        """Insert all records (the YCSB load phase), then ``on_done``."""
        state = {"next": 0, "inflight": 0, "done": False}

        def pump() -> None:
            while state["next"] < self.record_count and state["inflight"] < LOAD_BATCH:
                key = state["next"]
                state["next"] += 1
                state["inflight"] += 1
                self.tree.put(key, one_done)
            if (
                state["next"] >= self.record_count
                and state["inflight"] == 0
                and not state["done"]
            ):
                state["done"] = True
                self.loaded = True
                on_done()

        def one_done() -> None:
            state["inflight"] -= 1
            pump()

        pump()

    # ------------------------------------------------------------------
    # Run phase
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.begin_measurement()
        for _ in range(self.concurrency):
            self._next_op()

    def stop(self) -> None:
        self.running = False

    def begin_measurement(self) -> None:
        """Measure from now: the histograms restart with the window."""
        self.measure_start = self.sim.now
        self.read_latency = LatencyHistogram()
        self.update_latency = LatencyHistogram()

    def _next_op(self) -> None:
        if not self.running:
            return
        op, key = self.generator.next_op()
        sim = self.sim
        start = sim.now
        is_read = op is YCSB_READ or op is YCSB_SCAN

        def done(_result=None) -> None:
            # The histogram is looked up now, not when the op was
            # issued: begin_measurement swaps both while the first ops
            # are in flight.
            (self.read_latency if is_read else self.update_latency).record(sim.now - start)
            self._next_op()

        if op is YCSB_READ:
            self.tree.get(key, done)
        elif op is YCSB_SCAN:
            self.tree.scan(key, self.generator.next_scan_length(), done)
        elif op is YCSB_READ_MODIFY_WRITE:
            # A get whose completion chains the put.
            self.tree.get(key, lambda found: self.tree.put(key, done))
        else:  # update / insert
            self.tree.put(key, done)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> Dict[str, object]:
        elapsed = 0.0 if self.measure_start is None else self.sim.now - self.measure_start
        ops = self.read_latency.count + self.update_latency.count
        kops = ops / (elapsed / 1e6) / 1000.0 if elapsed > 0 else 0.0
        return {
            "name": self.tree.name,
            "workload": self.spec.name,
            "kops": kops,
            "read_latency": self.read_latency.summary(),
            "update_latency": self.update_latency.summary(),
            "lsm": {
                "flushes": self.tree.stats.flushes,
                "compactions": self.tree.stats.compactions,
                "memtable_hits": self.tree.stats.memtable_hits,
                "table_reads": self.tree.stats.table_reads,
                "stalled_puts": self.tree.stats.stalled_puts,
            },
        }
