"""fio-style closed-loop IO workers.

A :class:`FioWorker` keeps ``queue_depth`` IOs outstanding against one
tenant session, draws addresses from a random or sequential pattern,
either only reads or only writes, and (optionally) caps its own rate --
the configuration surface the paper's microbenchmarks use
(Section 5.1: QD32 for 4 KiB, QD4 for 128 KiB; random reads,
sequential 128 KiB writes, random 4 KiB writes).  A read/write mix is
several workers on one SSD.

Measurement follows fio's ramp-time convention: call
:meth:`begin_measurement` once the system is warm; earlier completions
are not counted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.fabric.initiator import TenantSession
from repro.fabric.request import FabricRequest
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.throughput import ThroughputMonitor
from repro.sim.units import MBPS
from repro.ssd.commands import OP_READ, OP_WRITE
from repro.workloads.patterns import AddressRegion, RandomPattern, SequentialPattern


@dataclass(frozen=True, slots=True)
class FioSpec:
    """One worker's workload definition."""

    name: str
    io_pages: int
    queue_depth: int
    #: 1.0 for a reader, 0.0 for a writer.
    read_ratio: float = 1.0
    pattern: str = "random"
    rate_limit_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.io_pages <= 0 or self.queue_depth <= 0:
            raise ValueError("io size and queue depth must be positive")
        if self.read_ratio not in (0.0, 1.0):
            raise ValueError(
                f"read_ratio must be 1.0 (reader) or 0.0 (writer), got {self.read_ratio!r}"
            )
        if self.pattern not in ("random", "sequential"):
            raise ValueError("pattern must be 'random' or 'sequential'")
        limit = self.rate_limit_mbps
        if limit is not None and not (limit > 0 and math.isfinite(limit)):
            raise ValueError(f"rate limit must be positive and finite, got {limit!r}")


class FioWorker:
    """Closed-loop generator bound to one tenant session."""

    def __init__(
        self,
        session: TenantSession,
        spec: FioSpec,
        region: AddressRegion,
        rng: random.Random,
    ):
        self.session = session
        self.sim = session.sim
        self.spec = spec
        self.region = region
        if spec.pattern == "random":
            self._pattern = RandomPattern(region, spec.io_pages, rng)
        else:
            self._pattern = SequentialPattern(region, spec.io_pages)
        self.running = False
        self.throughput = ThroughputMonitor()
        #: Completion latency from wire issue (fio's ``clat``): what the
        #: paper's latency figures report.
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        #: Device-internal service latency only.
        self.device_read_latency = LatencyHistogram()
        self.device_write_latency = LatencyHistogram()
        self._next_allowed_us = 0.0
        self._rate = (
            spec.rate_limit_mbps * MBPS if spec.rate_limit_mbps is not None else None
        )
        # Per-IO constants, resolved once.  An unpaced worker needs no
        # rate check, so its issue path IS ``_issue_now`` (the instance
        # attribute shadows the method).  ``_on_complete`` is shadowed
        # by its own binding so handing it to every submit allocates
        # nothing; a tap assigned on the instance later still replaces
        # it.
        self._io_pages = spec.io_pages
        self._io_bytes = spec.io_pages * 4096
        self._op = OP_READ if spec.read_ratio == 1.0 else OP_WRITE
        self._next_lba = self._pattern.next_lba
        self._on_complete = self._on_complete  # type: ignore[method-assign]
        if self._rate is None:
            self._issue = self._issue_now  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing IOs (idempotent)."""
        if self.running:
            return
        self.running = True
        self.throughput.start(self.sim.now)
        for _ in range(self.spec.queue_depth):
            self._issue()

    def stop(self) -> None:
        """Stop issuing; in-flight IOs drain naturally."""
        self.running = False

    def begin_measurement(self) -> None:
        """Discard warm-up samples and start the measured window now."""
        self.throughput.start(self.sim.now)
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        self.device_read_latency = LatencyHistogram()
        self.device_write_latency = LatencyHistogram()

    # ------------------------------------------------------------------
    # IO issue path
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        if not self.running:
            return
        if self._rate is not None:
            now = self.sim.now
            if self._next_allowed_us > now:
                # Reserve this IO's pacing slot, then fire unconditionally
                # at that time (re-checking would double-defer).
                self.sim.at(self._next_allowed_us, self._issue_now)
                self._next_allowed_us += self._io_bytes / self._rate
                return
            self._next_allowed_us = max(self._next_allowed_us, now) + (
                self._io_bytes / self._rate
            )
        self._issue_now()

    def _issue_now(self) -> None:
        if not self.running:
            return
        self.session.submit(self._op, self._next_lba(), self._io_pages, 0, self._on_complete)

    def _on_complete(self, request: FabricRequest) -> None:
        # Latencies computed from the timestamps directly: the request
        # is complete here, so the validating properties' None checks
        # (and repeated attribute loads) are pure overhead.
        complete = request.t_client_complete
        inflight_us = complete - request.t_wire_submit
        device_us = request.complete_time - request.submit_time
        self.throughput.record(complete, self._io_bytes)
        if request.op is OP_READ:
            self.read_latency.record(inflight_us)
            self.device_read_latency.record(device_us)
        else:
            self.write_latency.record(inflight_us)
            self.device_write_latency.record(device_us)
        self._issue()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> Dict[str, object]:
        """Snapshot of the measured window."""
        now = self.sim.now
        return {
            "name": self.spec.name,
            "bandwidth_mbps": self.throughput.bandwidth_mbps(now),
            "iops": self.throughput.iops(now),
            "read_latency": self.read_latency.summary(),
            "write_latency": self.write_latency.summary(),
            "device_read_latency": self.device_read_latency.summary(),
            "device_write_latency": self.device_write_latency.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FioWorker({self.spec.name}, qd={self.spec.queue_depth})"
