"""Differential-testing kit for the SSD model.

One randomized open-loop workload, generated once from a seed, is
replayed through freshly built devices and the device-visible behaviour
is captured exactly: every command's completion time, the host-facing
counters, the FTL's program/erase accounting, the per-block erase
counts (what least-worn-first block choice balances), the final
logical-to-physical state and how many events the run scheduled.

``replay`` is deliberately untolerant -- results compare with ``==``
so any divergence, down to the last microsecond of a completion time,
fails the differential tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.fabric.request import FabricRequest
from repro.obs.trace import TraceBuffer
from repro.sim.engine import Simulator
from repro.ssd.commands import DeviceCommand, IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry

#: Default geometry for differential runs: small enough to churn
#: through GC in a few hundred operations, enough overprovisioning for
#: the watermarks.
DIFF_GEOMETRY = SsdGeometry(
    num_channels=4, blocks_per_channel=12, pages_per_block=64, overprovision=0.35
)


@dataclass(frozen=True)
class ReplayOp:
    """One scheduled command of a replayable workload."""

    index: int
    op: IoOp
    lpn: int
    npages: int
    submit_us: float


@dataclass(frozen=True)
class ReplayResult:
    """Everything device-visible about one replay, exactly comparable."""

    #: Per-command ``(index, op name, lpn, npages, submit_us, complete_us)``.
    completions: Tuple[Tuple[int, str, int, int, float, float], ...]
    device_stats: object
    ftl_stats: object
    page_map: Tuple[int, ...]
    erase_counts: Tuple[int, ...]
    final_time_us: float
    #: The kernel's sequence counter at the end: every event scheduled.
    scheduled_events: int

    def diff(self, other: "ReplayResult") -> List[str]:
        """Human-readable list of fields that differ (empty == identical)."""
        lines: List[str] = []
        for field in (
            "device_stats",
            "ftl_stats",
            "page_map",
            "erase_counts",
            "final_time_us",
            "scheduled_events",
        ):
            if getattr(self, field) != getattr(other, field):
                lines.append(f"{field}: {getattr(self, field)!r} != {getattr(other, field)!r}")
        if self.completions != other.completions:
            for mine, theirs in zip(self.completions, other.completions):
                if mine != theirs:
                    lines.append(f"completion {mine!r} != {theirs!r}")
                    break
            if len(self.completions) != len(other.completions):
                lines.append(
                    f"completion count {len(self.completions)} != {len(other.completions)}"
                )
        return lines


def generate_workload(
    geometry: SsdGeometry = DIFF_GEOMETRY,
    *,
    ops: int = 400,
    seed: int = 0,
    read_fraction: float = 0.45,
    trim_fraction: float = 0.05,
    max_pages: int = 4,
    mean_gap_us: float = 25.0,
    hot_fraction: float = 0.2,
    hot_weight: float = 0.6,
) -> List[ReplayOp]:
    """Randomized open-loop schedule over the exported LBA space.

    A hot region (``hot_fraction`` of the space drawing ``hot_weight``
    of the accesses) gives GC a skewed invalidation pattern, the part
    of the state space where FTL bugs actually live.
    """
    rng = random.Random(seed)
    exported = geometry.exported_pages
    hot_pages = max(max_pages, int(exported * hot_fraction))
    schedule: List[ReplayOp] = []
    clock = 0.0
    for index in range(ops):
        clock += rng.expovariate(1.0 / mean_gap_us)
        npages = rng.randint(1, max_pages)
        if rng.random() < hot_weight:
            lpn = rng.randrange(hot_pages - npages + 1)
        else:
            lpn = rng.randrange(exported - npages)
        roll = rng.random()
        if roll < trim_fraction:
            op = IoOp.TRIM
        elif roll < trim_fraction + read_fraction:
            op = IoOp.READ
        else:
            op = IoOp.WRITE
        schedule.append(ReplayOp(index, op, lpn, npages, clock))
    return schedule


def as_device_command(item: ReplayOp) -> DeviceCommand:
    return DeviceCommand(item.op, item.lpn, item.npages)


def as_fabric_request(item: ReplayOp) -> FabricRequest:
    """The carrier the fabric datapath submits: the request itself, its
    ``lpn`` set the way the pipeline sets it at admission."""
    request = FabricRequest(tenant_id="t", op=item.op, lba=item.lpn, npages=item.npages)
    request.lpn = item.lpn
    return request


def replay(
    schedule: List[ReplayOp],
    *,
    geometry: SsdGeometry = DIFF_GEOMETRY,
    condition: str = "fragmented",
    carrier: Callable[[ReplayOp], object] = as_device_command,
    tracer: Optional[TraceBuffer] = None,
) -> ReplayResult:
    """Run one schedule through a freshly built device, capture everything.

    A ``tracer`` is attached before the device is built, so it sees
    every GC event the device emits.
    """
    sim = Simulator()
    sim.tracer = tracer
    device = SsdDevice(sim, geometry=geometry)
    if condition == "clean":
        condition_device(device, "clean")
    elif condition == "fragmented":
        condition_device(device, "fragmented")
    elif condition != "none":
        raise ValueError(f"unknown condition {condition!r}")

    completions: List[Tuple[int, str, int, int, float, float]] = []

    def submit(item: ReplayOp) -> None:
        def done(cmd, item: ReplayOp = item) -> None:
            # The device's two stamps are the event times themselves.
            assert (cmd.submit_time, cmd.complete_time) == (item.submit_us, sim.now)
            completions.append(
                (item.index, item.op.value, item.lpn, item.npages, item.submit_us, sim.now)
            )

        device.submit(carrier(item), done)

    for item in schedule:
        sim.at_(item.submit_us, submit, item)
    sim.run()

    ftl = device.ftl
    completions.sort()
    return ReplayResult(
        completions=tuple(completions),
        device_stats=replace(device.stats),
        ftl_stats=replace(ftl.stats),
        page_map=tuple(ftl.page_map),
        erase_counts=tuple(ftl._erase_counts),
        final_time_us=sim.now,
        scheduled_events=sim._seq,
    )
