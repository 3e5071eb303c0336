"""Test-side reference models of the switch's per-IO accounting.

The live switch does its slot placement inside the DRR pump, its slot
completion inside ``GimbalScheduler.notify_completion``, its two
completion-rate samples and clamps inside one
``RateController.on_completion`` and its EWMA step inside
``LatencyMonitor.observe`` -- flat code, no call per step.  What is
kept here is the formulation those were flattened from: one method per
step, written the obvious way.  The hypothesis suites in this
directory drive both and demand equal decisions and bit-equal floats.
:class:`LiveSwitch` is the live side's harness.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import GimbalParams
from repro.core.congestion import CongestionState, LatencyMonitor
from repro.core.rate_control import RateController
from repro.core.switch import GimbalScheduler
from repro.sim.engine import Simulator


class ReferenceVirtualSlot:
    """One group of in-flight IOs, at most ``slot_bytes`` weighted bytes."""

    def __init__(self, slot_bytes: int):
        self.slot_bytes = slot_bytes
        self.submits = 0
        self.completions = 0
        self.weighted_bytes = 0.0
        self.is_full = False

    def add(self, weighted_size: float) -> None:
        """Account one submitted IO; closes the slot when it fills."""
        if self.is_full:
            raise RuntimeError("cannot add to a closed slot")
        self.submits += 1
        self.weighted_bytes += weighted_size
        if self.weighted_bytes >= self.slot_bytes:
            self.is_full = True

    def complete_one(self) -> bool:
        """Account one completion; True when the whole slot just freed."""
        self.completions += 1
        if self.completions > self.submits:
            raise RuntimeError("more completions than submissions in slot")
        return self.is_full and self.completions == self.submits

    @property
    def drained(self) -> bool:
        return self.is_full and self.completions == self.submits


class ReferenceSlotManager:
    """Per-tenant slot accounting: ``try_place`` returns the slot an IO
    was placed into, or None when the tenant must defer."""

    def __init__(self, slot_bytes: int):
        if slot_bytes <= 0:
            raise ValueError("slot size must be positive")
        self.slot_bytes = slot_bytes
        self.current: Optional[ReferenceVirtualSlot] = None
        self._in_use: List[ReferenceVirtualSlot] = []
        self.last_drained_io_count = 0

    @property
    def slots_in_use(self) -> int:
        return len(self._in_use)

    def try_place(self, weighted_size: float, limit: int) -> Optional[ReferenceVirtualSlot]:
        if weighted_size <= 0:
            raise ValueError("weighted size must be positive")
        slot = self.current
        if slot is None or slot.is_full:
            if len(self._in_use) >= limit:
                return None
            slot = self.current = ReferenceVirtualSlot(self.slot_bytes)
            self._in_use.append(slot)
        slot.add(weighted_size)
        return slot

    def on_completion(self, slot: ReferenceVirtualSlot) -> bool:
        """Register a completion; True when ``slot`` drained and freed."""
        if slot.complete_one():
            self._in_use.remove(slot)
            if slot is self.current:
                self.current = None
            self.last_drained_io_count = slot.submits
            return True
        return False


def reference_enqueue(drr, tenant, request) -> None:
    """The enqueue half of ``GimbalScheduler.enqueue`` as its own step:
    queue the request and, unless parked for slots, make the tenant
    schedulable.  (The switch then pumps.)"""
    tenant.push(request)
    if not tenant.in_active and not tenant.deferred:
        tenant.in_active = True
        drr.active.append(tenant)


class ReferenceLatencyMonitor(LatencyMonitor):
    """Algorithm 1's ``update_latency`` over ``Ewma.update`` and
    ``min(max())``."""

    def observe(self, latency_us: float) -> CongestionState:
        params = self.params
        ewma = self.ewma.update(latency_us)
        if ewma > params.thresh_max_us:
            self.threshold = params.thresh_max_us
            state = CongestionState.OVERLOADED
        elif ewma > self.threshold:
            self.threshold = (self.threshold + params.thresh_max_us) / 2.0
            state = CongestionState.CONGESTED
        elif ewma > params.thresh_min_us:
            self.threshold -= params.alpha_t * (self.threshold - ewma)
            state = CongestionState.CONGESTION_AVOIDANCE
        else:
            self.threshold -= params.alpha_t * (self.threshold - ewma)
            state = CongestionState.UNDERUTILIZED
        self.threshold = min(max(self.threshold, params.thresh_min_us), params.thresh_max_us)
        if state is not self.state:
            self.transitions += 1
        self.state = state
        self.signals[state] += 1
        return state


def meter_rate(meter, now_us: float) -> float:
    """A completion-rate meter's reading at ``now_us``: drop the samples
    older than its window, then bytes in the window over its length."""
    events = meter._events
    horizon = now_us - meter.window_us
    while events and events[0][0] < horizon:
        meter._bytes_in_window -= events.popleft()[1]
    return meter._bytes_in_window / meter.window_us


class ReferenceRateController(RateController):
    """Algorithm 1's ``Completion`` with one ``record`` per meter, a
    rate query per use and ``min(max())`` clamps."""

    def on_completion(self, now_us, op, nbytes, state, overall_state=None) -> None:
        params = self.params
        if overall_state is None:
            overall_state = state
        self.meter.record(now_us, nbytes)
        self.clamp_meter.record(now_us, nbytes)
        step = nbytes / params.completion_rate_window_us
        if state is CongestionState.OVERLOADED:
            self.target_rate = meter_rate(self.meter, now_us)
            self.bucket.discard()
            self.target_rate -= step
        elif state is CongestionState.CONGESTED:
            self.target_rate -= step
        elif state is CongestionState.CONGESTION_AVOIDANCE:
            self.target_rate += step
        else:
            self.target_rate += params.beta * step
        if overall_state >= CongestionState.CONGESTION_AVOIDANCE:
            measured = meter_rate(self.clamp_meter, now_us)
            if measured > 0:
                self.target_rate = min(
                    self.target_rate, measured * params.completion_headroom
                )
        self.target_rate = min(
            max(self.target_rate, params.min_rate_bytes_per_us), params.max_rate_bytes_per_us
        )


class LiveSwitch:
    """A real :class:`GimbalScheduler` over a stub pipeline (this
    object): admissions arrive at :meth:`device_submit`, completions go
    in through ``scheduler.notify_completion``.  The clock stands still
    and the write cost is frozen, so the only tokens are the ones a test
    hands out; :meth:`device_submit` tops them up, so here they never
    bind (a test that meters tokens installs its own)."""

    name = "stub"

    def __init__(self, tenants, write_cost, **params):
        self.sim = Simulator()
        self.admitted = []
        self.scheduler = GimbalScheduler(GimbalParams(**params))
        self.scheduler.attach(self)
        for tenant_id in tenants:
            self.scheduler.register_tenant(tenant_id)
        estimator = self.scheduler.write_cost
        estimator.cost = write_cost
        estimator._last_update_us = 0.0  # the clock stays at 0: no ADMI step

    def refill(self) -> None:
        bucket = self.scheduler.rate.bucket
        bucket.read_tokens = bucket.write_tokens = bucket.max_tokens

    def device_submit(self, request) -> None:
        request.submit_time, request.complete_time = 0.0, 100.0
        self.admitted.append(request)
        self.refill()
