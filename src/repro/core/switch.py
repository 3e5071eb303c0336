"""The assembled Gimbal storage switch for one SSD.

:class:`GimbalScheduler` implements the generic
:class:`~repro.baselines.base.StorageScheduler` interface by wiring
together the four mechanisms:

====================  ============================================
latency monitors      one per IO type (Section 3.2)
rate controller       dual-token-bucket pacing (Section 3.3)
write-cost estimator  ADMI calibration (Section 3.4)
DRR + virtual slots   inter-tenant fairness (Section 3.5)
====================  ============================================

plus the credit grants the end-to-end flow control piggybacks on
completions (Section 3.6).  That grant is the per-SSD virtual view
(Section 3.7) clients act on; :meth:`GimbalScheduler.metrics` reports
the live rate, write cost and monitor states behind it.
The whole switch is self-clocked: work is pumped on request arrival
and on IO completion; a timer fires only when the pump blocked on
token-bucket refill.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.base import StorageScheduler
from repro.core.config import GimbalParams
from repro.core.congestion import CongestionState, LatencyMonitor
from repro.core.rate_control import RateController
from repro.core.scheduler import DrrSlotScheduler
from repro.core.write_cost import WriteCostEstimator
from repro.fabric.request import FabricRequest
from repro.obs.trace import TraceType
from repro.sim.units import MBPS
from repro.ssd.commands import OP_READ, OP_TRIM, OP_WRITE, IoOp


class GimbalScheduler(StorageScheduler):
    """Gimbal's per-SSD pipeline policy."""

    name = "gimbal"
    # Table 1: the switch adds ~40-60% over vanilla SPDK's per-IO
    # scheduler cycles (vanilla submit/complete is 32/16 "cycles" at
    # the paper's 125 cycles/us).
    submit_overhead_us = 0.16
    complete_overhead_us = 0.06

    def __init__(self, params: Optional[GimbalParams] = None):
        super().__init__()
        self.params = params or GimbalParams()
        self.monitors: Dict[IoOp, LatencyMonitor] = {
            OP_READ: LatencyMonitor(self.params),
            OP_WRITE: LatencyMonitor(self.params),
        }
        self.rate = RateController(self.params)
        self.write_cost = WriteCostEstimator(self.params)
        self.drr = DrrSlotScheduler(self.params)
        self._refill_wakeup = None
        # Tracing state: last observed congestion state and (rounded)
        # threshold per monitor, so the journal records transitions and
        # moves rather than one event per completion.
        self._traced_state: Dict[IoOp, CongestionState] = {
            op: monitor.state for op, monitor in self.monitors.items()
        }
        self._traced_thresh: Dict[IoOp, int] = {
            op: int(monitor.threshold) for op, monitor in self.monitors.items()
        }

    # ------------------------------------------------------------------
    # StorageScheduler interface
    # ------------------------------------------------------------------
    def register_tenant(self, tenant_id: str, weight: float = 1.0) -> None:
        super().register_tenant(tenant_id, weight)
        self.drr.add_tenant(tenant_id, weight)

    def unregister_tenant(self, tenant_id: str) -> None:
        """Detach an idle tenant and redistribute its virtual slots."""
        tenant = self.drr.tenants.get(tenant_id)
        if tenant is None:
            return
        # A partially filled open slot with every IO completed is fine
        # to drop; only genuinely outstanding IO blocks the detach.
        if tenant.pending or tenant.slots.outstanding_ios:
            raise RuntimeError(f"tenant {tenant_id!r} still has IO in flight")
        super().unregister_tenant(tenant_id)
        self.drr.remove_tenant(tenant_id)

    def attach(self, pipeline) -> None:
        super().attach(pipeline)
        # Resolved here, not in __init__: ablation constructors swap
        # ``monitors`` after ours has run.
        self._read_monitor = self.monitors[OP_READ]
        self._write_monitor = self.monitors[OP_WRITE]

    def enqueue(self, request: FabricRequest) -> None:
        drr = self.drr
        tenant = drr.tenants.get(request.tenant_id)
        if tenant is None:
            tenant = drr.add_tenant(request.tenant_id)
        tenant.push(request)
        if not tenant.in_active and not tenant.deferred:
            tenant.in_active = True
            drr.active.append(tenant)
        self._pump()

    def notify_completion(self, request: FabricRequest) -> None:
        sim = self.sim
        now = sim.now
        op = request.op
        if op is not OP_TRIM:
            # Trims are metadata-only: they carry no congestion signal.
            if op is OP_READ:
                monitor, other = self._read_monitor, self._write_monitor
            else:
                monitor, other = self._write_monitor, self._read_monitor
            state = monitor.observe(request.complete_time - request.submit_time)
            tracer = sim.tracer
            if tracer is not None:
                self._trace_monitor(tracer, now, op, monitor, state)
            # The headroom clamp keys off the more loaded monitor.
            overall = other.state
            if state > overall:
                overall = state
            self.rate.on_completion(now, op, request.npages * 4096, state, overall)
            if op is OP_WRITE:
                self.write_cost.observe_write_latency(now, monitor.ewma.value)
        slot = request._slot
        request._slot = None
        completions = slot.completions = slot.completions + 1
        if completions >= slot.submits:
            if completions > slot.submits:
                raise RuntimeError("more completions than submissions in slot")
            if slot.is_full:
                # Every IO of a closed slot is back: the slot frees, and
                # a tenant parked for slots may rejoin the round.
                tenant = slot.tenant
                slots = tenant.slots
                slots.in_use.remove(slot)
                if slot is slots.current:
                    slots.current = None
                slots.last_drained_io_count = completions
                drr = self.drr
                if tenant.deferred and len(slots.in_use) < drr.slot_limit:
                    tenant.deferred = False
                    tenant.in_active = True
                    drr.active.append(tenant)
        self._pump()

    def credit_for(self, tenant_id: str) -> int:
        """Total credit = allotted slots x IO count of the latest
        completed slot (Section 3.6)."""
        tenant = self.drr.tenants.get(tenant_id)
        if tenant is None:
            return 0
        per_slot = tenant.slots.last_drained_io_count or self.params.initial_slot_io_count
        credit = self.drr.slot_limit * per_slot
        return credit if credit > 1 else 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        sim = self.sim
        rate = self.rate
        write_cost = self.write_cost.cost
        bucket = rate.bucket
        bucket.update(sim.now, rate.target_rate, write_cost)
        drr = self.drr
        if not drr.active:
            return
        # ``device_submit`` is resolved per pump, not bound at attach:
        # it is hooked on the pipeline instance afterwards.
        blocked = drr.pump(write_cost, bucket, self.pipeline.device_submit)
        if blocked is None:
            return
        op, token_deficit = blocked
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                TraceType.BUCKET_DENY,
                sim.now,
                self._component_name,
                io=op.name,
                deficit_bytes=token_deficit,
            )
        # Wake the pump when the blocking bucket will have refilled.
        if op is OP_READ:
            share = rate.target_rate * write_cost / (1.0 + write_cost)
        else:
            share = rate.target_rate / (1.0 + write_cost)
        # The clamps are comparisons: a ``max``/``min`` call costs more
        # than the test itself on this per-denial path.
        floor = self.params.min_rate_bytes_per_us / (1.0 + write_cost)
        if floor > share:
            share = floor
        delay = token_deficit / share
        if delay < 1.0:
            delay = 1.0
        elif delay > 50_000.0:
            delay = 50_000.0
        if self._refill_wakeup is not None:
            self._refill_wakeup.cancel()
        self._refill_wakeup = sim.schedule(delay, self._on_refill_wakeup)

    def _on_refill_wakeup(self) -> None:
        self._refill_wakeup = None
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                TraceType.BUCKET_REFILL,
                self.sim.now,
                self._component_name,
                read_tokens=self.rate.bucket.read_tokens,
                write_tokens=self.rate.bucket.write_tokens,
            )
        self._pump()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def _component_name(self) -> str:
        pipeline = self.pipeline
        return f"switch.{pipeline.name}" if pipeline is not None else "switch"

    def _trace_monitor(
        self, tracer, now: float, op: IoOp, monitor: LatencyMonitor, state: CongestionState
    ) -> None:
        """Journal state transitions and threshold moves for one monitor."""
        previous = self._traced_state[op]
        if state is not previous:
            self._traced_state[op] = state
            tracer.emit(
                TraceType.CONGESTION,
                now,
                self._component_name,
                io=op.name,
                **{"from": previous.name},
                to=state.name,
                ewma_us=monitor.ewma_latency_us,
                threshold_us=monitor.threshold,
            )
        threshold = int(monitor.threshold)
        if threshold != self._traced_thresh[op]:
            self._traced_thresh[op] = threshold
            tracer.emit(
                TraceType.THRESHOLD,
                now,
                self._component_name,
                io=op.name,
                threshold_us=monitor.threshold,
                ewma_us=monitor.ewma_latency_us,
            )

    def metrics(self) -> dict:
        """The switch's live state, its monitors' and its rate controller's."""
        drr = self.drr
        tenants = drr.tenants.values()
        out = {
            "target_rate_mbps": self.rate.target_rate / MBPS,
            "write_cost": self.write_cost.cost,
            "inflight": sum(tenant.slots.outstanding_ios for tenant in tenants),
            "active_tenants": len(drr.active),
            "slot_limit": drr.slot_limit,
            "slot_deferrals": drr.deferrals,
            "pending": sum(tenant.pending for tenant in tenants),
        }
        parts = [(op.name.lower(), monitor) for op, monitor in self.monitors.items()]
        for part, source in parts + [("rate", self.rate)]:
            for name, value in source.metrics().items():
                out[f"{part}.{name}"] = value
        return out
