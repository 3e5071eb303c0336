"""Per-SSD processing pipeline on the storage node.

One pipeline binds one SSD, one SmartNIC core and one scheduling
policy -- the paper's shared-nothing design (Section 4.1).  It drives
the five-step NVMe-over-RDMA flow:

1. command capsule arrives (delivered by the network),
2. submission-path core processing; for writes, an RDMA_READ pulls the
   payload from the client before the request is eligible,
3. the scheduler admits the IO to the SSD whenever its policy allows,
4. the device completes; completion-path core processing runs; for
   reads, the payload is RDMA_WRITTEN back inside the same booking,
5. the response capsule returns with the scheduler's credit grant
   piggybacked (Section 3.6's reservation-field trick).

Every handler below runs once per IO, which makes this file the hot
path of the whole simulator.  The costs each step books are functions
of construction-time inputs only, so they are precomputed into
per-pipeline constants (and a per-size-class table for reads) rather
than re-derived per capsule; schedulers that inherit the base-class
no-op hooks are detected once so the steady state skips those calls
entirely; and the request itself is what the device receives and
stamps -- there is no second per-IO carrier.  Every event the pipeline
schedules carries the request alone (the kernel's one-payload
``at_``); the reply route arrives on it (``request._reply``) and the
handlers passed as callbacks are bound once at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.fabric.namespace import Namespace
from repro.fabric.network import Network, NetworkPort
from repro.fabric.request import RESPONSE_CAPSULE_BYTES, FabricRequest
from repro.fabric.smartnic import CpuCostModel, NicCore
from repro.obs.trace import TraceType
from repro.sim.engine import Simulator
from repro.ssd.commands import OP_READ, OP_TRIM, OP_WRITE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import StorageScheduler


def _overrides_base(scheduler: "StorageScheduler", method_name: str) -> bool:
    """True when ``scheduler`` overrides ``method_name`` rather than
    inheriting the :class:`StorageScheduler` no-op.

    Resolved by qualname so this module needs no runtime import of the
    baselines package (which imports the fabric package back).
    """
    method = getattr(type(scheduler), method_name, None)
    qualname = getattr(method, "__qualname__", "")
    return not qualname.startswith("StorageScheduler.")


@dataclass
class PipelineStats:
    """Throughput counters for one pipeline."""

    reads: int = 0
    writes: int = 0
    trims: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    by_tenant_bytes: Dict[str, int] = field(default_factory=dict)


class SsdPipeline:
    """Ingress/egress pipeline for a single SSD."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        device,
        core: NicCore,
        scheduler: "StorageScheduler",
        cpu_model: CpuCostModel,
        network: Network,
        port: NetworkPort,
        added_io_cost_us: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        self.device = device
        self.core = core
        self.scheduler = scheduler
        self.cpu_model = cpu_model
        self.network = network
        self.port = port
        #: NULL backends skip the NVMe driver overhead share.
        self.real_device = getattr(device, "ftl", None) is not None
        self.stats = PipelineStats()
        #: Responses owed to clients (requests between arrival and the
        #: response capsule going out).
        self._inflight_replies = 0
        #: Shard-boundary seam: when set, completed requests cross back
        #: to the coordinator shard as serialized messages instead of a
        #: locally scheduled reply callback (``fn(request, deliver_us)``,
        #: installed by :mod:`repro.fabric.boundary`).
        self._reply_boundary = None
        self._client_ports: Dict[str, NetworkPort] = {}
        self._namespaces: Dict[str, Namespace] = {}
        # Last credit grant journalled per tenant: the CREDIT trace
        # event fires on change, not on every response.
        self._traced_credit: Dict[str, int] = {}
        # Schedulers that keep the base-class no-op hooks pay nothing
        # for them: the flags below are resolved once per pipeline.
        self._sched_notifies = _overrides_base(scheduler, "notify_completion")
        self._sched_grants_credit = _overrides_base(scheduler, "credit_for")
        self._sched_has_view = _overrides_base(scheduler, "view_snapshot")
        #: Pass-through schedulers (vanilla FIFO) admit every request
        #: the moment it is enqueued, so the scheduler hop is skipped:
        #: :meth:`device_submit` runs as the event handler and stamps
        #: the enqueue time itself.
        self._sched_passthrough = getattr(scheduler, "passthrough_enqueue", False)
        # Handlers handed to ``at_`` / ``device.submit`` on every IO:
        # each is shadowed by its own binding, so passing one costs an
        # attribute load instead of a bound-method allocation per
        # capsule.  A hook assigned on the instance later (tests wrap
        # ``device_submit``) replaces the shadow and still takes effect.
        for handler in (
            "device_submit",
            "_scheduler_enqueue",
            "_fetch_write_data",
            "_write_data_arrived",
            "_device_completed",
            "_send_response",
        ):
            setattr(self, handler, getattr(self, handler))
        # Core-booking accounting is inlined at the two per-IO booking
        # sites; the per-tag [total_us, events] records are fetched
        # lazily so an idle pipeline adds no keys to the core's table.
        self._submit_record = None
        self._complete_record = None
        # Network serialisation scalars for the inlined response send
        # (all fixed after construction; the association order of the
        # additions matches Network.send so timings stay bit-identical).
        self._per_message_us = network.per_message_us
        self._propagation_us = network.propagation_us
        self._bandwidth = network.bandwidth
        #: Figure 16's knob: artificial per-IO processing added on the
        #: submission path (e.g. an offloaded computation).  Assigning
        #: it rebuilds the precomputed cost constants.
        self.added_io_cost_us = added_io_cost_us
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # Precomputed per-IO costs
    # ------------------------------------------------------------------
    @property
    def added_io_cost_us(self) -> float:
        return self._added_io_cost_us

    @added_io_cost_us.setter
    def added_io_cost_us(self, value: float) -> None:
        # The booking sites below inline ``NicCore.book`` minus its
        # negative-cost refusal, so the refusal lives where the value
        # enters.
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"added_io_cost_us must be finite and non-negative, got {value}")
        self._added_io_cost_us = value
        self._rebuild_cost_tables()

    def _rebuild_cost_tables(self) -> None:
        """Fold the cost-model arithmetic into per-pipeline constants.

        Invalidation rule: every input (cost model, scheduler overheads,
        ``real_device``, ``added_io_cost_us``) is fixed at construction
        except the Figure 16 knob, whose setter re-runs this.
        """
        model = self.cpu_model
        scheduler = self.scheduler
        real = self.real_device
        self._submit_cost_us = model.submit_cost_us(
            scheduler.submit_overhead_us, self._added_io_cost_us, real
        )
        self._complete_cost_us = model.complete_cost_us(
            scheduler.complete_overhead_us, real
        )
        #: ``{npages: completion cost}``; extended lazily for uncommon
        #: sizes in the completion handler.
        self._read_complete_cost = model.read_complete_cost_table(
            scheduler.complete_overhead_us, real
        )
        self._per_page_us = model.per_page_us

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        tenant_id: str,
        client_port: NetworkPort,
        weight: float = 1.0,
        namespace: Optional[Namespace] = None,
    ) -> None:
        """Attach a tenant; with ``namespace`` its LBAs are
        namespace-relative and bounds-checked on submission."""
        self._client_ports[tenant_id] = client_port
        if namespace is not None:
            self._namespaces[tenant_id] = namespace
        self.scheduler.register_tenant(tenant_id, weight)

    def unregister_tenant(self, tenant_id: str) -> None:
        """Detach a tenant whose IOs have drained."""
        self.scheduler.unregister_tenant(tenant_id)
        self._client_ports.pop(tenant_id, None)
        self._namespaces.pop(tenant_id, None)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def handle_arrival(self, request: FabricRequest) -> None:
        """Step 1-2: capsule landed; run submission-path processing.

        The response will go to ``request._reply``, installed by the
        sender before the capsule went on the wire.
        """
        sim = self.sim
        now = sim.now
        request.t_target_arrival = now
        self._inflight_replies += 1
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                TraceType.IO_SUBMIT,
                now,
                self.name,
                tenant=request.tenant_id,
                op=request.op.name,
                bytes=request.npages * 4096,
            )
        # Inlined NicCore.book(submit_cost, "submit"): the cost is a
        # per-pipeline constant >= 0 (the ``added_io_cost_us`` setter
        # refuses a negative knob), so only the horizon arithmetic and
        # the accounting remain.
        core = self.core
        cost = self._submit_cost_us
        busy = core.busy_until
        done = (now if now > busy else busy) + cost
        core.busy_until = done
        core.busy_us_total += cost
        record = self._submit_record
        if record is None:
            record = self._submit_record = core._by_tag.setdefault("submit", [0.0, 0])
        record[0] += cost
        record[1] += 1
        if request.op is OP_WRITE:
            sim.at_(done, self._fetch_write_data, request)
        elif self._sched_passthrough:
            sim.at_(done, self.device_submit, request)
        else:
            sim.at_(done, self._scheduler_enqueue, request)

    def _fetch_write_data(self, request: FabricRequest) -> None:
        """RDMA_READ the write payload from the client's memory."""
        client_port = self._client_ports[request.tenant_id]
        self.network.send(
            client_port, request.npages * 4096, self._write_data_arrived, request
        )

    def _write_data_arrived(self, request: FabricRequest) -> None:
        # Data-path handling (DMA completion, buffer management).
        done = self.core.book(self._per_page_us * request.npages, "datapath")
        if self._sched_passthrough:
            self.sim.at_(done, self.device_submit, request)
        else:
            self.sim.at_(done, self._scheduler_enqueue, request)

    def _scheduler_enqueue(self, request: FabricRequest) -> None:
        request.t_sched_enqueue = self.sim.now
        self.scheduler.enqueue(request)

    # ------------------------------------------------------------------
    # Device boundary (called by the scheduler)
    # ------------------------------------------------------------------
    def device_submit(self, request: FabricRequest) -> None:
        """Step 3: the scheduler admits this IO to the SSD now."""
        sim = self.sim
        if request.t_sched_enqueue is None:
            # Pass-through: enqueued and admitted in the same instant.
            request.t_sched_enqueue = sim.now
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                TraceType.IO_DISPATCH,
                sim.now,
                self.name,
                tenant=request.tenant_id,
                op=request.op.name,
                queued_us=sim.now - request.t_sched_enqueue,
            )
        namespace = self._namespaces.get(request.tenant_id)
        if namespace is None:
            request.lpn = request.lba
        else:
            # ``Namespace.translate`` inline; the refusal itself stays
            # there, so a bad range raises its NamespaceError verbatim.
            lba = request.lba
            npages = request.npages
            if lba < 0 or npages <= 0 or lba + npages > namespace.npages:
                namespace.translate(lba, npages)
            request.lpn = namespace.base_lpn + lba
        self.device.submit(request, self._device_completed)

    def _device_completed(self, request: FabricRequest) -> None:
        """Step 4: completion-path processing, then the response."""
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.emit(
                TraceType.IO_COMPLETE,
                sim.now,
                self.name,
                tenant=request.tenant_id,
                op=request.op.name,
                bytes=request.npages * 4096,
                device_lat_us=request.device_latency_us,
            )
        if self._sched_notifies:
            self.scheduler.notify_completion(request)
        if request.op is OP_READ:
            table = self._read_complete_cost
            npages = request.npages
            try:
                cost = table[npages]
            except KeyError:
                cost = table[npages] = (
                    self._complete_cost_us + self._per_page_us * npages
                )
        else:
            cost = self._complete_cost_us
        # Inlined NicCore.book(cost, "complete"), as on the ingress side.
        core = self.core
        now = sim.now
        busy = core.busy_until
        done = (now if now > busy else busy) + cost
        core.busy_until = done
        core.busy_us_total += cost
        record = self._complete_record
        if record is None:
            record = self._complete_record = core._by_tag.setdefault(
                "complete", [0.0, 0]
            )
        record[0] += cost
        record[1] += 1
        sim.at_(done, self._send_response, request)

    def _send_response(self, request: FabricRequest) -> None:
        """Step 5: RDMA_WRITE read data + response capsule with credits."""
        sim = self.sim
        now = sim.now
        tenant_id = request.tenant_id
        if self._sched_grants_credit:
            request.credit_grant = self.scheduler.credit_for(tenant_id)
            tracer = sim.tracer
            if tracer is not None and request.credit_grant != self._traced_credit.get(
                tenant_id
            ):
                self._traced_credit[tenant_id] = request.credit_grant
                tracer.emit(
                    TraceType.CREDIT,
                    now,
                    self.name,
                    tenant=tenant_id,
                    credit=request.credit_grant,
                )
        if self._sched_has_view:
            request.virtual_view = self.scheduler.view_snapshot()
        op = request.op
        stats = self.stats
        if op is OP_READ:
            payload_bytes = request.npages * 4096
            stats.reads += 1
            stats.read_bytes += payload_bytes
            wire_bytes = payload_bytes + RESPONSE_CAPSULE_BYTES
        elif op is OP_TRIM:
            # Deallocate moves no payload: counting its nominal LBA
            # range would inflate the tenant's throughput attribution.
            stats.trims += 1
            wire_bytes = RESPONSE_CAPSULE_BYTES
            payload_bytes = 0
        else:
            payload_bytes = request.npages * 4096
            stats.writes += 1
            stats.write_bytes += payload_bytes
            wire_bytes = RESPONSE_CAPSULE_BYTES
        if payload_bytes:
            per_tenant = stats.by_tenant_bytes
            try:
                per_tenant[tenant_id] += payload_bytes
            except KeyError:
                per_tenant[tenant_id] = payload_bytes
        reply = request._reply
        request._reply = None
        self._inflight_replies -= 1
        # Inlined Network.send(self.port, wire_bytes, reply, request):
        # term-for-term the same arithmetic (start + per_message +
        # bytes/bandwidth, then + propagation), so response timings are
        # bit-identical to the generic path.
        port = self.port
        busy = port.tx_busy_until
        start = now if now > busy else busy
        tx_done = start + self._per_message_us + wire_bytes / self._bandwidth
        port.tx_busy_until = tx_done
        port.bytes_sent += wire_bytes
        port.messages_sent += 1
        boundary = self._reply_boundary
        if boundary is None:
            sim.at_(tx_done + self._propagation_us, reply, request)
        else:
            boundary(request, tx_done + self._propagation_us)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Expose throughput counters; cascades to the scheduler."""
        prefix = prefix or f"pipeline.{self.name}"
        registry.gauge(f"{prefix}.reads", lambda: self.stats.reads)
        registry.gauge(f"{prefix}.writes", lambda: self.stats.writes)
        registry.gauge(f"{prefix}.trims", lambda: self.stats.trims)
        registry.gauge(f"{prefix}.read_bytes", lambda: self.stats.read_bytes)
        registry.gauge(f"{prefix}.write_bytes", lambda: self.stats.write_bytes)
        registry.gauge(f"{prefix}.inflight_replies", lambda: self._inflight_replies)
        register = getattr(self.scheduler, "register_metrics", None)
        if register is not None:
            register(registry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SsdPipeline({self.name}, scheduler={self.scheduler.name})"
