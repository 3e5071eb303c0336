"""The IO round trip as it was before the one-payload flattening.

Test-side reference for ``tests/fabric/test_round_trip_differential.py``:
the same script is driven through this module's classes and through the
product, and every stamp must agree with ``==``.  What is kept here,
as it stood in the commit before the flattening (tracer emits aside):

* the **varargs kernel contract** -- ``at_(time, fn, *args)`` and
  ``population.add(time, *args)`` firing ``fn(*args)``
  (:class:`ReferenceSimulator`);
* the **session** that sends ``(request, reply)`` pairs on the wire
  (:class:`ReferenceSession`);
* the **pipeline** that receives the reply route as an argument, calls
  ``Namespace.translate`` and re-binds its handlers per IO
  (:class:`ReferencePipeline`).

The device, the network, the NIC core and the schedulers are the
product's: their own differential suites cover them, and they are
oblivious to which side drives them (``device.submit(cmd, on_complete)``
is unchanged; ``Network.send`` hands its population one argument, which
a varargs population takes as is).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable
from unittest import mock

from repro.fabric.initiator import TenantSession
from repro.fabric.pipeline import SsdPipeline
from repro.fabric.request import (
    COMMAND_CAPSULE_BYTES,
    RESPONSE_CAPSULE_BYTES,
    FabricRequest,
)
from repro.sim.engine import Simulator
from repro.ssd.commands import IoOp


# ----------------------------------------------------------------------
# Kernel: varargs handle-less events
# ----------------------------------------------------------------------
def _apply(call: tuple) -> None:
    fn, args = call
    fn(*args)


class _VarargsPopulation:
    def __init__(self, sim: "ReferenceSimulator", fn: Callable[..., Any]):
        self._sim = sim
        self.fn = fn

    def add(self, time_us: float, *args: Any) -> None:
        Simulator.at_(self._sim, time_us, _apply, (self.fn, args))


class ReferenceSimulator(Simulator):
    """``at_`` / ``population.add`` pack an argument tuple per event and
    fire ``fn(*args)``, at the product kernel's ``(time, seq)``."""

    def at_(self, time_us: float, fn: Callable[..., Any], *args: Any) -> None:
        Simulator.at_(self, time_us, _apply, (fn, args))

    def population(self, fn: Callable[..., Any]):
        return _VarargsPopulation(self, fn)


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class ReferenceSession(TenantSession):
    def submit(self, op, lba, npages, priority=0, on_complete=None):
        request = FabricRequest(
            tenant_id=self.tenant_id,
            op=op,
            lba=lba,
            npages=npages,
            priority=priority,
        )
        now = self.sim.now
        request.t_client_submit = now
        request._on_complete = on_complete
        if (
            not self._pending_count
            and self.inflight < self.queue_depth
            and (not self._policy_gates or self.policy.allow())
        ):
            request.t_wire_submit = now
            self.inflight += 1
            self.submitted += 1
            if self._policy_observes_submit:
                self.policy.on_submit(request)
            port = self._port
            busy = port.tx_busy_until
            start = now if now > busy else busy
            tx_done = start + self._per_message_us + self._capsule_wire_us
            port.tx_busy_until = tx_done
            port.bytes_sent += COMMAND_CAPSULE_BYTES
            port.messages_sent += 1
            self._arrive_pop.add(
                tx_done + self._propagation_us, request, self._deliver
            )
            return request
        queue = self._pending_by_priority.get(priority)
        if queue is None:
            queue = deque()
            self._pending_by_priority[priority] = queue
        queue.append(request)
        self._pending_count += 1
        self._try_issue()
        return request

    def _try_issue(self) -> None:
        sim = self.sim
        port = self._port
        policy = self.policy
        gated = self._policy_gates
        observes = self._policy_observes_submit
        per_message_us = self._per_message_us
        capsule_wire_us = self._capsule_wire_us
        propagation_us = self._propagation_us
        while (
            self._pending_count
            and self.inflight < self.queue_depth
            and (not gated or policy.allow())
        ):
            request = self._pop_pending()
            now = sim.now
            request.t_wire_submit = now
            self.inflight += 1
            self.submitted += 1
            if observes:
                policy.on_submit(request)
            busy = port.tx_busy_until
            start = now if now > busy else busy
            tx_done = start + per_message_us + capsule_wire_us
            port.tx_busy_until = tx_done
            port.bytes_sent += COMMAND_CAPSULE_BYTES
            port.messages_sent += 1
            self._arrive_pop.add(tx_done + propagation_us, request, self._deliver)

    def deliver_completion(self, request: FabricRequest) -> None:
        request.t_client_complete = self.sim.now
        self.inflight -= 1
        self.completed += 1
        if self._policy_observes_complete:
            self.policy.on_complete(request)
        on_complete = request._on_complete
        if on_complete is not None:
            on_complete(request)
        if self._pending_count:
            self._try_issue()


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class ReferencePipeline(SsdPipeline):
    def handle_arrival(self, request: FabricRequest, reply) -> None:
        sim = self.sim
        request.t_target_arrival = sim.now
        request._reply = reply
        self._inflight_replies += 1
        core = self.core
        cost = self._submit_cost_us
        now = sim.now
        busy = core.busy_until
        done = (now if now > busy else busy) + cost
        core.busy_until = done
        core.busy_us_total += cost
        record = self._submit_record
        if record is None:
            record = self._submit_record = core._by_tag.setdefault("submit", [0.0, 0])
        record[0] += cost
        record[1] += 1
        if request.op is IoOp.WRITE:
            sim.at_(done, self._fetch_write_data, request)
        elif self._sched_passthrough:
            sim.at_(done, self.device_submit, request)
        else:
            sim.at_(done, self._scheduler_enqueue, request)

    def _fetch_write_data(self, request: FabricRequest) -> None:
        client_port = self._client_ports[request.tenant_id]
        self.network.send(
            client_port, request.size_bytes, self._write_data_arrived, request
        )

    def _write_data_arrived(self, request: FabricRequest) -> None:
        done = self.core.book(self._per_page_us * request.npages, "datapath")
        if self._sched_passthrough:
            self.sim.at_(done, self.device_submit, request)
        else:
            self.sim.at_(done, self._scheduler_enqueue, request)

    def device_submit(self, request: FabricRequest) -> None:
        sim = self.sim
        if request.t_sched_enqueue is None:
            request.t_sched_enqueue = sim.now
        namespace = self._namespaces.get(request.tenant_id)
        if namespace is not None:
            request.lpn = namespace.translate(request.lba, request.npages)
        else:
            request.lpn = request.lba
        self.device.submit(request, self._device_completed)

    def _device_completed(self, request: FabricRequest) -> None:
        sim = self.sim
        if self._sched_notifies:
            self.scheduler.notify_completion(request)
        if request.op is IoOp.READ:
            table = self._read_complete_cost
            npages = request.npages
            cost = table.get(npages)
            if cost is None:
                cost = table[npages] = (
                    self._complete_cost_us + self._per_page_us * npages
                )
        else:
            cost = self._complete_cost_us
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
        if self._sched_grants_credit:
            request.credit_grant = self.scheduler.credit_for(request.tenant_id)
        op = request.op
        stats = self.stats
        if op is IoOp.READ:
            size_bytes = request.npages * 4096
            stats.reads += 1
            stats.read_bytes += size_bytes
            wire_bytes = size_bytes + RESPONSE_CAPSULE_BYTES
            payload_bytes = size_bytes
        elif op is IoOp.TRIM:
            stats.trims += 1
            wire_bytes = RESPONSE_CAPSULE_BYTES
            payload_bytes = 0
        else:
            size_bytes = request.npages * 4096
            stats.writes += 1
            stats.write_bytes += size_bytes
            wire_bytes = RESPONSE_CAPSULE_BYTES
            payload_bytes = size_bytes
        if payload_bytes:
            per_tenant = stats.by_tenant_bytes
            tenant_id = request.tenant_id
            per_tenant[tenant_id] = per_tenant.get(tenant_id, 0) + payload_bytes
        reply = request._reply
        request._reply = None
        self._inflight_replies -= 1
        port = self.port
        now = self.sim.now
        busy = port.tx_busy_until
        start = now if now > busy else busy
        tx_done = start + self._per_message_us + wire_bytes / self._bandwidth
        port.tx_busy_until = tx_done
        port.bytes_sent += wire_bytes
        port.messages_sent += 1
        self.sim.at_(tx_done + self._propagation_us, reply, request)


@contextmanager
def reference_fabric():
    """While active, ``NvmeOfTarget`` builds :class:`ReferencePipeline`\\ s
    and ``NvmeOfInitiator.connect`` builds :class:`ReferenceSession`\\ s
    (pass them a :class:`ReferenceSimulator`)."""
    with mock.patch("repro.fabric.target.SsdPipeline", ReferencePipeline), mock.patch(
        "repro.fabric.initiator.TenantSession", ReferenceSession
    ):
        yield
