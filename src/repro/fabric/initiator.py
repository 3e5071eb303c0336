"""Client-side NVMe-oF initiator.

A :class:`TenantSession` is the paper's notion of a tenant: one RDMA
qpair plus one NVMe qpair bound to a single remote SSD.  Applications
(the fio-like workers, the KV store's blobstore) submit IOs against a
session; the session applies its client policy (credits, PARDA window,
plain queue depth) and puts command capsules on the wire.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro.fabric.network import Network
from repro.fabric.policies import ClientPolicy, UnlimitedClientPolicy
from repro.fabric.request import (
    COMMAND_CAPSULE_BYTES,
    FabricRequest,
    next_request_id,
)
from repro.metrics.histogram import LatencyHistogram
from repro.obs.session import current_session
from repro.sim.engine import Simulator
from repro.ssd.commands import IoOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.target import NvmeOfTarget

CompletionCallback = Callable[[FabricRequest], None]

#: Where one IO's latency accrues, in flow order: each stage is the gap
#: between two consecutive stamps of its request, so the six sum to the
#: end-to-end latency.  The ordinal keeps a sorted listing in flow order.
STAGES = (
    "1_client_queue",  # t_client_submit -> t_wire_submit
    "2_command_wire",  # t_wire_submit -> t_target_arrival
    "3_target_submit",  # t_target_arrival -> t_sched_enqueue (a write's RDMA_READ too)
    "4_scheduler_queue",  # t_sched_enqueue -> submit_time
    "5_device",  # submit_time -> complete_time
    "6_response",  # complete_time -> t_client_complete
)


class NvmeOfInitiator:
    """One client host: a network port plus its tenant sessions."""

    def __init__(self, sim: Simulator, network: Network, name: str):
        self.sim = sim
        self.network = network
        self.name = name
        self.port = network.port(name)
        self.sessions: list["TenantSession"] = []
        #: ``{op: one histogram per stage, then the end-to-end one}``,
        #: filled at completion; None outside an obs session.  Whether a
        #: session observes this host is read once, here, as the
        #: Simulator reads it, so an unobserved IO pays one None test.
        self.stages: Optional[Dict[IoOp, List[LatencyHistogram]]] = None
        session = current_session()
        if session is not None:
            self.stages = {}
            session.registry.add(f"client.{name}", self)

    def connect(
        self,
        tenant_id: str,
        target: "NvmeOfTarget",
        ssd_name: str,
        policy: Optional[ClientPolicy] = None,
        queue_depth: int = 256,
        weight: float = 1.0,
        namespace=None,
    ) -> "TenantSession":
        """Attach to ``ssd_name`` on ``target`` as tenant ``tenant_id``.

        With ``namespace`` set, the session's LBAs are
        namespace-relative and bounds-checked at the target.
        """
        session = TenantSession(
            initiator=self,
            tenant_id=tenant_id,
            target=target,
            ssd_name=ssd_name,
            policy=policy or UnlimitedClientPolicy(),
            queue_depth=queue_depth,
        )
        session.namespace = namespace
        target.accept_connection(session, weight)
        self.sessions.append(session)
        return session

    def metrics(self) -> dict:
        """The latency waterfall: per op, each stage's mean and p99 in
        flow order, then the IO count and the end-to-end latency."""
        values: dict = {}
        for op, histograms in (self.stages or {}).items():
            *stages, e2e = histograms
            for stage, histogram in zip(STAGES, stages):
                values[f"{op.value}.{stage}.mean_us"] = histogram.mean
                values[f"{op.value}.{stage}.p99_us"] = histogram.percentile(99.0)
            values[f"{op.value}.count"] = e2e.count
            values[f"{op.value}.e2e.mean_us"] = e2e.mean
            values[f"{op.value}.e2e.p99_us"] = e2e.percentile(99.0)
            values[f"{op.value}.e2e.max_us"] = e2e.max
        return values


class TenantSession:
    """One tenant's qpair to one remote SSD."""

    def __init__(
        self,
        initiator: NvmeOfInitiator,
        tenant_id: str,
        target: "NvmeOfTarget",
        ssd_name: str,
        policy: ClientPolicy,
        queue_depth: int,
    ):
        if queue_depth <= 0:
            raise ValueError("queue depth must be positive")
        self.initiator = initiator
        self.sim = initiator.sim
        self.tenant_id = tenant_id
        self.target = target
        self.ssd_name = ssd_name
        self.policy = policy
        self.queue_depth = queue_depth
        # Wire-path shortcut: command capsules are delivered straight
        # into the owning pipeline's ``handle_arrival``, carrying this
        # session's bound ``deliver_completion`` as their reply route
        # (``request._reply``) -- the per-IO pipeline lookup and
        # bound-method creation are paid once here.
        self._arrive = target.pipeline(ssd_name).handle_arrival
        self._deliver = self.deliver_completion
        self._stages = initiator.stages
        # Closed-loop resubmits all land on the same arrival callback,
        # pre-bound by the population; each carries one payload (the
        # request).  The shard boundary swaps this object for a queue
        # that routes arrivals across shards.
        self._arrive_pop = self.sim.population(self._arrive)
        # The serialisation arithmetic of ``Network.send`` is inlined
        # into the issue paths below; every network parameter is fixed
        # after construction, so the scalars are hoisted here.  The
        # capsule's bandwidth quotient is precomputed (the division
        # result is exact either way); the additions keep ``send``'s
        # association order so timings stay bit-identical.
        network = initiator.network
        self._port = initiator.port
        self._per_message_us = network.per_message_us
        self._propagation_us = network.propagation_us
        self._capsule_wire_us = COMMAND_CAPSULE_BYTES / network.bandwidth
        #: Optional NVMe namespace; installed by connect() before the
        #: target registers the tenant.
        self.namespace = None
        self.inflight = 0
        self.submitted = 0
        self.completed = 0
        # Pending IOs grouped by priority: when the policy gates
        # submission, tagged latency-sensitive IOs (higher priority)
        # go on the wire before queued bulk traffic -- the client-side
        # half of the paper's priority tagging.  The application
        # callback travels on the request itself (``_on_complete``).
        self._pending_by_priority: Dict[int, Deque[FabricRequest]] = {}
        self._pending_count = 0
        # Policies inheriting the base no-op observers (and the
        # never-gating unlimited policy) cost nothing per IO.
        policy_type = type(policy)
        self._policy_gates = policy_type.allow is not UnlimitedClientPolicy.allow
        self._policy_observes_submit = policy_type.on_submit is not ClientPolicy.on_submit
        self._policy_observes_complete = (
            policy_type.on_complete is not ClientPolicy.on_complete
        )
        policy.bind(self)

    @property
    def client_port(self):
        return self.initiator.port

    @property
    def queued(self) -> int:
        """IOs accepted from the application but not yet on the wire."""
        return self._pending_count

    def submit(
        self,
        op: IoOp,
        lba: int,
        npages: int,
        priority: int = 0,
        on_complete: Optional[CompletionCallback] = None,
    ) -> FabricRequest:
        """Queue one IO; it goes on the wire when the policy allows."""
        # All positional: a keyword argument makes the type call build a
        # kwargs dict on every IO.  The id is the one the field's default
        # factory would draw.
        request = FabricRequest(
            self.tenant_id, op, lba, npages, priority, next_request_id()
        )
        now = self.sim.now
        request.t_client_submit = now
        request._on_complete = on_complete
        request._reply = self._deliver
        # Closed-loop steady state: nothing queued and the window open.
        # The request goes straight on the wire without the queue
        # round-trip (append + pop), which _try_issue would perform
        # with an identical outcome.
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
            self._arrive_pop.add(tx_done + self._propagation_us, request)
            return request
        queue = self._pending_by_priority.get(priority)
        if queue is None:
            queue = deque()
            self._pending_by_priority[priority] = queue
        queue.append(request)
        self._pending_count += 1
        self._try_issue()
        return request

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------
    def _pop_pending(self) -> FabricRequest:
        # Empty queues are deleted eagerly, so every present queue has
        # an IO; the overwhelmingly common single-priority case needs
        # no sort.
        by_priority = self._pending_by_priority
        if len(by_priority) == 1:
            priority, queue = next(iter(by_priority.items()))
        else:
            for priority in sorted(by_priority, reverse=True):
                queue = by_priority[priority]
                break
            else:
                raise IndexError("no pending IO")
        self._pending_count -= 1
        request = queue.popleft()
        if not queue:
            del by_priority[priority]
        return request

    def _try_issue(self) -> None:
        sim = self.sim
        port = self._port
        policy = self.policy
        gated = self._policy_gates
        observes = self._policy_observes_submit
        arrive = self._arrive_pop.add
        # The additions below mirror Network.send term-for-term (start +
        # per_message + bytes/bandwidth, then + propagation) so the two
        # issue paths and the generic send produce identical floats.
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
            arrive(tx_done + propagation_us, request)

    def disconnect(self) -> None:
        """Detach from the target.  All IO must have drained first.

        The target forgets the tenant (scheduler share, namespace), so
        a capsule sent afterwards would run on raw LBAs under a
        silently re-created share: from here on :meth:`submit` and a
        second ``disconnect`` raise.  Shadowing the two methods on the
        instance keeps the check off the live path.
        """
        if self.inflight or self.queued:
            raise RuntimeError(
                f"cannot disconnect {self.tenant_id!r}: "
                f"{self.inflight} inflight, {self.queued} queued"
            )
        self.target.pipeline(self.ssd_name).unregister_tenant(self.tenant_id)
        if self in self.initiator.sessions:
            self.initiator.sessions.remove(self)
        self.submit = self.disconnect = self._refuse_disconnected  # type: ignore[method-assign]

    def _refuse_disconnected(self, *args, **kwargs):
        raise RuntimeError(
            f"tenant {self.tenant_id!r} is disconnected from "
            f"{self.target.name}/{self.ssd_name}"
        )

    def deliver_completion(self, request: FabricRequest) -> None:
        """Called (via the network) when the response capsule lands.

        Refused while the target still owns the request (reply route or
        scheduler cookie attached): an early or repeated completion
        raises before any session state moves.
        """
        if request._reply is not None or request._slot is not None:
            raise RuntimeError(f"{request!r} completed while the target still owns it")
        request.t_client_complete = self.sim.now
        if self._stages is not None:
            self._fold_stages(request)
        self.inflight -= 1
        self.completed += 1
        if self._policy_observes_complete:
            self.policy.on_complete(request)
        on_complete = request._on_complete
        if on_complete is not None:
            on_complete(request)
        # A closed-loop resubmission inside ``on_complete`` takes the
        # fast path in :meth:`submit`, so the queue is normally empty
        # here and the issue loop has nothing to do.
        if self._pending_count:
            self._try_issue()

    def _fold_stages(self, request: FabricRequest) -> None:
        """File the request's six stage gaps and its end-to-end latency."""
        histograms = self._stages.get(request.op)
        if histograms is None:
            histograms = self._stages[request.op] = [
                LatencyHistogram() for _ in range(len(STAGES) + 1)
            ]
        stamps = (
            request.t_client_submit,
            request.t_wire_submit,
            request.t_target_arrival,
            request.t_sched_enqueue,
            request.submit_time,
            request.complete_time,
            request.t_client_complete,
        )
        for histogram, start, end in zip(histograms, stamps, stamps[1:]):
            histogram.record(end - start)
        histograms[-1].record(stamps[-1] - stamps[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantSession({self.tenant_id} -> {self.target.name}/{self.ssd_name}, "
            f"inflight={self.inflight}, queued={self.queued})"
        )
