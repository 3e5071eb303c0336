"""Shard-boundary seam for the fabric layer.

When a rack simulation is sharded (:mod:`repro.sim.shard`), the
coordinator shard owns every client-side object -- initiators,
:class:`~repro.fabric.initiator.TenantSession`\\ s, policies, KV state
-- while each JBOF shard owns its targets, pipelines and devices.  The
direct method calls that cross that line in the unsharded topology are
replaced here by typed cross-shard messages:

``submit``
    A command capsule going client -> target.  Emitted by
    :class:`BoundarySubmitQueue` (which stands in for the session's
    arrival population) at the capsule's computed delivery time; the
    original request parks on the coordinator keyed by ``request_id``
    and a replica is rebuilt target-side.
``complete``
    The response capsule coming back.  Emitted by the pipeline's
    ``_reply_boundary`` hook at response-delivery time, carrying the
    target-side timestamps and credit grant; the
    coordinator restores them onto the parked request and runs the
    normal :meth:`TenantSession.deliver_completion`.
``connect`` / ``disconnect``
    Tenant arrival/departure control events.  A ``connect`` registers a
    :class:`GhostSession` on the target shard (giving the pipeline a
    shard-local *shadow* client port for RDMA write-data pulls);
    ``disconnect`` unregisters the tenant once its IO has drained.

Every message's delivery latency includes at least the per-message
floor plus a nonzero capsule serialization term plus propagation, so
it is *strictly* greater than the conservative lookahead (per-message
floor + propagation) that the window protocol is derived from --
:meth:`ShardKernel.emit` asserts this on every send.

Two deliberate, documented model deviations from the unsharded
topology (both invisible to the scheduling logic under test):

* ``connect``/``disconnect`` take one control-message latency instead
  of being instantaneous method calls.
* The RDMA pull of write data books a per-(client, JBOF) shadow port
  on the target shard instead of the client's real (coordinator-side)
  port, so a client writing through several JBOFs no longer serializes
  those pulls on one port.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fabric.network import Network
from repro.fabric.request import COMMAND_CAPSULE_BYTES, FabricRequest
from repro.sim.shard import ShardKernel, ShardMessage, ShardProtocolError

MSG_SUBMIT = "submit"
MSG_COMPLETE = "complete"
MSG_CONNECT = "connect"
MSG_DISCONNECT = "disconnect"

#: The coordinator always occupies shard slot 0.
COORDINATOR_SHARD = 0


def fabric_lookahead_us(network: Network) -> float:
    """Conservative lookahead: the minimum cross-shard fabric latency.

    Every fabric hop pays the per-message NIC ingress floor and the
    wire propagation delay; serialization time (bytes / bandwidth) is
    strictly positive on top, so this bound is strict for every real
    message.
    """
    return network.per_message_us + network.propagation_us


def _never_deliver(request: FabricRequest) -> None:  # pragma: no cover
    raise ShardProtocolError(
        f"local reply fired for boundary request {request!r}; "
        "the pipeline's _reply_boundary hook should have intercepted it"
    )


class CoordinatorFabric:
    """Coordinator-shard endpoint: session adoption + completion routing."""

    def __init__(self, sim, network: Network):
        self.sim = sim
        self.network = network
        self.kernel: ShardKernel = None  # bound once the executor exists
        self.sessions: Dict[str, object] = {}
        # Control events ride a command-capsule-sized message.
        self._ctrl_latency_us = (
            network.per_message_us
            + COMMAND_CAPSULE_BYTES / network.bandwidth
            + network.propagation_us
        )

    def bind_kernel(self, kernel: ShardKernel) -> None:
        self.kernel = kernel

    def target_stub(
        self, name: str, shard_id: int, ssd_names: List[str]
    ) -> "RemoteTargetStub":
        return RemoteTargetStub(self, name, shard_id, list(ssd_names))

    # -- session lifecycle ---------------------------------------------
    def adopt_session(self, session, stub: "RemoteTargetStub") -> None:
        """Reroute a freshly built session across the shard boundary.

        Called from the stub's ``accept_connection`` (i.e. still inside
        ``NvmeOfInitiator.connect``), before the session can issue: the
        arrival population is swapped for a message emitter and a
        parked-request table is attached.
        """
        if getattr(session, "namespace", None) is not None:
            raise NotImplementedError(
                "namespaces are not serialized across the shard boundary"
            )
        session._parked = {}
        session._arrive_pop = BoundarySubmitQueue(self, session, stub)
        self.sessions[session.tenant_id] = session

    def release_session(
        self, stub: "RemoteTargetStub", ssd_name: str, tenant_id: str
    ) -> None:
        session = self.sessions.pop(tenant_id)
        if session._parked:
            raise ShardProtocolError(
                f"disconnecting {tenant_id!r} with "
                f"{len(session._parked)} requests parked"
            )
        self.kernel.emit(
            stub.shard_id,
            MSG_DISCONNECT,
            self.sim.now + self._ctrl_latency_us,
            (stub.name, ssd_name, tenant_id),
        )

    # -- inbound -------------------------------------------------------
    def handle_message(self, msg: ShardMessage) -> None:
        if msg.kind != MSG_COMPLETE:
            raise ShardProtocolError(
                f"coordinator received unexpected message kind {msg.kind!r}"
            )
        (
            tenant_id,
            request_id,
            t_target_arrival,
            t_sched_enqueue,
            submit_time,
            complete_time,
            credit_grant,
        ) = msg.payload
        session = self.sessions[tenant_id]
        request = session._parked.pop(request_id)
        request.t_target_arrival = t_target_arrival
        request.t_sched_enqueue = t_sched_enqueue
        request.submit_time = submit_time
        request.complete_time = complete_time
        request.credit_grant = credit_grant
        # The response has landed: what ``_send_response`` does to the
        # replica on the JBOF shard happens to the original here.
        request._reply = None
        session.deliver_completion(request)


class RemoteTargetStub:
    """Coordinator-side stand-in for an :class:`NvmeOfTarget` on
    another shard.  Duck-types the surface ``NvmeOfInitiator.connect``
    and the cluster harness touch: ``name``, ``ssd_names``,
    ``pipeline()`` and ``accept_connection()``."""

    def __init__(
        self,
        coordinator: CoordinatorFabric,
        name: str,
        shard_id: int,
        ssd_names: List[str],
    ):
        if shard_id == COORDINATOR_SHARD:
            raise ValueError("a remote target cannot live on the coordinator shard")
        self.coordinator = coordinator
        self.name = name
        self.shard_id = shard_id
        self._ssd_names = ssd_names
        self._pipelines = {
            ssd_name: RemotePipelineStub(self, ssd_name) for ssd_name in ssd_names
        }

    @property
    def ssd_names(self) -> List[str]:
        return list(self._ssd_names)

    def pipeline(self, ssd_name: str) -> "RemotePipelineStub":
        try:
            return self._pipelines[ssd_name]
        except KeyError:
            raise KeyError(f"no SSD {ssd_name!r} on target {self.name}") from None

    def accept_connection(self, session, weight: float = 1.0) -> None:
        coordinator = self.coordinator
        coordinator.adopt_session(session, self)
        coordinator.kernel.emit(
            self.shard_id,
            MSG_CONNECT,
            coordinator.sim.now + coordinator._ctrl_latency_us,
            (
                self.name,
                session.ssd_name,
                session.tenant_id,
                session.initiator.name,
                weight,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteTargetStub({self.name} @ shard {self.shard_id})"


class RemotePipelineStub:
    """Stand-in for an :class:`SsdPipeline` living on another shard."""

    __slots__ = ("target", "ssd_name", "handle_arrival")

    def __init__(self, target: RemoteTargetStub, ssd_name: str):
        self.target = target
        self.ssd_name = ssd_name
        # TenantSession binds this at construction for its (replaced)
        # arrival population; it must never actually fire.
        self.handle_arrival = _never_deliver

    def unregister_tenant(self, tenant_id: str) -> None:
        self.target.coordinator.release_session(self.target, self.ssd_name, tenant_id)


class BoundarySubmitQueue:
    """Replaces a session's arrival population: parks the request on
    the coordinator and ships a ``submit`` message instead.

    ``add``'s ``when`` is the capsule delivery time the session already
    computed with its (coordinator-side) client-port booking -- the
    exact instant ``handle_arrival`` would run unsharded, and strictly
    beyond the lookahead because it includes capsule serialization.
    """

    __slots__ = ("coordinator", "session", "shard_id", "target_name", "ssd_name")

    def __init__(self, coordinator: CoordinatorFabric, session, stub: RemoteTargetStub):
        self.coordinator = coordinator
        self.session = session
        self.shard_id = stub.shard_id
        self.target_name = stub.name
        self.ssd_name = session.ssd_name

    def add(self, when_us: float, request: FabricRequest) -> None:
        self.session._parked[request.request_id] = request
        self.coordinator.kernel.emit(
            self.shard_id,
            MSG_SUBMIT,
            when_us,
            (
                self.target_name,
                self.ssd_name,
                request.tenant_id,
                request.request_id,
                request.op,
                request.lba,
                request.npages,
                request.priority,
            ),
        )


class GhostSession:
    """Target-shard stand-in for a coordinator-side tenant session.

    Carries exactly what ``NvmeOfTarget.accept_connection`` reads.  The
    ``client_port`` is a shard-local shadow port named
    ``<initiator>@<jbof>`` so write-data RDMA pulls book real (but
    per-JBOF) port time.
    """

    __slots__ = ("tenant_id", "ssd_name", "client_port", "namespace")

    def __init__(self, tenant_id: str, ssd_name: str, client_port):
        self.tenant_id = tenant_id
        self.ssd_name = ssd_name
        self.client_port = client_port
        self.namespace = None


class JbofShardHost:
    """JBOF-shard endpoint: hosts targets, rebuilds request replicas,
    and ships completions back to the coordinator."""

    def __init__(self, sim, network: Network, targets: Dict[str, object]):
        self.sim = sim
        self.network = network
        self.targets = dict(targets)
        self.kernel: ShardKernel = None
        self.ghosts: Dict[str, GhostSession] = {}
        for target in self.targets.values():
            for pipeline in target.pipelines.values():
                pipeline._reply_boundary = self._completion_boundary

    def bind_kernel(self, kernel: ShardKernel) -> None:
        self.kernel = kernel

    # -- outbound ------------------------------------------------------
    def _completion_boundary(self, request: FabricRequest, deliver_us: float) -> None:
        """Installed as every pipeline's ``_reply_boundary``: runs where
        the unsharded pipeline would schedule the local reply, with the
        same delivery instant."""
        self.kernel.emit(
            COORDINATOR_SHARD,
            MSG_COMPLETE,
            deliver_us,
            (
                request.tenant_id,
                request.request_id,
                request.t_target_arrival,
                request.t_sched_enqueue,
                request.submit_time,
                request.complete_time,
                request.credit_grant,
            ),
        )

    # -- inbound -------------------------------------------------------
    def handle_message(self, msg: ShardMessage) -> None:
        kind = msg.kind
        payload = msg.payload
        if kind == MSG_SUBMIT:
            (
                target_name,
                ssd_name,
                tenant_id,
                request_id,
                op,
                lba,
                npages,
                priority,
            ) = payload
            # The explicit request_id keeps the replica off the global
            # id counter, so building it never shifts the
            # coordinator-side id sequence.
            request = FabricRequest(
                tenant_id=tenant_id,
                op=op,
                lba=lba,
                npages=npages,
                priority=priority,
                request_id=request_id,
                _reply=_never_deliver,
            )
            self.targets[target_name].pipeline(ssd_name).handle_arrival(request)
        elif kind == MSG_CONNECT:
            target_name, ssd_name, tenant_id, client_name, weight = payload
            ghost = GhostSession(
                tenant_id,
                ssd_name,
                self.network.port(f"{client_name}@{target_name}"),
            )
            self.ghosts[tenant_id] = ghost
            self.targets[target_name].accept_connection(ghost, weight)
        elif kind == MSG_DISCONNECT:
            target_name, ssd_name, tenant_id = payload
            self.targets[target_name].pipeline(ssd_name).unregister_tenant(tenant_id)
            del self.ghosts[tenant_id]
        else:
            raise ShardProtocolError(
                f"JBOF shard received unexpected message kind {kind!r}"
            )
