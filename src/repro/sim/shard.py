"""Conservative sharded parallel discrete-event execution.

A rack simulation is partitioned into *shards* -- one per JBOF
(SmartNIC + SSDs + backend state) plus a coordinator shard owning the
initiators and population scheduling -- each running its own
:class:`~repro.sim.engine.Simulator`.
Shards advance in lock-stepped conservative windows:

1. At a barrier, every shard reports the timestamp of its earliest
   pending event (:meth:`Simulator.next_event_time`); in-flight
   cross-shard messages contribute their delivery times.
2. The window driver computes ``m`` = the global minimum and opens the
   window ``(clock, m + L]`` where ``L`` is the *lookahead*: the
   minimum cross-shard fabric latency (per-message NIC ingress floor +
   wire propagation).
3. Each shard with something due in the window -- an inbound message,
   or an event at or before the horizon -- injects its messages (sorted
   by the canonical ``(due, send, src, seq)`` key) and runs its kernel
   to the shared horizon, collecting any messages it emits into an
   outbox.  A shard with nothing due is not stepped: no event and no
   message can reach it before its next step, so only its clock would
   move, and that is caught up when :meth:`ShardExecutor.run_until`
   returns.
4. Outboxes are routed at the barrier and the loop repeats until every
   shard is idle and no messages are in flight.

The protocol is conservative because every event processed in a window
carries timestamp >= ``m``, and every cross-shard message is emitted
with delivery latency *strictly greater* than ``L`` (a real fabric
capsule always adds a nonzero serialization term on top of the
per-message and propagation floors).  A message sent inside the window
therefore lands strictly after the horizon, so no shard can receive an
event in its own past.  :meth:`ShardKernel.emit` enforces the strict
inequality at emission time.

Every shard runs in this process, stepped round-robin.  Results are
*not* invariant to the shard count: the boundary charges fabric latency
for control messages that are instant calls unsharded, and the perf
ledger recorded that sharded and unsharded ``kv-rack`` runs count and
steer operations differently (ROADMAP item 1 owns finding the cause and
the keep-or-delete verdict).  ``docs/architecture.md`` records why
worker-process shards cannot pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


class ShardProtocolError(RuntimeError):
    """A shard violated the conservative-window contract."""


@dataclass(slots=True)
class ShardMessage:
    """One typed cross-shard message, delivered at ``due_us``.

    ``kind`` is interpreted by the receiving shard's handler (the sim
    layer only routes); the canonical taxonomy for the rack topology is
    submit / complete / connect / disconnect (see
    :mod:`repro.fabric.boundary`).
    """

    kind: str
    dst: int
    due_us: float
    send_us: float
    src: int
    seq: int
    payload: Any


def _message_key(msg: ShardMessage):
    return (msg.due_us, msg.send_us, msg.src, msg.seq)


#: The inbox of a shard stepped with nothing inbound.  Shared and
#: immutable on purpose: a round decides every shard's inbox before it
#: steps any, so handing one the executor's live pending list would
#: inject a message routed to it later in the same round one window
#: early.
_NO_MESSAGES: Sequence[ShardMessage] = ()


# ----------------------------------------------------------------------
# Shard kernel: one simulator + message seam
# ----------------------------------------------------------------------
class ShardKernel:
    """One shard's simulator plus its cross-shard message seam.

    ``handler(msg)`` runs on this shard's simulator at ``msg.due_us``
    for every inbound message.  Domain code sends through :meth:`emit`,
    which enforces the conservative lookahead contract.
    """

    def __init__(
        self,
        shard_id: int,
        sim,
        handler: Callable[[ShardMessage], None],
        lookahead_us: float,
    ) -> None:
        self.shard_id = shard_id
        self.sim = sim
        self.handler = handler
        self.lookahead_us = lookahead_us
        self.outbox: List[ShardMessage] = []
        self._seq = 0
        #: The kernel probe an obs session attached to ``sim``, if any.
        self.probe = sim.probe

    def emit(self, dst: int, kind: str, due_us: float, payload: Any = None) -> None:
        """Queue a message for delivery on shard ``dst`` at ``due_us``.

        The delivery must land *strictly* beyond the lookahead horizon
        of the current instant -- every real fabric hop does, because
        capsule serialization adds a nonzero term on top of the
        per-message + propagation floor that defines the lookahead.
        """
        now = self.sim.now
        if due_us <= now + self.lookahead_us:
            raise ShardProtocolError(
                f"shard {self.shard_id} emitted {kind!r} due at {due_us:.6f}us "
                f"from t={now:.6f}us: violates lookahead {self.lookahead_us:.6f}us"
            )
        self._seq += 1
        self.outbox.append(
            ShardMessage(kind, dst, due_us, now, self.shard_id, self._seq, payload)
        )

    def step(self, horizon_us: float, inbound: Sequence[ShardMessage]):
        """Inject ``inbound`` (pre-sorted) and advance to ``horizon_us``.

        Returns ``(outbox, next_event_time, events_fired, now)``.
        """
        sim = self.sim
        handler = self.handler
        for msg in inbound:
            sim.at_(msg.due_us, handler, msg)
        sim.run(until_us=horizon_us)
        out = self.outbox
        self.outbox = []
        fired = self.probe.fired_total if self.probe is not None else 0
        return (out, sim.next_event_time(), fired, sim.now)

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_id,
            "events_fired": self.probe.fired_total if self.probe is not None else 0,
            "clock_us": self.sim.now,
            "messages_sent": self._seq,
        }


# ----------------------------------------------------------------------
# Window driver
# ----------------------------------------------------------------------
class ShardExecutor:
    """Steps a set of shard kernels through conservative windows.

    Shard 0 is conventionally the coordinator; every shard is added
    with :meth:`add_local` in slot order.
    """

    def __init__(self, lookahead_us: float) -> None:
        if lookahead_us <= 0.0:
            raise ValueError(f"lookahead must be positive, got {lookahead_us}")
        self.lookahead_us = lookahead_us
        self.channels: List[ShardKernel] = []
        self.windows = 0
        self.messages = 0
        self.shard_events: List[int] = []
        self._pending: List[List[ShardMessage]] = []
        #: Per shard: its earliest pending event, exact between steps
        #: (inside ``run_until`` only a step can touch a shard's heap;
        #: :meth:`_refresh_next` re-polls at entry).
        self._next_t: List[Optional[float]] = []
        #: Per shard: its clock after its last step.
        self._clock: List[float] = []

    # -- topology construction ----------------------------------------
    def add_local(self, kernel: ShardKernel) -> int:
        shard_id = len(self.channels)
        if kernel.shard_id != shard_id:
            raise ValueError(
                f"kernel shard_id {kernel.shard_id} != slot {shard_id}"
            )
        self.channels.append(kernel)
        self._pending.append([])
        self._next_t.append(None)
        self._clock.append(0.0)
        self.shard_events.append(0)
        return shard_id

    @property
    def shards(self) -> int:
        return len(self.channels)

    # -- window loop ---------------------------------------------------
    def _refresh_next(self) -> None:
        """Re-poll every shard's earliest pending event.

        Needed at the start of each run: domain code may have scheduled
        new coordinator events (population launches, measurement
        deadlines) between runs.
        """
        self._next_t = [kernel.sim.next_event_time() for kernel in self.channels]

    def _earliest(self) -> Optional[float]:
        earliest: Optional[float] = None
        for next_t in self._next_t:
            if next_t is not None and (earliest is None or next_t < earliest):
                earliest = next_t
        for inbox in self._pending:
            for msg in inbox:
                if earliest is None or msg.due_us < earliest:
                    earliest = msg.due_us
        return earliest

    def run_until(self, target_us: Optional[float] = None) -> None:
        """Advance the sharded topology to ``target_us`` (None = drain).

        With a target, every shard's clock lands exactly on the target
        (mirroring ``Simulator.run(until_us=...)`` semantics); without
        one, the loop runs until every shard is idle and no messages
        are in flight, and every clock lands on the last horizon.
        """
        self._collect_outboxes()
        self._refresh_next()
        lookahead = self.lookahead_us
        horizon = None
        while True:
            earliest = self._earliest()
            if earliest is None or (target_us is not None and earliest > target_us):
                if target_us is not None:
                    horizon = target_us
                    self._round(horizon)
                if horizon is not None:
                    self._catch_up(horizon)
                return
            horizon = earliest + lookahead
            if target_us is not None and horizon > target_us:
                horizon = target_us
            self._round(horizon)

    def run(self) -> None:
        """Run to global quiescence (no events, no in-flight messages)."""
        self.run_until(None)

    def _route(self, src: int, outbox: List[ShardMessage]) -> None:
        pending = self._pending
        for msg in outbox:
            if msg.dst < 0 or msg.dst >= len(pending) or msg.dst == src:
                raise ShardProtocolError(
                    f"shard {src} emitted message to invalid shard {msg.dst}"
                )
            pending[msg.dst].append(msg)
            self.messages += 1

    def _collect_outboxes(self) -> None:
        """Route messages emitted outside a window step.

        Coordinator-side domain code runs between ``run_until`` calls
        (instance setup, population scheduling) and may emit across the
        boundary while its simulator heap stays empty, so these sends
        would otherwise be invisible to :meth:`_earliest`.
        """
        for index, kernel in enumerate(self.channels):
            if kernel.outbox:
                outbox = kernel.outbox
                kernel.outbox = []
                self._route(index, outbox)

    def _round(self, horizon_us: float) -> None:
        """One window: step the shards that have something due in it."""
        pending = self._pending
        next_ts = self._next_t
        due = []
        for index, inbox in enumerate(pending):
            if inbox:
                pending[index] = []
                if len(inbox) > 1:
                    inbox.sort(key=_message_key)
            else:
                next_t = next_ts[index]
                if next_t is None or next_t > horizon_us:
                    continue
                inbox = _NO_MESSAGES
            due.append((index, inbox))
        kernels = self.channels
        events = self.shard_events
        clock = self._clock
        for index, inbox in due:
            outbox, next_ts[index], events[index], clock[index] = kernels[index].step(
                horizon_us, inbox
            )
            if outbox:
                self._route(index, outbox)
        self.windows += 1

    def _catch_up(self, horizon_us: float) -> None:
        """Bring the shards skipped since their last step to the horizon
        the run ended on, so on return from :meth:`run_until` every
        shard's clock reads what it would had it been stepped in every
        window.  Nothing can fire (a skipped shard has nothing due) and
        no window is counted."""
        for index, kernel in enumerate(self.channels):
            if self._clock[index] < horizon_us:
                self._clock[index] = kernel.step(horizon_us, _NO_MESSAGES)[3]

    # -- reporting -----------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Collect per-shard event counts and return :meth:`report`."""
        self.shard_events = [kernel.stats()["events_fired"] for kernel in self.channels]
        return self.report()

    def report(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "lookahead_us": self.lookahead_us,
            "windows": self.windows,
            "messages": self.messages,
            # Shards in one process never wait on one another; the perf
            # ledger still reads the key.
            "barrier_stall_s": 0.0,
            "events_by_shard": list(self.shard_events),
            "events_fired": sum(self.shard_events),
        }

    def register_metrics(self, registry, prefix: str = "shard") -> None:
        """Install ``shard.*`` gauges, merging per-shard event counts."""
        registry.gauge(f"{prefix}.shards", lambda: self.shards)
        registry.gauge(f"{prefix}.lookahead_us", lambda: self.lookahead_us)
        registry.gauge(f"{prefix}.windows", lambda: self.windows)
        registry.gauge(f"{prefix}.messages", lambda: self.messages)
        registry.gauge(f"{prefix}.events_fired", lambda: sum(self.shard_events))
        for index in range(self.shards):
            registry.gauge(
                f"{prefix}.events.{index}",
                lambda index=index: self.shard_events[index],
            )
