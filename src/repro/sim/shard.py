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

Determinism: the horizon sequence is a pure function of event
timestamps and message delivery times, both of which are independent
of how shards are scheduled onto processes.  Single-process round-robin
execution (``mode="inline"``) is therefore byte-identical to
multi-process execution (``mode="processes"``) of the same plan; CI
gates that at fixed shard counts (``tests/harness/test_sharded_rack.py``,
the ``shard-identity`` job).  Results are *not* invariant to the shard
count: the boundary charges fabric latency for control messages that
are instant calls unsharded, and the perf ledger recorded that sharded
and unsharded ``kv-rack`` runs count and steer operations differently
(ROADMAP item 2 owns finding the cause and the keep-or-delete verdict).
"""

from __future__ import annotations

import cProfile
import itertools
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

#: ``--shards`` CLI flag mirror; consulted by experiment drivers when no
#: explicit shard count is passed (see :func:`resolve_shards`).
SHARDS_ENV = "REPRO_SHARDS"

#: Set by :class:`repro.harness.parallel.WorkerPool` (and the suite
#: orchestrator) to the pool's effective job budget, so sharded points
#: running under a pool clamp their process fan-out (see
#: :func:`plan_shards`).
EFFECTIVE_JOBS_ENV = "REPRO_EFFECTIVE_JOBS"

#: Directory for per-shard cProfile dumps (``repro profile --shards``).
SHARD_PROFILE_ENV = "REPRO_SHARD_PROFILE"

SHARD_MODES = ("auto", "inline", "processes")


class ShardProtocolError(RuntimeError):
    """A shard violated the conservative-window contract."""


class ShardWorkerError(RuntimeError):
    """A shard worker process raised, or died, during a window step."""

    #: The shard that failed; set where the error is raised (an instance
    #: attribute, not a constructor argument, so the error still pickles
    #: out of a sweep worker).
    shard_id: Optional[int] = None


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
#: immutable on purpose: local channels run their step lazily in
#: ``wait``, so handing one the executor's live pending list would
#: inject a message routed to it later in the same round one window
#: early.
_NO_MESSAGES: Sequence[ShardMessage] = ()


# ----------------------------------------------------------------------
# Shard plan / environment resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Resolved shard fan-out for one sharded run."""

    requested: int
    shards: int
    mode: str  # "inline" | "processes"
    clamped: bool  # True when the worker-pool budget reduced the fan-out


def resolve_shards(value: Optional[int] = None) -> Optional[int]:
    """Resolve a shard count from an explicit value or ``REPRO_SHARDS``.

    Returns None (unsharded) when neither is set or the count is 0.
    A negative or non-integer count raises :class:`ValueError` naming
    where it came from (``--shards`` or ``REPRO_SHARDS``).
    """
    source = "--shards"
    if value is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return None
        source = SHARDS_ENV
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer >= 0, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0, got {value}")
    return value or None


def plan_shards(
    requested: int,
    mode: str = "auto",
    max_shards: Optional[int] = None,
) -> ShardPlan:
    """Clamp a requested shard fan-out against structure and budget.

    ``max_shards`` caps at the topology's JBOF count (a shard with no
    JBOFs is pointless).  When ``REPRO_EFFECTIVE_JOBS`` is set (the
    run is inside a :class:`~repro.harness.parallel.WorkerPool` worker
    or under ``repro suite``), the process fan-out is clamped so that
    this process plus its shard workers stay within the pool's job
    budget; when the budget leaves no room for extra processes the run
    falls back to inline mode, which shards the topology without
    spawning anything.  Budget clamps bump the ``sweep.shards_clamped``
    counter and are recorded on the returned plan so drivers can
    journal them.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}")
    requested = max(1, int(requested))
    effective = requested
    if max_shards is not None and effective > max_shards:
        effective = max_shards
    if mode == "inline":
        return ShardPlan(requested, effective, "inline", False)
    clamped = False
    budget_raw = os.environ.get(EFFECTIVE_JOBS_ENV, "").strip()
    if budget_raw:
        allowed = int(budget_raw) - 1  # this process occupies one slot
        if allowed < 1:
            plan = ShardPlan(requested, effective, "inline", True)
            _bump_clamped()
            return plan
        if effective > allowed:
            effective = allowed
            clamped = True
    if mode == "auto":
        mode = "processes" if (os.cpu_count() or 1) > 1 else "inline"
    if clamped:
        _bump_clamped()
    return ShardPlan(requested, effective, mode, clamped)


def _bump_clamped() -> None:
    from repro.obs import bump

    bump("sweep.shards_clamped")


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
# Channels: inline vs worker-process transport for one shard
# ----------------------------------------------------------------------
_PROFILE_SEQ = itertools.count()


def _profile_path(profile_dir: str, shard_id: int) -> str:
    """A collision-free dump path: several clusters (sweep points) may
    profile shards with the same id in one process or across worker
    processes, and ``repro profile`` merges per-shard-id afterwards."""
    return os.path.join(
        profile_dir,
        f"shard-{shard_id}.{os.getpid()}-{next(_PROFILE_SEQ)}.pstats",
    )


class _LocalChannel:
    """Round-robin in-process execution of one shard."""

    def __init__(self, shard_id: int, kernel: ShardKernel, profile_dir: Optional[str]):
        self.shard_id = shard_id
        self.kernel = kernel
        self._posted = None
        self._profiler = cProfile.Profile() if profile_dir else None
        self._profile_dir = profile_dir

    def next_event_time(self) -> Optional[float]:
        return self.kernel.sim.next_event_time()

    def post(self, horizon_us: float, inbound: Sequence[ShardMessage]) -> None:
        self._posted = (horizon_us, inbound)

    def wait(self):
        horizon_us, inbound = self._posted
        self._posted = None
        profiler = self._profiler
        if profiler is not None:
            profiler.enable()
        try:
            return self.kernel.step(horizon_us, inbound)
        finally:
            if profiler is not None:
                profiler.disable()

    def stats(self) -> Dict[str, Any]:
        return self.kernel.stats()

    def close(self) -> None:
        if self._profiler is not None:
            self._profiler.dump_stats(
                _profile_path(self._profile_dir, self.shard_id)
            )
            self._profiler = None


def _shard_worker_main(conn, factory, spec, profile_dir) -> None:
    """Worker-process loop: build the shard, then serve window steps."""
    profiler = cProfile.Profile() if profile_dir else None
    kernel = None
    try:
        kernel = factory(spec)
        conn.send(("ok", None))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "step":
                if profiler is not None:
                    profiler.enable()
                try:
                    result = kernel.step(cmd[1], cmd[2])
                finally:
                    if profiler is not None:
                        profiler.disable()
                conn.send(("ok", result))
            elif op == "next":
                conn.send(("ok", kernel.sim.next_event_time()))
            elif op == "stats":
                conn.send(("ok", kernel.stats()))
            elif op == "stop":
                break
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # parent already gone
            pass
    finally:
        if profiler is not None and kernel is not None:
            profiler.dump_stats(_profile_path(profile_dir, kernel.shard_id))
        conn.close()


class _ProcessChannel:
    """One shard hosted in a dedicated worker process over a pipe.

    Steps are posted asynchronously so all shard processes compute a
    window concurrently; the parent's blocked time in :meth:`wait` is
    accounted as barrier stall.
    """

    def __init__(self, shard_id: int, factory, spec, profile_dir: Optional[str]):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, factory, spec, profile_dir),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self.shard_id = shard_id
        self.barrier_stall_s = 0.0
        self._process.start()
        child_conn.close()
        self._recv()  # build acknowledgement

    def _recv(self):
        t0 = time.perf_counter()
        if not self._conn.poll(0):
            self._conn.poll(None)
            self.barrier_stall_s += time.perf_counter() - t0
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._failure(f"worker exited without replying ({exc!r})") from exc
        if status != "ok":
            raise self._failure(value)
        return value

    def _send(self, command: tuple) -> None:
        try:
            self._conn.send(command)
        except OSError as exc:
            raise self._failure(f"worker is gone ({exc!r})") from exc

    def _failure(self, detail: str) -> ShardWorkerError:
        error = ShardWorkerError(f"shard {self.shard_id} worker failed:\n{detail}")
        error.shard_id = self.shard_id
        return error

    def next_event_time(self) -> Optional[float]:
        self._send(("next",))
        return self._recv()

    def post(self, horizon_us: float, inbound: Sequence[ShardMessage]) -> None:
        self._send(("step", horizon_us, inbound))

    def wait(self):
        return self._recv()

    def stats(self) -> Dict[str, Any]:
        self._send(("stats",))
        return self._recv()

    def close(self, abort: bool = False) -> None:
        """Stop and join the worker.  Never raises.

        ``abort`` skips the stop handshake: after a failed window a
        healthy worker may be blocked sending a step result nobody will
        read, so it would never see the request.
        """
        if self._process is None:
            return
        if not abort:
            try:
                self._conn.send(("stop",))
            except OSError:  # worker already gone
                pass
            self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._conn.close()
        self._process = None


# ----------------------------------------------------------------------
# Window driver
# ----------------------------------------------------------------------
class ShardExecutor:
    """Drives a set of shard channels through conservative windows.

    Shard 0 is conventionally the coordinator and always runs in the
    parent process (``add_local``); JBOF shards run either inline or in
    worker processes (``add_process``), decided by the
    :class:`ShardPlan`.
    """

    def __init__(self, lookahead_us: float) -> None:
        if lookahead_us <= 0.0:
            raise ValueError(f"lookahead must be positive, got {lookahead_us}")
        self.lookahead_us = lookahead_us
        self.channels: List[Any] = []
        self.windows = 0
        self.messages = 0
        self.barrier_stall_s = 0.0
        self.shard_events: List[int] = []
        self._pending: List[List[ShardMessage]] = []
        #: Per shard: its earliest pending event, exact between steps
        #: (inside ``run_until`` only a step can touch a shard's heap;
        #: :meth:`_refresh_next` re-polls at entry).
        self._next_t: List[Optional[float]] = []
        #: Per shard: its clock after its last step.
        self._clock: List[float] = []
        self._profile_dir = os.environ.get(SHARD_PROFILE_ENV) or None
        self._closed = False
        #: The shard whose worker failed; the executor is unusable after.
        self._failed: Optional[int] = None
        #: A window did not run to its end (whoever raised).
        self._torn = False

    # -- topology construction ----------------------------------------
    def add_local(self, kernel: ShardKernel) -> int:
        shard_id = len(self.channels)
        if kernel.shard_id != shard_id:
            raise ValueError(
                f"kernel shard_id {kernel.shard_id} != slot {shard_id}"
            )
        return self._add(_LocalChannel(shard_id, kernel, self._profile_dir))

    def add_process(self, factory, spec) -> int:
        shard_id = len(self.channels)
        return self._add(_ProcessChannel(shard_id, factory, spec, self._profile_dir))

    def _add(self, channel) -> int:
        self.channels.append(channel)
        self._pending.append([])
        self._next_t.append(None)
        self._clock.append(0.0)
        self.shard_events.append(0)
        return channel.shard_id

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
        channels = self.channels
        for index, channel in enumerate(channels):
            if isinstance(channel, _ProcessChannel):
                channel._send(("next",))
        for index, channel in enumerate(channels):
            self._next_t[index] = (
                channel._recv()
                if isinstance(channel, _ProcessChannel)
                else channel.next_event_time()
            )

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
        if self._failed is not None:
            raise self.channels[self._failed]._failure(
                "in an earlier window; this executor cannot advance any further"
            )
        try:
            self._collect_local_outboxes()
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
        except BaseException as exc:
            # A worker failed, a coordinator callback raised or the run
            # was interrupted: steps may be out with no reply read.
            self._torn = True
            if isinstance(exc, ShardWorkerError):
                self._failed = exc.shard_id
            raise

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

    def _collect_local_outboxes(self) -> None:
        """Route messages emitted outside a window step.

        Coordinator-side domain code runs between ``run_until`` calls
        (instance setup, population scheduling) and may emit across the
        boundary while its simulator heap stays empty, so these sends
        would otherwise be invisible to :meth:`_earliest`.  Only local
        channels can hold such messages; worker processes run domain
        code exclusively inside steps.
        """
        for index, channel in enumerate(self.channels):
            if isinstance(channel, _LocalChannel):
                kernel = channel.kernel
                if kernel.outbox:
                    outbox = kernel.outbox
                    kernel.outbox = []
                    self._route(index, outbox)

    def _round(self, horizon_us: float) -> None:
        """One window: step the shards that have something due in it."""
        pending = self._pending
        next_ts = self._next_t
        stepped = []
        for index, channel in enumerate(self.channels):
            inbox = pending[index]
            if inbox:
                pending[index] = []
                if len(inbox) > 1:
                    inbox.sort(key=_message_key)
            else:
                next_t = next_ts[index]
                if next_t is None or next_t > horizon_us:
                    continue
                inbox = _NO_MESSAGES
            channel.post(horizon_us, inbox)
            stepped.append((index, channel))
        events = self.shard_events
        clock = self._clock
        for index, channel in stepped:
            outbox, next_ts[index], events[index], clock[index] = channel.wait()
            if outbox:
                self._route(index, outbox)
        self.windows += 1

    def _catch_up(self, horizon_us: float) -> None:
        """Bring the shards skipped since their last step to the horizon
        the run ended on, so on return from :meth:`run_until` every
        shard's clock reads what it would had it been stepped in every
        window.  Nothing can fire (a skipped shard has nothing due) and
        no window is counted."""
        for index, channel in enumerate(self.channels):
            if self._clock[index] < horizon_us:
                channel.post(horizon_us, _NO_MESSAGES)
                _outbox, _next_t, _fired, self._clock[index] = channel.wait()

    # -- teardown / reporting ------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Collect per-shard stats and stop workers.  Idempotent."""
        if self._closed:
            return self.report()
        self._closed = True
        for index, channel in enumerate(self.channels):
            if isinstance(channel, _LocalChannel):
                self.shard_events[index] = channel.stats()["events_fired"]
                channel.close()
                continue
            # Best effort: every worker is stopped and joined whatever
            # state its peers are in.  After a torn window no worker
            # is asked (a healthy one may still hold an unread step
            # reply), and one that cannot answer is gone: either way the
            # shard keeps the count of its last completed step.
            gone = self._torn
            if not gone:
                try:
                    self.shard_events[index] = channel.stats()["events_fired"]
                except ShardWorkerError:
                    gone = True
            self.barrier_stall_s += channel.barrier_stall_s
            channel.close(abort=gone)
        return self.report()

    def report(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "lookahead_us": self.lookahead_us,
            "windows": self.windows,
            "messages": self.messages,
            "barrier_stall_s": self.barrier_stall_s,
            "events_by_shard": list(self.shard_events),
            "events_fired": sum(self.shard_events),
        }

    def register_metrics(self, registry, prefix: str = "shard") -> None:
        """Install ``shard.*`` gauges, merging per-shard event counts."""
        registry.gauge(f"{prefix}.shards", lambda: self.shards)
        registry.gauge(f"{prefix}.lookahead_us", lambda: self.lookahead_us)
        registry.gauge(f"{prefix}.windows", lambda: self.windows)
        registry.gauge(f"{prefix}.messages", lambda: self.messages)
        registry.gauge(f"{prefix}.barrier_stall_s", lambda: self.barrier_stall_s)
        registry.gauge(f"{prefix}.events_fired", lambda: sum(self.shard_events))
        for index in range(self.shards):
            registry.gauge(
                f"{prefix}.events.{index}",
                lambda index=index: self.shard_events[index],
            )

    def close(self) -> None:
        self.finish()
