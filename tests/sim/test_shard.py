"""Unit tests for the conservative sharded execution layer.

Exercises the window protocol on toy ping-pong shards (no rack stack):
plan/budget resolution, the lookahead contract at emission, canonical
message ordering, bounded/unbounded ``run_until`` semantics including
the collect-outboxes-at-entry path, byte-identity between inline and
worker-process channels, the worker-failure path, and -- against the
step-every-shard window driver kept here as a reference model -- that
skipping idle shards changes nothing observable.
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.probe import KernelProbe
from repro.obs.registry import Registry
from repro.obs.session import capture
from repro.sim.engine import Simulator
from repro.sim.shard import (
    EFFECTIVE_JOBS_ENV,
    SHARDS_ENV,
    ShardExecutor,
    ShardKernel,
    ShardMessage,
    ShardProtocolError,
    ShardWorkerError,
    _message_key,
    plan_shards,
    resolve_shards,
)

LOOKAHEAD = 1.0
HOP = 2.5  # strictly beyond the lookahead, as every real fabric hop is


class Bouncer:
    """Toy shard logic: log deliveries; bounce pings until payload hits 0."""

    def __init__(self, peer: int):
        self.peer = peer
        self.kernel = None
        self.log = []

    def handle(self, msg: ShardMessage) -> None:
        self.log.append((msg.kind, msg.due_us, msg.src, msg.payload))
        if msg.kind == "ping" and msg.payload > 0:
            self.kernel.emit(
                self.peer, "ping", self.kernel.sim.now + HOP, msg.payload - 1
            )


def _probed_simulator():
    """A simulator with its own kernel probe attached: a ShardKernel
    reports ``events_fired`` and window counts off ``sim.probe``."""
    sim = Simulator()
    sim.probe = KernelProbe()
    return sim


def build_bouncer_shard(spec):
    """Module-level factory so worker processes can build the toy shard."""
    sim = _probed_simulator()
    bouncer = Bouncer(spec["peer"])
    kernel = ShardKernel(spec["shard_id"], sim, bouncer.handle, spec["lookahead_us"])
    bouncer.kernel = kernel
    kernel.bouncer = bouncer  # keep reachable for inline assertions
    return kernel


def build_broken_shard(spec):
    raise RuntimeError("deliberate shard build failure")


def build_raising_shard(spec):
    """A shard that builds fine and raises on its first delivery."""

    def handle(msg):
        raise RuntimeError("deliberate shard handler failure")

    return ShardKernel(spec["shard_id"], _probed_simulator(), handle, spec["lookahead_us"])


def _workers_of(executor):
    """The worker processes behind an executor's process channels
    (taken before ``finish()``, which drops the channel's reference)."""
    return [
        channel._process for channel in executor.channels if hasattr(channel, "_process")
    ]


def _toy_pair(mode: str):
    """A two-shard ping-pong topology; shard 0 is always local."""
    executor = ShardExecutor(lookahead_us=LOOKAHEAD)
    spec0 = {"shard_id": 0, "peer": 1, "lookahead_us": LOOKAHEAD}
    spec1 = {"shard_id": 1, "peer": 0, "lookahead_us": LOOKAHEAD}
    executor.add_local(build_bouncer_shard(spec0))
    if mode == "processes":
        executor.add_process(build_bouncer_shard, spec1)
    else:
        executor.add_local(build_bouncer_shard(spec1))
    return executor


def _toy_ring(count: int):
    """``count`` inline bouncer shards: 0 and 1 bounce between
    themselves, every further shard replies to 0."""
    executor = ShardExecutor(lookahead_us=LOOKAHEAD)
    for shard_id in range(count):
        peer = 1 if shard_id == 0 else 0
        executor.add_local(
            build_bouncer_shard(
                {"shard_id": shard_id, "peer": peer, "lookahead_us": LOOKAHEAD}
            )
        )
    return executor


class TestResolveShards:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "8")
        assert resolve_shards(3) == 3

    def test_zero_means_unsharded(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert resolve_shards(0) is None
        assert resolve_shards(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "4")
        assert resolve_shards(None) == 4
        monkeypatch.setenv(SHARDS_ENV, "0")
        assert resolve_shards(None) is None

    def test_bad_counts_rejected_naming_their_source(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV, "2")
        with pytest.raises(ValueError, match=r"^--shards must be >= 0, got -3$"):
            resolve_shards(-3)
        monkeypatch.setenv(SHARDS_ENV, "-1")
        with pytest.raises(ValueError, match=r"^REPRO_SHARDS must be >= 0, got -1$"):
            resolve_shards(None)
        monkeypatch.setenv(SHARDS_ENV, "two")
        with pytest.raises(ValueError, match=r"^REPRO_SHARDS must be an integer >= 0, got 'two'$"):
            resolve_shards(None)


class TestPlanShards:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(2, mode="threads")

    def test_topology_cap(self, monkeypatch):
        monkeypatch.delenv(EFFECTIVE_JOBS_ENV, raising=False)
        plan = plan_shards(8, mode="inline", max_shards=3)
        assert plan.shards == 3
        assert plan.requested == 8
        assert not plan.clamped

    def test_inline_mode_ignores_budget(self, monkeypatch):
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "1")
        plan = plan_shards(4, mode="inline")
        assert plan == plan_shards(4, mode="inline")
        assert plan.shards == 4
        assert plan.mode == "inline"
        assert not plan.clamped

    def test_no_budget_headroom_falls_back_inline(self, monkeypatch):
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "1")
        plan = plan_shards(4, mode="processes")
        assert plan.mode == "inline"
        assert plan.shards == 4  # topology still sharded, just not spawned
        assert plan.clamped

    def test_budget_clamps_process_fanout(self, monkeypatch):
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "3")
        plan = plan_shards(4, mode="processes")
        assert plan.mode == "processes"
        assert plan.shards == 2  # this process + 2 workers = budget of 3
        assert plan.clamped

    def test_budget_with_headroom_does_not_clamp(self, monkeypatch):
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "8")
        plan = plan_shards(2, mode="processes")
        assert plan.shards == 2
        assert not plan.clamped

    def test_clamp_bumps_counter(self, monkeypatch):
        monkeypatch.setenv(EFFECTIVE_JOBS_ENV, "2")
        with capture() as session:
            plan_shards(4, mode="processes")
        assert session.registry.counter("sweep.shards_clamped").value == 1


class TestShardKernel:
    def test_emit_enforces_strict_lookahead(self):
        sim = Simulator()
        kernel = ShardKernel(0, sim, lambda msg: None, LOOKAHEAD)
        with pytest.raises(ShardProtocolError):
            kernel.emit(1, "ping", LOOKAHEAD)  # due == now + L: not strict
        kernel.emit(1, "ping", LOOKAHEAD + 1e-9)
        assert len(kernel.outbox) == 1

    def test_emit_assigns_monotonic_seq(self):
        sim = Simulator()
        kernel = ShardKernel(0, sim, lambda msg: None, LOOKAHEAD)
        kernel.emit(1, "a", 10.0)
        kernel.emit(1, "b", 5.0)
        seqs = [msg.seq for msg in kernel.outbox]
        assert seqs == [1, 2]

    def test_step_runs_handler_at_due_time(self):
        log = []
        sim = Simulator()
        kernel = ShardKernel(0, sim, lambda msg: log.append((sim.now, msg.kind)), 1.0)
        inbound = [ShardMessage("ping", 0, 4.0, 0.0, 1, 1, None)]
        outbox, next_t, _fired, now = kernel.step(10.0, inbound)
        assert log == [(4.0, "ping")]
        assert outbox == []
        assert next_t is None
        assert now == 10.0

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        sim.at_(7.5, lambda _: None, None)
        sim.at_(3.25, lambda _: None, None)
        assert sim.next_event_time() == 3.25
        sim.run()
        assert sim.next_event_time() is None


class TestMessageOrdering:
    def test_canonical_key(self):
        a = ShardMessage("x", 0, 5.0, 1.0, 2, 7, None)
        b = ShardMessage("x", 0, 5.0, 1.0, 1, 9, None)
        c = ShardMessage("x", 0, 4.0, 3.0, 9, 1, None)
        assert sorted([a, b, c], key=_message_key) == [c, b, a]

    def test_inbox_sorted_by_due_then_seq(self):
        executor = ShardExecutor(lookahead_us=LOOKAHEAD)
        log = []
        sim0 = Simulator()
        executor.add_local(
            ShardKernel(0, sim0, lambda msg: log.append(msg.payload), LOOKAHEAD)
        )
        sim1 = Simulator()
        sender = ShardKernel(1, sim1, lambda msg: None, LOOKAHEAD)
        executor.add_local(sender)
        sender.emit(0, "x", 10.0, "late")
        sender.emit(0, "x", 5.0, "early")
        sender.emit(0, "x", 10.0, "late-after")  # same due: seq breaks the tie
        executor.run()
        assert log == ["early", "late", "late-after"]


class TestExecutorWindows:
    def test_ping_pong_drains(self):
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(1, "ping", HOP, 4)
        executor.run()
        report = executor.finish()
        # initial ping + 4 bounces, one window per hop
        assert report["messages"] == 5
        assert report["windows"] == 5
        logs = [executor.channels[i].kernel.bouncer.log for i in (0, 1)]
        assert [entry[3] for entry in logs[1]] == [4, 2, 0]
        assert [entry[3] for entry in logs[0]] == [3, 1]
        assert report["events_fired"] == 5

    def test_collects_outbox_emitted_between_runs(self):
        # Domain code emits while the local heap is empty; run_until must
        # see the pending send at entry or it would return immediately.
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(1, "ping", HOP, 0)
        assert shard0.sim.next_event_time() is None
        executor.run()
        assert executor.channels[1].kernel.bouncer.log == [("ping", HOP, 0, 0)]

    def test_bounded_run_lands_every_clock_on_target(self):
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(1, "ping", 100.0, 0)
        executor.run_until(20.0)
        assert executor.channels[0].kernel.sim.now == 20.0
        assert executor.channels[1].kernel.sim.now == 20.0
        # message still in flight, delivered by the next (unbounded) run
        assert executor.channels[1].kernel.bouncer.log == []
        executor.run()
        assert executor.channels[1].kernel.bouncer.log == [("ping", 100.0, 0, 0)]

    def test_drain_leaves_every_clock_on_the_last_horizon(self):
        # Shard 2 has nothing to do in any window and shard 0 nothing
        # after the first: both are skipped, and both must still read
        # the last horizon once the drain returns.
        executor = _toy_ring(3)
        kernels = [channel.kernel for channel in executor.channels]
        kernels[0].emit(1, "ping", HOP, 0)
        kernels[1].sim.at(40.0, lambda: None)
        executor.run()
        assert executor.windows == 2
        assert [kernel.sim.now for kernel in kernels] == [40.0 + LOOKAHEAD] * 3
        assert kernels[0].stats()["clock_us"] == 40.0 + LOOKAHEAD

    def test_bounded_run_lands_skipped_clocks_on_target(self):
        # The closing round at the target finds shards 0 and 2 idle.
        executor = _toy_ring(3)
        kernels = [channel.kernel for channel in executor.channels]
        kernels[1].sim.at(5.0, lambda: None)
        executor.run_until(20.0)
        assert [kernel.sim.now for kernel in kernels] == [20.0] * 3
        assert executor.windows == 2  # the event's window + the closing round

    def test_same_round_message_waits_for_the_next_window(self):
        # Shard 1 is stepped with nothing inbound (a local event is due)
        # in the very round in which shard 0, stepped before it, sends
        # it a message.  Handing shard 1 the live pending list as its
        # inbox would inject that message now, ahead of the one shard 2
        # sends in the same round, which sorts first in the canonical
        # order -- and deliver it again one window later.
        executor = _toy_ring(3)
        kernels = [channel.kernel for channel in executor.channels]
        kernels[0].sim.at(2.0, kernels[0].emit, 1, "late", 10.0, None)
        kernels[1].sim.at(2.0, lambda: None)
        kernels[2].sim.at(1.0, kernels[2].emit, 1, "early", 10.0, None)
        executor.run()
        assert kernels[1].bouncer.log == [
            ("early", 10.0, 2, None),
            ("late", 10.0, 0, None),
        ]
        assert executor.messages == 2

    def test_idle_shard_is_not_stepped(self):
        executor = _toy_ring(3)
        kernels = [channel.kernel for channel in executor.channels]
        kernels[0].emit(1, "ping", HOP, 40)  # shards 0 and 1 bounce it
        calls = 0
        for target in (30.0, 60.0):
            executor.run_until(target)
            calls += 1
        executor.run()
        calls += 1
        assert executor.windows > 40
        # One catch-up (or closing-round) step per run_until, not one
        # per window; the bouncing pair is stepped about every other.
        assert kernels[2].probe.runs <= calls
        assert kernels[2].probe.sim_us == kernels[2].sim.now
        assert kernels[0].probe.runs > 20
        assert kernels[0].probe.sim_us == kernels[0].sim.now

    def test_bounded_run_is_resumable_past_target(self):
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(1, "ping", HOP, 2)
        executor.run_until(HOP)  # exactly the first delivery
        assert executor.channels[1].kernel.bouncer.log == [("ping", HOP, 0, 2)]
        executor.run()
        assert len(executor.channels[0].kernel.bouncer.log) == 1
        assert executor.finish()["messages"] == 3

    def test_route_rejects_invalid_destination(self):
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(7, "ping", HOP, 0)
        with pytest.raises(ShardProtocolError):
            executor.run()

    def test_route_rejects_self_send(self):
        executor = _toy_pair("inline")
        shard0 = executor.channels[0].kernel
        shard0.emit(0, "ping", HOP, 0)
        with pytest.raises(ShardProtocolError):
            executor.run()

    def test_add_local_validates_slot(self):
        executor = ShardExecutor(lookahead_us=LOOKAHEAD)
        sim = Simulator()
        with pytest.raises(ValueError):
            executor.add_local(ShardKernel(3, sim, lambda msg: None, LOOKAHEAD))

    def test_nonpositive_lookahead_rejected(self):
        with pytest.raises(ValueError):
            ShardExecutor(lookahead_us=0.0)

    def test_register_metrics_exposes_per_shard_gauges(self):
        executor = _toy_pair("inline")
        executor.channels[0].kernel.emit(1, "ping", HOP, 2)
        executor.run()
        executor.finish()
        registry = Registry()
        executor.register_metrics(registry)
        snap = registry.snapshot()
        assert snap["shard.shards"] == 2
        assert snap["shard.windows"] == executor.windows
        assert snap["shard.events.0"] + snap["shard.events.1"] == snap[
            "shard.events_fired"
        ]


class TestProcessChannels:
    def test_inline_and_process_reports_identical(self):
        reports = {}
        for mode in ("inline", "processes"):
            executor = _toy_pair(mode)
            executor.channels[0].kernel.emit(1, "ping", HOP, 6)
            executor.run()
            report = executor.finish()
            report.pop("barrier_stall_s")  # wall clock, machine-dependent
            reports[mode] = report
        assert reports["inline"] == reports["processes"]

    def test_worker_build_failure_surfaces(self):
        executor = ShardExecutor(lookahead_us=LOOKAHEAD)
        executor.add_local(
            ShardKernel(0, Simulator(), lambda msg: None, LOOKAHEAD)
        )
        with pytest.raises(ShardWorkerError):
            executor.add_process(build_broken_shard, {})

    def test_finish_is_idempotent(self):
        executor = _toy_pair("processes")
        executor.channels[0].kernel.emit(1, "ping", HOP, 1)
        executor.run()
        first = executor.finish()
        second = executor.finish()
        assert first == second

    def _failing_trio(self):
        """Local shard 0, a worker whose handler raises, a healthy worker."""
        executor = ShardExecutor(lookahead_us=LOOKAHEAD)
        spec = {"peer": 0, "lookahead_us": LOOKAHEAD}
        executor.add_local(build_bouncer_shard({**spec, "shard_id": 0, "peer": 2}))
        executor.add_process(build_raising_shard, {**spec, "shard_id": 1})
        executor.add_process(build_bouncer_shard, {**spec, "shard_id": 2})
        return executor

    def test_finish_after_worker_failure_stops_every_worker(self):
        executor = self._failing_trio()
        workers = _workers_of(executor)
        try:
            started = time.perf_counter()
            shard0 = executor.channels[0].kernel
            shard0.emit(2, "ping", HOP, 3)  # keeps the healthy worker busy
            shard0.emit(1, "ping", 2 * HOP, 0)
            with pytest.raises(ShardWorkerError, match="shard 1 worker failed") as raised:
                executor.run()
            assert "deliberate shard handler failure" in str(raised.value)
            report = executor.finish()  # must neither raise nor hang
            assert len(workers) == 2 and not any(w.is_alive() for w in workers)
            assert raised.value.shard_id == 1
            assert report["windows"] >= 1
            assert report["events_by_shard"][2] >= 1  # last completed step
            # The executor is spent: it says so, naming the shard.
            with pytest.raises(ShardWorkerError, match="shard 1 worker failed") as again:
                executor.run_until(100.0)
            assert again.value.shard_id == 1
            assert executor.finish() == report
            assert time.perf_counter() - started < 8.0
        finally:
            for worker in workers:
                worker.kill()

    def test_killed_worker_fails_loudly_and_finish_recovers(self):
        executor = _toy_pair("processes")
        (worker,) = _workers_of(executor)
        try:
            started = time.perf_counter()
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=5.0)
            assert not worker.is_alive()
            executor.channels[0].kernel.emit(1, "ping", HOP, 2)
            with pytest.raises(ShardWorkerError, match="shard 1 worker failed"):
                executor.run()
            executor.finish()
            assert time.perf_counter() - started < 8.0
        finally:
            worker.kill()

    def test_finish_survives_a_worker_that_died_between_runs(self):
        executor = self._failing_trio()
        workers = _workers_of(executor)
        try:
            executor.channels[0].kernel.emit(2, "ping", HOP, 1)
            executor.run()
            os.kill(workers[0].pid, signal.SIGKILL)
            workers[0].join(timeout=5.0)
            report = executor.finish()
            assert not any(w.is_alive() for w in workers)
            assert report["events_by_shard"] == [1, 0, 1]  # the healthy peer was still asked
        finally:
            for worker in workers:
                worker.kill()


# ----------------------------------------------------------------------
# Reference window driver
# ----------------------------------------------------------------------
class StepEveryShardExecutor(ShardExecutor):
    """The window driver as it was before idle shards were skipped:
    every round posts to, waits on and routes every channel.  Kept as
    the reference model the skipping driver must be indistinguishable
    from (the pattern of ``TestGimbalTenantMatchesReference``)."""

    def _round(self, horizon_us: float) -> None:
        channels = self.channels
        pending = self._pending
        inboxes = pending[:]
        for index in range(len(pending)):
            pending[index] = []
        for index, channel in enumerate(channels):
            inbox = inboxes[index]
            if len(inbox) > 1:
                inbox.sort(key=_message_key)
            channel.post(horizon_us, inbox)
        events = self.shard_events
        for index, channel in enumerate(channels):
            outbox, next_t, fired, _now = channel.wait()
            self._next_t[index] = next_t
            events[index] = fired
            self._route(index, outbox)
        self.windows += 1

    def _catch_up(self, horizon_us: float) -> None:
        pass  # every shard was stepped to every horizon


class Relay:
    """Toy shard logic for the reference-driver suite.

    Logs every delivery together with the window it fired in, and
    forwards a ping while its time-to-live lasts: the next shard and the
    hop latency are functions of the shard and the remaining ttl, so a
    plan replays identically under any driver.
    """

    def __init__(self, shard_id: int, shards: int, hops):
        self.shard_id = shard_id
        self.shards = shards
        self.hops = hops
        self.kernel = None
        self.executor = None  # set on inline shards only
        self.log = []

    def _note(self, kind, due_us, src, ttl) -> None:
        window = self.executor.windows if self.executor is not None else None
        self.log.append((kind, due_us, src, ttl, window))

    def send(self, ttl: int) -> None:
        dst = (self.shard_id + 1 + ttl % (self.shards - 1)) % self.shards
        hop = self.hops[ttl % len(self.hops)]
        self.kernel.emit(dst, "ping", self.kernel.sim.now + hop, ttl)

    def handle(self, msg: ShardMessage) -> None:
        self._note(msg.kind, msg.due_us, msg.src, msg.payload)
        if msg.payload > 0:
            self.send(msg.payload - 1)

    def local_event(self, ttl) -> None:
        """A planned local event: a bare tick, or the start of a chain."""
        self._note("tick", self.kernel.sim.now, self.shard_id, ttl)
        if ttl is not None:
            self.send(ttl)


def build_relay_shard(spec):
    """Module-level factory: runs in the test process or in a worker."""
    sim = _probed_simulator()
    relay = Relay(spec["shard_id"], spec["shards"], spec["hops"])
    kernel = ShardKernel(spec["shard_id"], sim, relay.handle, LOOKAHEAD)
    relay.kernel = kernel
    kernel.relay = relay
    for time_us, ttl in spec["events"]:
        sim.at_(time_us, relay.local_event, ttl)
    plain_stats = kernel.stats
    # The delivery log rides out on stats(), the one call that reaches
    # a worker process.
    kernel.stats = lambda: {**plain_stats(), "log": list(relay.log)}
    return kernel


def _drive(executor_cls, plan, processes=False):
    """Run ``plan`` under ``executor_cls``; observe after every run."""
    executor = executor_cls(lookahead_us=LOOKAHEAD)
    shards = len(plan["shards"])
    for shard_id, (hops, events) in enumerate(plan["shards"]):
        spec = {
            "shard_id": shard_id,
            "shards": shards,
            "hops": hops,
            "events": events,
        }
        if processes and shard_id > 0:
            executor.add_process(build_relay_shard, spec)
        else:
            kernel = build_relay_shard(spec)
            kernel.relay.executor = executor
            executor.add_local(kernel)
    coordinator = executor.channels[0].kernel.relay
    observed = []
    try:
        for target_us, inject_ttl in plan["runs"]:
            if inject_ttl is not None:
                # Coordinator-side domain code acting between runs.
                coordinator.send(inject_ttl)
            executor.run_until(target_us)
            observed.append(
                {
                    "windows": executor.windows,
                    "messages": executor.messages,
                    "events_by_shard": list(executor.shard_events),
                    "shards": [
                        (stats["log"], stats["clock_us"], stats["events_fired"])
                        for stats in (channel.stats() for channel in executor.channels)
                    ],
                }
            )
        observed.append(executor.finish())
    finally:
        executor.close()
    for observation in observed:
        observation.pop("barrier_stall_s", None)  # wall clock
    return observed


#: Hop latencies sit strictly above the lookahead with room to spare for
#: float rounding at emit; event times leave long stretches in which
#: most shards (or all but one) have nothing due.
_hops = st.lists(st.integers(105, 900).map(lambda n: n / 100.0), min_size=1, max_size=3)
_events = st.lists(
    st.tuples(
        st.integers(0, 1200).map(lambda n: n / 4.0),
        st.one_of(st.none(), st.integers(0, 7)),
    ),
    max_size=4,
)


@st.composite
def _plans(draw):
    shards = draw(st.integers(2, 5))
    targets = sorted(draw(st.lists(st.integers(0, 1400).map(lambda n: n / 4.0), max_size=3)))
    injections = st.one_of(st.none(), st.integers(0, 5))
    runs = [(target, draw(injections)) for target in targets]
    runs.append((None, draw(injections)))  # then drain
    if draw(st.booleans()):
        runs.append((None, None))  # a drain with nothing left to do
    return {
        "shards": [(draw(_hops), draw(_events)) for _ in range(shards)],
        "runs": runs,
    }


#: Fixed plans for the worker-process legs (a fork per shard per run is
#: too slow to draw): a busy pair beside a shard that only ever ticks,
#: one beside a shard with nothing at all, and a five-shard fan-out
#: resumed at targets that fall inside and between bursts.
_FIXED_PLANS = [
    {
        "shards": [([2.5], [(0.0, 6)]), ([1.5, 3.0], []), ([4.0], [(50.0, None), (120.0, None)])],
        "runs": [(10.0, None), (60.0, 3), (None, None)],
    },
    {
        "shards": [([1.25], [(5.0, 7), (200.0, 2)]), ([2.0], [(5.0, 7)]), ([9.0], [])],
        "runs": [(None, None), (None, 4)],
    },
    {
        "shards": [
            ([3.0, 1.1], [(1.0, 5)]),
            ([2.0], [(300.0, 4)]),
            ([1.75, 6.0], []),
            ([5.5], [(1.0, None), (299.5, 7)]),
            ([1.05], [(150.0, 3)]),
        ],
        "runs": [(2.0, None), (149.0, 2), (301.0, None), (None, 5)],
    },
]


class TestSkippingDriverMatchesReference:
    """Stepping only the shards with something due is unobservable."""

    @settings(max_examples=200, deadline=None)
    @given(plan=_plans())
    def test_random_topologies(self, plan):
        assert _drive(ShardExecutor, plan) == _drive(StepEveryShardExecutor, plan)

    @pytest.mark.parametrize("plan", _FIXED_PLANS)
    def test_fixed_plans_inline_and_through_worker_processes(self, plan):
        reference = _drive(StepEveryShardExecutor, plan)
        assert _drive(ShardExecutor, plan) == reference
        # Something happened, and some shard sat windows out.
        assert reference[-1]["windows"] > 5
        assert reference[-1]["messages"] > 5
        workers = _drive(ShardExecutor, plan, processes=True)
        assert workers == _drive(StepEveryShardExecutor, plan, processes=True)
        # Worker shards cannot see the window counter; everything else
        # they report equals the inline run.
        def without_windows(shards):
            return [([entry[:4] for entry in log], clock, fired) for log, clock, fired in shards]

        for inline, forked in zip(reference[:-1], workers[:-1]):
            assert without_windows(forked.pop("shards")) == without_windows(inline["shards"])
            assert forked == {k: v for k, v in inline.items() if k != "shards"}
        assert workers[-1] == reference[-1]
