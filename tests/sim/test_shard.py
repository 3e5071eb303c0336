"""Unit tests for the conservative sharded execution layer.

Exercises the window protocol on toy ping-pong shards (no rack stack):
the lookahead contract at emission, canonical message ordering,
bounded/unbounded ``run_until`` semantics including the
collect-outboxes-at-entry path, and -- against the step-every-shard
window driver kept here as a reference model -- that skipping idle
shards changes nothing observable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.probe import KernelProbe
from repro.obs.registry import Registry
from repro.sim.engine import Simulator
from repro.sim.shard import (
    ShardExecutor,
    ShardKernel,
    ShardMessage,
    ShardProtocolError,
    _message_key,
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
    """Build one toy ping-pong shard from a plain-dict spec."""
    sim = _probed_simulator()
    bouncer = Bouncer(spec["peer"])
    kernel = ShardKernel(spec["shard_id"], sim, bouncer.handle, spec["lookahead_us"])
    bouncer.kernel = kernel
    kernel.bouncer = bouncer  # keep reachable for inline assertions
    return kernel


def _toy_pair():
    """A two-shard ping-pong topology."""
    executor = ShardExecutor(lookahead_us=LOOKAHEAD)
    executor.add_local(build_bouncer_shard({"shard_id": 0, "peer": 1, "lookahead_us": LOOKAHEAD}))
    executor.add_local(build_bouncer_shard({"shard_id": 1, "peer": 0, "lookahead_us": LOOKAHEAD}))
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
        executor = _toy_pair()
        shard0 = executor.channels[0]
        shard0.emit(1, "ping", HOP, 4)
        executor.run()
        report = executor.finish()
        # initial ping + 4 bounces, one window per hop
        assert report["messages"] == 5
        assert report["windows"] == 5
        logs = [executor.channels[i].bouncer.log for i in (0, 1)]
        assert [entry[3] for entry in logs[1]] == [4, 2, 0]
        assert [entry[3] for entry in logs[0]] == [3, 1]
        assert report["events_fired"] == 5

    def test_collects_outbox_emitted_between_runs(self):
        # Domain code emits while the local heap is empty; run_until must
        # see the pending send at entry or it would return immediately.
        executor = _toy_pair()
        shard0 = executor.channels[0]
        shard0.emit(1, "ping", HOP, 0)
        assert shard0.sim.next_event_time() is None
        executor.run()
        assert executor.channels[1].bouncer.log == [("ping", HOP, 0, 0)]

    def test_bounded_run_lands_every_clock_on_target(self):
        executor = _toy_pair()
        shard0 = executor.channels[0]
        shard0.emit(1, "ping", 100.0, 0)
        executor.run_until(20.0)
        assert executor.channels[0].sim.now == 20.0
        assert executor.channels[1].sim.now == 20.0
        # message still in flight, delivered by the next (unbounded) run
        assert executor.channels[1].bouncer.log == []
        executor.run()
        assert executor.channels[1].bouncer.log == [("ping", 100.0, 0, 0)]

    def test_drain_leaves_every_clock_on_the_last_horizon(self):
        # Shard 2 has nothing to do in any window and shard 0 nothing
        # after the first: both are skipped, and both must still read
        # the last horizon once the drain returns.
        executor = _toy_ring(3)
        kernels = executor.channels
        kernels[0].emit(1, "ping", HOP, 0)
        kernels[1].sim.at(40.0, lambda: None)
        executor.run()
        assert executor.windows == 2
        assert [kernel.sim.now for kernel in kernels] == [40.0 + LOOKAHEAD] * 3
        assert kernels[0].stats()["clock_us"] == 40.0 + LOOKAHEAD

    def test_bounded_run_lands_skipped_clocks_on_target(self):
        # The closing round at the target finds shards 0 and 2 idle.
        executor = _toy_ring(3)
        kernels = executor.channels
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
        kernels = executor.channels
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
        kernels = executor.channels
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
        executor = _toy_pair()
        shard0 = executor.channels[0]
        shard0.emit(1, "ping", HOP, 2)
        executor.run_until(HOP)  # exactly the first delivery
        assert executor.channels[1].bouncer.log == [("ping", HOP, 0, 2)]
        executor.run()
        assert len(executor.channels[0].bouncer.log) == 1
        assert executor.finish()["messages"] == 3

    def test_route_rejects_invalid_destination(self):
        executor = _toy_pair()
        shard0 = executor.channels[0]
        shard0.emit(7, "ping", HOP, 0)
        with pytest.raises(ShardProtocolError):
            executor.run()

    def test_route_rejects_self_send(self):
        executor = _toy_pair()
        shard0 = executor.channels[0]
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

    def test_finish_is_idempotent(self):
        executor = _toy_pair()
        executor.channels[0].emit(1, "ping", HOP, 1)
        executor.run()
        first = executor.finish()
        second = executor.finish()
        assert first == second
        assert first["events_by_shard"] == [1, 1]

    def test_register_metrics_exposes_per_shard_gauges(self):
        executor = _toy_pair()
        executor.channels[0].emit(1, "ping", HOP, 2)
        executor.run()
        executor.finish()
        registry = Registry()
        registry.add("shard", executor)
        snap = registry.snapshot()
        assert snap["shard.shards"] == 2
        assert snap["shard.windows"] == executor.windows
        assert snap["shard.events.0"] + snap["shard.events.1"] == snap[
            "shard.events_fired"
        ]


# ----------------------------------------------------------------------
# Reference window driver
# ----------------------------------------------------------------------
class StepEveryShardExecutor(ShardExecutor):
    """The window driver as it was before idle shards were skipped:
    every round steps and routes every shard.  Kept as
    the reference model the skipping driver must be indistinguishable
    from (the pattern of ``TestGimbalTenantMatchesReference``)."""

    def _round(self, horizon_us: float) -> None:
        pending = self._pending
        inboxes = pending[:]
        for index in range(len(pending)):
            pending[index] = []
        events = self.shard_events
        for index, kernel in enumerate(self.channels):
            inbox = inboxes[index]
            if len(inbox) > 1:
                inbox.sort(key=_message_key)
            outbox, next_t, fired, _now = kernel.step(horizon_us, inbox)
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
        self.executor = None
        self.log = []

    def _note(self, kind, due_us, src, ttl) -> None:
        self.log.append((kind, due_us, src, ttl, self.executor.windows))

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
    """Build one relay shard from a plain-dict spec."""
    sim = _probed_simulator()
    relay = Relay(spec["shard_id"], spec["shards"], spec["hops"])
    kernel = ShardKernel(spec["shard_id"], sim, relay.handle, LOOKAHEAD)
    relay.kernel = kernel
    kernel.relay = relay
    for time_us, ttl in spec["events"]:
        sim.at_(time_us, relay.local_event, ttl)
    return kernel


def _drive(executor_cls, plan):
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
        kernel = build_relay_shard(spec)
        kernel.relay.executor = executor
        executor.add_local(kernel)
    coordinator = executor.channels[0].relay
    observed = []
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
                    (list(kernel.relay.log), kernel.sim.now, kernel.stats()["events_fired"])
                    for kernel in executor.channels
                ],
            }
        )
    observed.append(executor.finish())
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


#: Fixed plans: a busy pair beside a shard that only ever ticks, one
#: beside a shard with nothing at all, and a five-shard fan-out resumed
#: at targets that fall inside and between bursts.
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
    def test_fixed_plans(self, plan):
        reference = _drive(StepEveryShardExecutor, plan)
        assert _drive(ShardExecutor, plan) == reference
        # Something happened, and some shard sat windows out.
        assert reference[-1]["windows"] > 5
        assert reference[-1]["messages"] > 5
