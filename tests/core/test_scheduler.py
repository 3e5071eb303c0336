"""Tests for the DRR + virtual-slot scheduler (Algorithm 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GimbalParams
from repro.core.rate_control import DualTokenBucket
from repro.core.scheduler import DrrSlotScheduler, GimbalTenant
from repro.fabric.request import FabricRequest
from repro.ssd.commands import IoOp
from tests.core.reference import LiveSwitch
from tests.core.reference import reference_enqueue as enqueue

KB128 = 32  # pages


def make_request(tenant, op=IoOp.READ, npages=KB128, priority=0):
    return FabricRequest(tenant_id=tenant, op=op, lba=0, npages=npages, priority=priority)


def full_bucket(params):
    bucket = DualTokenBucket(params)
    bucket.read_tokens = bucket.max_tokens
    bucket.write_tokens = bucket.max_tokens
    return bucket


class TestGimbalTenant:
    def test_push_peek_pop_fifo_single_priority(self):
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        first = make_request("t")
        second = make_request("t")
        tenant.push(first)
        tenant.push(second)
        assert tenant.head is first
        assert tenant.pop() is first
        assert tenant.pop() is second
        assert tenant.head is None

    def test_pop_empty_rejected(self):
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        with pytest.raises(IndexError):
            tenant.pop()

    def test_pending_counter(self):
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        tenant.push(make_request("t"))
        tenant.push(make_request("t"))
        assert tenant.pending == 2
        tenant.pop()
        assert tenant.pending == 1

    def test_higher_priority_served_more_often(self):
        """Weighted round-robin: priority-1 gets ~2x priority-0."""
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        for _ in range(60):
            tenant.push(make_request("t", priority=0))
            tenant.push(make_request("t", priority=1))
        served = {0: 0, 1: 0}
        for _ in range(60):
            request = tenant.pop()
            served[request.priority] += 1
        assert served[1] > served[0]

    def test_peek_matches_pop(self):
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        for index in range(20):
            tenant.push(make_request("t", priority=index % 3))
        while tenant.pending:
            peeked = tenant.head
            popped = tenant.pop()
            assert peeked is popped


class _RebuildingWrr:
    """Reference model of the per-tenant priority queues: the textbook
    formulation that rebuilds the round-robin table whenever a level
    turns empty or non-empty and re-selects on every peek and pop.
    :class:`GimbalTenant` must serve requests in exactly this order."""

    def __init__(self):
        self.queues = {}
        self.wrr = []
        self.index = 0

    def _rebuild(self):
        self.wrr = [[priority, priority + 1] for priority in sorted(self.queues, reverse=True)]
        self.index = 0

    def push(self, request):
        if request.priority not in self.queues:
            self.queues[request.priority] = []
            self._rebuild()
        self.queues[request.priority].append(request)

    def _select(self):
        for _ in range(2 * len(self.wrr)):
            if self.index >= len(self.wrr):
                self.index = 0
                for entry in self.wrr:
                    entry[1] = entry[0] + 1
            entry = self.wrr[self.index]
            if entry[1] > 0 and self.queues.get(entry[0]):
                return entry[0]
            self.index += 1
        return None

    def peek(self):
        priority = self._select()
        return None if priority is None else self.queues[priority][0]

    def pop(self):
        priority = self._select()
        request = self.queues[priority].pop(0)
        self.wrr[self.index][1] -= 1
        if self.wrr[self.index][1] <= 0:
            self.index += 1
        if not self.queues[priority]:
            del self.queues[priority]
            self._rebuild()
        return request


class TestGimbalTenantMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3), st.just("pop"), st.just("peek")), max_size=80))
    def test_same_service_order_as_rebuilding_wrr(self, steps):
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        reference = _RebuildingWrr()
        for step in steps:
            if step == "pop":
                if tenant.pending:
                    assert tenant.pop() is reference.pop()
            elif step != "peek":  # every step ends in the peek check below
                request = make_request("t", priority=step)
                tenant.push(request)
                reference.push(request)
            assert tenant.head is reference.peek()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.sampled_from(["push", "pop", "peek"]), max_size=40),
        st.lists(st.one_of(st.integers(0, 3), st.just("pop"), st.just("peek")), max_size=60),
    )
    def test_single_level_tenant_that_gains_a_second_level(self, first, alone, mixed):
        """A tenant with one priority level skips the round-robin walk;
        what it leaves behind must be what the walk would have left, so
        that a second level appearing mid-stream (with the first drained,
        mid-burst or out of serves) continues in the reference's order."""
        tenant = GimbalTenant("t", 1.0, 128 * 1024)
        reference = _RebuildingWrr()
        steps = [first if step == "push" else step for step in alone] + mixed
        for step in steps:
            if step == "pop":
                if tenant.pending:
                    assert tenant.pop() is reference.pop()
            elif step != "peek":  # every step ends in the peek check below
                request = make_request("t", priority=step)
                tenant.push(request)
                reference.push(request)
            assert tenant.head is reference.peek()
        while tenant.pending:
            assert tenant.pop() is reference.pop()


class TestDrrSlotScheduler:
    @pytest.fixture
    def params(self):
        return GimbalParams()

    @pytest.fixture
    def drr(self, params):
        return DrrSlotScheduler(params)

    def _pump_all(self, drr, params, write_cost=1.0):
        submitted = []
        bucket = full_bucket(params)

        def refill_submit(request):
            submitted.append(request)
            bucket.read_tokens = bucket.max_tokens
            bucket.write_tokens = bucket.max_tokens

        drr.pump(write_cost, bucket, refill_submit)
        return submitted

    def test_slot_limit_shrinks_with_tenants(self, drr, params):
        drr.add_tenant("a")
        assert drr.slot_limit == params.slot_threshold
        for index in range(params.slot_threshold):
            drr.add_tenant(f"t{index}")
        assert drr.slot_limit == 1

    def test_single_tenant_submits_up_to_slots(self, drr, params):
        tenant = drr.add_tenant("a")
        for _ in range(20):
            enqueue(drr, tenant, make_request("a"))
        submitted = self._pump_all(drr, params)
        # 128 KiB IOs: one per slot, slot_threshold slots.
        assert len(submitted) == params.slot_threshold
        assert tenant.deferred

    def test_deferred_tenant_resumes_on_slot_drain(self, params):
        live = LiveSwitch(["a"], write_cost=1.0)
        tenant = live.scheduler.drr.tenants["a"]
        for _ in range(params.slot_threshold + 1):
            live.scheduler.enqueue(make_request("a"))
        assert len(live.admitted) == params.slot_threshold
        assert tenant.deferred
        # 128 KiB IOs fill a slot each: the first completion drains one,
        # the tenant rejoins and the completion's own pump admits the IO
        # that was waiting.
        live.scheduler.notify_completion(live.admitted[0])
        assert not tenant.deferred
        assert len(live.admitted) == params.slot_threshold + 1

    def test_two_tenants_share_equally(self, drr, params):
        a = drr.add_tenant("a")
        b = drr.add_tenant("b")
        for _ in range(10):
            enqueue(drr, a, make_request("a"))
            enqueue(drr, b, make_request("b"))
        submitted = self._pump_all(drr, params)
        by_tenant = {"a": 0, "b": 0}
        for request in submitted:
            by_tenant[request.tenant_id] += 1
        assert by_tenant["a"] == by_tenant["b"]

    def test_expensive_write_waits_more_rounds(self, drr, params):
        """A cost-3 write is served once per ~3 reads (the paper's
        example: three round-robin rounds per weighted 128 KiB write).

        The slot limit is out of reach so virtual slots never bind and
        the deficit accounting is the only limiter.
        """
        reader = drr.add_tenant("r")
        writer = drr.add_tenant("w")
        drr.slot_limit = 1 << 30
        for _ in range(30):
            enqueue(drr, reader, make_request("r", op=IoOp.READ))
            enqueue(drr, writer, make_request("w", op=IoOp.WRITE))

        submitted = []
        bucket = full_bucket(params)

        def submit(request):
            submitted.append(request)
            bucket.read_tokens = bucket.max_tokens
            bucket.write_tokens = bucket.max_tokens

        drr.pump(3.0, bucket, submit)
        window = submitted[:16]
        reads = sum(1 for r in window if r.op is IoOp.READ)
        writes = sum(1 for r in window if r.op is IoOp.WRITE)
        assert reads >= 2.5 * writes

    def test_token_shortage_reported(self, drr, params):
        tenant = drr.add_tenant("a")
        enqueue(drr, tenant, make_request("a"))
        bucket = DualTokenBucket(params)
        bucket.discard()
        op, deficit = drr.pump(1.0, bucket, lambda request: None)
        assert op is IoOp.READ
        assert deficit == pytest.approx(128 * 1024)

    def test_tokens_consumed_on_submit(self, drr, params):
        tenant = drr.add_tenant("a")
        enqueue(drr, tenant, make_request("a"))
        bucket = full_bucket(params)
        before = bucket.read_tokens
        drr.pump(1.0, bucket, lambda request: None)
        assert bucket.read_tokens == before - 128 * 1024

    def test_weighted_tenant_gets_proportional_share(self, drr, params):
        """Weighted DRR: a weight-3 tenant accrues quantum 3x as fast."""
        heavy = drr.add_tenant("heavy", weight=3.0)
        light = drr.add_tenant("light", weight=1.0)
        drr.slot_limit = 1 << 30
        for _ in range(40):
            enqueue(drr, heavy, make_request("heavy"))
            enqueue(drr, light, make_request("light"))
        submitted = []
        bucket = full_bucket(params)

        def submit(request):
            submitted.append(request)
            bucket.read_tokens = bucket.max_tokens
            bucket.write_tokens = bucket.max_tokens

        drr.pump(1.0, bucket, submit)
        window = submitted[:32]
        heavy_count = sum(1 for r in window if r.tenant_id == "heavy")
        light_count = len(window) - heavy_count
        assert heavy_count >= 2 * light_count

    def test_invalid_weight_rejected(self, drr):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            drr.add_tenant("bad", weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, drr, weight):
        # ``weight <= 0`` is False for NaN; a NaN or infinite weight
        # would pass every ``deficit < weighted`` test.
        with pytest.raises(ValueError, match=repr(weight)):
            drr.add_tenant("t", weight)
        assert "t" not in drr.tenants

    def test_trim_requests_cost_one_page_of_tokens(self, drr, params):
        from repro.ssd.commands import IoOp as _IoOp

        tenant = drr.add_tenant("a")
        enqueue(drr, tenant, make_request("a", op=_IoOp.TRIM, npages=64))
        bucket = full_bucket(params)
        before = bucket.write_tokens
        drr.pump(9.0, bucket, lambda request: None)
        assert before - bucket.write_tokens == 4096

    def test_idempotent_tenant_registration(self, drr):
        first = drr.add_tenant("a")
        second = drr.add_tenant("a")
        assert first is second

    def test_empty_pump_is_idle(self, drr, params):
        assert drr.pump(1.0, full_bucket(params), lambda request: None) is None


# ----------------------------------------------------------------------
# Conservation properties (ROADMAP item 3): hold inside a single run
# ----------------------------------------------------------------------
_TENANTS = ("a", "b", "c")
_STEP = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, len(_TENANTS) - 1),
        st.sampled_from([IoOp.READ, IoOp.WRITE, IoOp.TRIM]),
        st.sampled_from([1, 2, 8, 32]),
        st.integers(0, 2),
    ),
    st.tuples(st.just("complete"), st.integers(0, 63)),
    st.tuples(st.just("refill"), st.integers(0, 64)),
)


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_STEP, max_size=120), st.sampled_from([1.0, 2.5, 9.0]))
    def test_tokens_slots_and_requests_are_conserved(self, steps, write_cost):
        # Enqueues and completions enter through the live switch (each
        # pumps on its way out); the explicit pumps below are the ones a
        # refill makes necessary.
        live = LiveSwitch(_TENANTS, write_cost)
        scheduler = live.scheduler
        drr = scheduler.drr
        tenants = [drr.tenants[name] for name in _TENANTS]
        bucket = scheduler.rate.bucket
        granted = {IoOp.READ: bucket.read_tokens, IoOp.WRITE: bucket.write_tokens}
        enqueued, submitted, inflight = [], [], []

        def submit(request):
            request.submit_time, request.complete_time = 0.0, 100.0
            submitted.append(request)
            inflight.append(request)

        live.device_submit = submit  # no refill: tokens are metered below

        def refill(pages):
            for op, pool in ((IoOp.READ, "read_tokens"), (IoOp.WRITE, "write_tokens")):
                room = bucket.max_tokens - getattr(bucket, pool)
                added = min(4096.0 * pages, room)
                setattr(bucket, pool, getattr(bucket, pool) + added)
                granted[op] += added

        def complete(index):
            scheduler.notify_completion(inflight.pop(index % len(inflight)))

        def check_invariants():
            for tenant in tenants:
                assert len(tenant.slots.in_use) <= drr.slot_limit
                if tenant.deferred:
                    assert tenant.deficit == 0.0 and not tenant.in_active
                assert tenant.in_active == (tenant in drr.active)
            assert bucket.read_tokens >= 0.0 and bucket.write_tokens >= 0.0
            assert all(request._slot.tenant.tenant_id == request.tenant_id for request in inflight)
            assert sum(tenant.slots.outstanding_ios for tenant in tenants) == len(inflight)

        for step in steps:
            if step[0] == "enqueue":
                _, who, op, npages, priority = step
                request = make_request(_TENANTS[who], op=op, npages=npages, priority=priority)
                enqueued.append(request)
                scheduler.enqueue(request)
            elif step[0] == "complete":
                if inflight:
                    complete(step[1])
            else:
                refill(step[1])
            drr.pump(write_cost, bucket, submit)
            check_invariants()
        # Drain: with tokens and completions always forthcoming, nothing
        # may stay queued, deferred or in flight.
        for _ in range(10 * len(enqueued) + 10):
            if len(submitted) == len(enqueued) and not inflight:
                break
            refill(64)
            if inflight:
                complete(0)
            drr.pump(write_cost, bucket, submit)
            check_invariants()
        assert sorted(map(id, submitted)) == sorted(map(id, enqueued))
        assert all(tenant.pending == 0 and tenant.head is None for tenant in tenants)
        assert all(tenant.slots.outstanding_ios == 0 for tenant in tenants)
        # Tokens spent = tokens the admitted IOs were charged, per pool
        # (trims ride the write pool at one page); 4 KiB multiples are
        # exact in binary floating point.
        charged = {IoOp.READ: 0, IoOp.WRITE: 0}
        for request in submitted:
            if request.op is IoOp.READ:
                charged[IoOp.READ] += request.size_bytes
            else:
                charged[IoOp.WRITE] += 4096 if request.op is IoOp.TRIM else request.size_bytes
        assert granted[IoOp.READ] - bucket.read_tokens == charged[IoOp.READ]
        assert granted[IoOp.WRITE] - bucket.write_tokens == charged[IoOp.WRITE]
