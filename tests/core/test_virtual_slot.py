"""Tests for virtual slots and per-tenant slot management (Section 3.5).

The switch fills slots inside the DRR pump and drains them inside
``notify_completion``.  The unit tests below pin the step-per-method
reference model of that accounting (:mod:`tests.core.reference`);
``TestInlineSlotAccountingMatchesReference`` then drives the live
switch and the reference side by side.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GimbalParams
from repro.core.switch import GimbalScheduler
from repro.fabric.request import FabricRequest
from repro.ssd.commands import IoOp
from tests.core.reference import LiveSwitch
from tests.core.reference import ReferenceSlotManager as SlotManager
from tests.core.reference import ReferenceVirtualSlot as VirtualSlot

SLOT_BYTES = 128 * 1024


class TestVirtualSlot:
    def test_slot_fills_at_capacity(self):
        slot = VirtualSlot(SLOT_BYTES)
        slot.add(SLOT_BYTES)
        assert slot.is_full

    def test_slot_holds_many_small_ios(self):
        slot = VirtualSlot(SLOT_BYTES)
        for _ in range(31):
            slot.add(4096)
        assert not slot.is_full
        slot.add(4096)
        assert slot.is_full
        assert slot.submits == 32

    def test_add_to_full_slot_rejected(self):
        slot = VirtualSlot(SLOT_BYTES)
        slot.add(SLOT_BYTES)
        with pytest.raises(RuntimeError):
            slot.add(4096)

    def test_drains_when_all_complete(self):
        slot = VirtualSlot(SLOT_BYTES)
        slot.add(SLOT_BYTES)
        assert slot.complete_one() is True
        assert slot.drained

    def test_not_drained_while_incomplete(self):
        slot = VirtualSlot(SLOT_BYTES)
        for _ in range(32):
            slot.add(4096)
        for _ in range(31):
            assert slot.complete_one() is False
        assert slot.complete_one() is True

    def test_excess_completions_rejected(self):
        slot = VirtualSlot(SLOT_BYTES)
        slot.add(SLOT_BYTES)
        slot.complete_one()
        with pytest.raises(RuntimeError):
            slot.complete_one()

    def test_weighted_size_can_overshoot_capacity(self):
        """A cost-weighted write larger than the slot closes it alone."""
        slot = VirtualSlot(SLOT_BYTES)
        slot.add(9 * SLOT_BYTES)
        assert slot.is_full
        assert slot.submits == 1


class TestSlotManager:
    def test_place_within_limit(self):
        manager = SlotManager(SLOT_BYTES)
        slot = manager.try_place(4096, limit=2)
        assert slot is not None
        assert manager.slots_in_use == 1

    def test_small_ios_share_one_slot(self):
        manager = SlotManager(SLOT_BYTES)
        slots = {id(manager.try_place(4096, limit=1)) for _ in range(32)}
        assert len(slots) == 1

    def test_limit_blocks_new_slot(self):
        manager = SlotManager(SLOT_BYTES)
        manager.try_place(SLOT_BYTES, limit=1)  # fills the only slot
        assert manager.try_place(4096, limit=1) is None

    def test_drain_frees_capacity(self):
        manager = SlotManager(SLOT_BYTES)
        slot = manager.try_place(SLOT_BYTES, limit=1)
        assert manager.try_place(4096, limit=1) is None
        freed = manager.on_completion(slot)
        assert freed is True
        assert manager.try_place(4096, limit=1) is not None

    def test_last_drained_io_count_tracks_slot_contents(self):
        manager = SlotManager(SLOT_BYTES)
        placed = [manager.try_place(4096, limit=1) for _ in range(32)]
        assert all(slot is placed[0] for slot in placed)
        for _ in range(31):
            assert manager.on_completion(placed[0]) is False
        assert manager.on_completion(placed[0]) is True
        assert manager.last_drained_io_count == 32

    def test_multiple_slots_up_to_limit(self):
        manager = SlotManager(SLOT_BYTES)
        first = manager.try_place(SLOT_BYTES, limit=2)
        second = manager.try_place(SLOT_BYTES, limit=2)
        assert first is not second
        assert manager.slots_in_use == 2
        assert manager.try_place(4096, limit=2) is None

    def test_invalid_weighted_size_rejected(self):
        manager = SlotManager(SLOT_BYTES)
        with pytest.raises(ValueError):
            manager.try_place(0.0, limit=1)

    def test_invalid_slot_bytes_rejected(self):
        with pytest.raises(ValueError):
            SlotManager(0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9 * SLOT_BYTES), min_size=1, max_size=200))
    def test_in_use_never_exceeds_limit(self, sizes):
        """Property: slots in use never exceed the limit; every placed IO
        is eventually completable and every slot drains."""
        manager = SlotManager(SLOT_BYTES)
        limit = 3
        open_slots = []
        for weighted in sizes:
            slot = manager.try_place(float(weighted), limit)
            if slot is None:
                # Complete everything outstanding to free capacity.
                for pending_slot, count in open_slots:
                    for _ in range(count):
                        manager.on_completion(pending_slot)
                open_slots.clear()
                slot = manager.try_place(float(weighted), limit)
                assert slot is not None
            if open_slots and open_slots[-1][0] is slot:
                open_slots[-1] = (slot, open_slots[-1][1] + 1)
            else:
                open_slots.append((slot, 1))
            assert manager.slots_in_use <= limit


class _ReferenceTenant:
    """What the parent's pump and completion handler did for one tenant
    when only slots gate: place the head until the queue is dry or
    ``try_place`` defers; rejoin when a drain leaves room."""

    def __init__(self):
        self.slots = SlotManager(SLOT_BYTES)
        self.queue = deque()
        self.admitted = []
        self.slot_of = {}
        self.deferred = False
        self.deferrals = 0

    def pump(self, limit, write_cost):
        while self.queue and not self.deferred:
            request = self.queue[0]
            if request.op is IoOp.TRIM:
                weighted = 4096.0
            elif request.op is IoOp.WRITE:
                weighted = write_cost * request.size_bytes
            else:
                weighted = float(request.size_bytes)
            slot = self.slots.try_place(weighted, limit)
            if slot is None:
                self.deferred = True
                self.deferrals += 1
                return
            self.queue.popleft()
            self.admitted.append(request)
            self.slot_of[request.request_id] = slot

    def complete(self, request, limit):
        if self.slots.on_completion(self.slot_of[request.request_id]):
            if self.deferred and self.slots.slots_in_use < limit:
                self.deferred = False


_SLOT_STEP = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.integers(0, 1),
        st.sampled_from([IoOp.READ, IoOp.READ, IoOp.WRITE, IoOp.WRITE, IoOp.TRIM]),
        st.sampled_from([1, 2, 7, 8, 16, 31, 32, 33, 40]),
    ),
    st.tuples(st.just("complete"), st.integers(0, 255)),
    st.tuples(st.just("limit"), st.integers(1, 4)),
)


class TestInlineSlotAccountingMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_SLOT_STEP, max_size=150),
        st.integers(1, 4),
        st.sampled_from([1.0, 2.5, 3.9375, 9.0]),
    )
    def test_same_slots_deferrals_and_drains(self, steps, limit, write_cost):
        names = ("a", "b")
        live = LiveSwitch(names, write_cost, slot_bytes=SLOT_BYTES)
        drr = live.scheduler.drr
        drr.slot_limit = limit
        reference = {name: _ReferenceTenant() for name in names}
        inflight, completed = [], []
        paired = {}  # live slot -> reference slot, one to one

        def check():
            assert sum(ref.deferrals for ref in reference.values()) == drr.deferrals
            for name, ref in reference.items():
                tenant = drr.tenants[name]
                mine = [r for r in live.admitted if r.tenant_id == name]
                assert mine == ref.admitted
                assert tenant.deferred == ref.deferred
                assert tenant.pending == len(ref.queue)
                assert len(tenant.slots.in_use) == ref.slots.slots_in_use
                assert tenant.slots.last_drained_io_count == ref.slots.last_drained_io_count
                assert (tenant.slots.current is None) == (ref.slots.current is None)
                for slot, ref_slot in zip(tenant.slots.in_use, ref.slots._in_use):
                    assert slot.tenant is tenant
                    assert paired.setdefault(slot, ref_slot) is ref_slot
                    assert (slot.submits, slot.completions, slot.weighted_bytes, slot.is_full) == (
                        ref_slot.submits,
                        ref_slot.completions,
                        ref_slot.weighted_bytes,
                        ref_slot.is_full,
                    )
            for request in inflight:
                # Slot identity per IO: the cookie on the request is the
                # twin of the slot the reference placed it in.
                ref_slot = reference[request.tenant_id].slot_of[request.request_id]
                assert paired[request._slot] is ref_slot
            assert len(set(map(id, paired.values()))) == len(paired)

        def complete(index):
            request = inflight.pop(index % len(inflight))
            seen = len(live.admitted)
            live.refill()
            live.scheduler.notify_completion(request)
            assert request._slot is None
            completed.append(request)
            reference[request.tenant_id].complete(request, limit)
            # The drain may have let a parked tenant back in.
            for ref in reference.values():
                ref.pump(limit, write_cost)
            inflight.extend(live.admitted[seen:])
            check()

        for step in steps:
            if step[0] == "enqueue":
                _, who, op, npages = step
                request = FabricRequest(tenant_id=names[who], op=op, lba=0, npages=npages)
                seen = len(live.admitted)
                live.refill()
                live.scheduler.enqueue(request)
                reference[names[who]].queue.append(request)
                reference[names[who]].pump(limit, write_cost)
                inflight.extend(live.admitted[seen:])
                check()
            elif step[0] == "complete":
                if inflight:
                    complete(step[1])
            else:
                limit = drr.slot_limit = step[1]
        while inflight:
            complete(0)
        assert all(tenant.pending == 0 for tenant in drr.tenants.values())
        # With every IO back, one completion more is one too many:
        # refused by both, the same way.
        if completed:
            request = completed[-1]
            ref_slot = reference[request.tenant_id].slot_of[request.request_id]
            request._slot = next(slot for slot, twin in paired.items() if twin is ref_slot)
            with pytest.raises(RuntimeError, match="more completions than submissions"):
                live.scheduler.notify_completion(request)
            with pytest.raises(RuntimeError, match="more completions than submissions"):
                reference[request.tenant_id].slots.on_completion(ref_slot)

    def test_only_positive_weights_reach_a_slot(self):
        """The reference rejects a non-positive weighted size; the pump
        cannot produce one: a request has at least one page and the
        write cost is held at or above 1."""
        with pytest.raises(ValueError):
            GimbalParams(write_cost_worst=0.5)
        estimator = GimbalScheduler().write_cost
        for _ in range(100):
            estimator.observe_write_latency(1e9 * (_ + 1), 0.0)
        assert estimator.cost == 1.0
        with pytest.raises(ValueError):
            FabricRequest(tenant_id="t", op=IoOp.WRITE, lba=0, npages=0)
