"""Free-list pool correctness: no state leaks, no behavioural change.

The datapath recycles :class:`FabricRequest` objects -- the one per-IO
carrier, which is also what the device receives -- through a
module-level free list that only :class:`TenantSession` touches:
``submit`` reuses a parked request, ``deliver_completion`` parks it
again.  Four properties keep that safe:

* a recycled object is field-for-field identical to a freshly
  constructed one -- nothing from its previous life (timestamps,
  credit grants, device stamps, caller cookies) survives reuse;
* a request the target still owns (it holds a reply route or a
  scheduler slot) cannot be parked;
* the pool never grows past its cap;
* a run with recycling enabled produces byte-identical results to the
  same run with recycling disabled, so pooling is purely an allocation
  optimisation.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fifo import FifoScheduler
from repro.fabric import initiator as pool
from repro.fabric.initiator import NvmeOfInitiator, request_pool_size
from repro.fabric.network import Network
from repro.fabric.request import FabricRequest
from repro.fabric.target import NvmeOfTarget
from repro.harness.testbed import Testbed, TestbedConfig
from repro.sim.engine import Simulator
from repro.ssd.commands import IoOp
from repro.ssd.device import NullDevice
from repro.workloads.fio import FioSpec
from tests.core.test_switch import build_gimbal_rig

_REQUEST_FIELDS = [
    slot for slot in FabricRequest.__slots__ if slot != "request_id"
]

_ops = st.sampled_from([IoOp.READ, IoOp.WRITE, IoOp.TRIM])
_lbas = st.integers(min_value=0, max_value=1 << 29)
_npages = st.integers(min_value=1, max_value=256)
_priorities = st.integers(min_value=-4, max_value=4)


def _pooling_session(sim, queue_depth=256):
    network = Network(sim)
    target = NvmeOfTarget(sim, network, "jbof", {"ssd0": NullDevice(sim)}, FifoScheduler)
    session = NvmeOfInitiator(sim, network, "client").connect(
        "tenant", target, "ssd0", queue_depth=queue_depth
    )
    session.recycle_requests = True
    return session


def _dirty_request(request: FabricRequest) -> None:
    """Simulate a full life: every slot holds something no fresh request
    has, so a reset forgotten in ``submit`` shows whatever the pool
    held before this test ran."""
    for name in FabricRequest.__slots__:
        setattr(request, name, object())
    # A parked request has passed the ownership check: the target let
    # go of it (``_send_response`` clears the reply route,
    # ``notify_completion`` the scheduler's slot cookie), and parking
    # dropped the device callback (the test below).
    request._reply = None
    request._slot = None
    request._on_device_complete = None


@given(
    op=_ops,
    lba=_lbas,
    npages=_npages,
    priority=_priorities,
    queued=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_recycled_request_identical_to_fresh(op, lba, npages, priority, queued):
    sim = Simulator()
    session = _pooling_session(sim, queue_depth=1 if queued else 256)
    session.submit(IoOp.WRITE, 7, 3, priority=2, context="stale")
    sim.run()
    assert request_pool_size() >= 1
    victim = pool._free_requests[-1]  # LIFO pool: the next submit takes this one
    stale_id = victim.request_id
    _dirty_request(victim)
    if queued:
        # Fill the window, so both submits below wait in the client
        # queue and keep the wire stamp a construction leaves empty.
        session.recycle_requests = False
        session.submit(IoOp.READ, 0, 1)
        session.recycle_requests = True

    recycled = session.submit(op, lba, npages, priority)
    assert recycled is victim
    assert (recycled.t_wire_submit is None) == queued
    # The same submit with the pool switched off constructs a request.
    session.recycle_requests = False
    fresh = session.submit(op, lba, npages, priority)
    assert fresh is not victim
    for name in _REQUEST_FIELDS:
        assert getattr(recycled, name) == getattr(fresh, name), (
            f"field {name!r} leaked across request reuse"
        )
    # A new id is drawn on every submit; the fresh request constructed
    # just after it must have the next one.
    assert recycled.request_id != stale_id
    assert recycled.request_id + 1 == fresh.request_id
    sim.run()
    assert session.completed == 3 + queued


def test_parked_request_pins_nothing(sim):
    # The pool outlives every testbed of the process: a parked request
    # that still held a callback would keep that testbed's session,
    # pipeline and device (FTL tables and all) alive through it.
    session = _pooling_session(sim)
    session.submit(IoOp.READ, 0, 1, on_complete=lambda request: None, context=object())
    sim.run()
    parked = pool._free_requests[-1]
    held = {
        name: getattr(parked, name)
        for name in ("context", "_reply", "_on_complete", "_on_device_complete", "_slot")
    }
    assert held == dict.fromkeys(held)


def test_pool_validation_matches_constructor(sim):
    # The pooled path re-validates arguments even though it skips
    # __post_init__, so a submit that would reuse a request rejects
    # exactly what a fresh construction would -- before anything is
    # taken from the pool, stamped or sent.
    session = _pooling_session(sim)
    session.submit(IoOp.READ, 0, 1)
    sim.run()
    parked = request_pool_size()
    assert parked >= 1
    sent = session.client_port.messages_sent
    for lba, npages in ((-1, 1), (0, 0), (0, -2)):
        with pytest.raises(ValueError) as pooled:
            session.submit(IoOp.READ, lba, npages)
        with pytest.raises(ValueError) as fresh:
            FabricRequest("tenant", IoOp.READ, lba, npages)
        assert str(pooled.value) == str(fresh.value)
    assert request_pool_size() == parked
    assert (session.inflight, session.client_port.messages_sent) == (0, sent)


def test_release_while_the_target_owns_the_request_is_refused(sim):
    """Use-after-release, the loud way: between ``device_submit`` and the
    response a request holds its reply route and (under Gimbal) its
    virtual slot, and parking it then -- here through a completion
    delivered twice -- would hand a live IO to the next ``submit``."""
    _scheduler, (session, _) = build_gimbal_rig(sim)
    session.recycle_requests = True
    done = []
    request = session.submit(IoOp.READ, 0, 1, on_complete=done.append)
    while request.submit_time is None:
        assert sim.step()
    assert not done and request._slot is not None and request._reply is not None
    parked = request_pool_size()
    with pytest.raises(RuntimeError, match=f"#{request.request_id} .*still owns it"):
        session.deliver_completion(request)
    assert request_pool_size() == parked
    # The IO itself is unharmed, and once it is back it parks cleanly.
    sim.run()
    assert done == [request, request]
    assert request_pool_size() == parked + 1
    assert pool._free_requests[-1] is request


def test_pool_depth_is_capped(sim):
    session = _pooling_session(sim)
    free = pool._free_requests
    held = free[:]
    try:
        free.extend(
            FabricRequest("filler", IoOp.READ, 0, 1)
            for _ in range(pool._FREE_REQUEST_CAP - 1 - len(free))
        )
        # Two constructed requests come back to a pool with room for one.
        session.recycle_requests = False
        for _ in range(2):
            session.submit(IoOp.READ, 0, 1)
        session.recycle_requests = True
        sim.run()
        assert session.completed == 2
        assert request_pool_size() == pool._FREE_REQUEST_CAP
    finally:
        free[:] = held


def _interference_run(recycle: bool) -> str:
    testbed = Testbed(TestbedConfig(scheme="gimbal", condition="fragmented"))
    reader = testbed.add_worker(
        FioSpec("reader", io_pages=1, queue_depth=16, read_ratio=1.0),
        region_pages=2048,
    )
    writer = testbed.add_worker(
        FioSpec("writer", io_pages=32, queue_depth=4, read_ratio=0.0,
                pattern="sequential"),
        region_pages=2048,
    )
    for worker in (reader, writer):
        worker.session.recycle_requests = recycle
    results = testbed.run(warmup_us=20_000.0, measure_us=60_000.0)
    # Every completed request went through the session's ownership
    # check (a refusal would have raised out of the run).
    assert all(worker.session.completed > 0 for worker in (reader, writer))
    if recycle:
        assert request_pool_size() > 0
    return json.dumps(results, sort_keys=True, default=repr)


def test_pooled_run_byte_identical_to_unpooled():
    assert _interference_run(recycle=True) == _interference_run(recycle=False)
