"""Free-list pool correctness: no state leaks, no behavioural change.

The datapath recycles :class:`FabricRequest` objects -- the one per-IO
carrier, which is also what the device receives -- through a
module-level free list.  Three properties keep that safe:

* a recycled object is field-for-field identical to a freshly
  constructed one -- nothing from its previous life (timestamps,
  credit grants, device stamps, caller cookies) survives reacquisition;
* a request the target still owns (it holds a reply route or a
  scheduler slot) cannot be released;
* a run with recycling enabled produces byte-identical results to the
  same run with recycling disabled, so pooling is purely an allocation
  optimisation.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.request import (
    FabricRequest,
    acquire_request,
    release_request,
    request_pool_size,
)
from repro.harness.testbed import Testbed, TestbedConfig
from repro.ssd.commands import IoOp
from repro.workloads import FioSpec
from tests.core.test_switch import build_gimbal_rig

_REQUEST_FIELDS = [
    slot for slot in FabricRequest.__slots__ if slot != "request_id"
]

_ops = st.sampled_from([IoOp.READ, IoOp.WRITE, IoOp.TRIM])
_lbas = st.integers(min_value=0, max_value=1 << 30)
_npages = st.integers(min_value=1, max_value=256)
_priorities = st.integers(min_value=-4, max_value=4)


def _dirty_request(request: FabricRequest) -> None:
    """Simulate a full life: every slot holds something no fresh request
    has, so a reset forgotten in ``acquire_request`` shows whatever the
    pool held before this test ran."""
    for name in FabricRequest.__slots__:
        setattr(request, name, object())
    # The target lets go of a request before its session releases it:
    # ``_send_response`` clears the reply route, ``notify_completion``
    # the scheduler's slot cookie.
    request._reply = None
    request._slot = None


@given(
    tenant=st.text(min_size=1, max_size=8),
    op=_ops,
    lba=_lbas,
    npages=_npages,
    priority=_priorities,
)
@settings(max_examples=200, deadline=None)
def test_recycled_request_identical_to_fresh(tenant, op, lba, npages, priority):
    victim = acquire_request("stale-tenant", IoOp.WRITE, 7, 3, priority=2,
                             context="stale")
    stale_id = victim.request_id
    _dirty_request(victim)
    release_request(victim)
    assert request_pool_size() >= 1

    recycled = acquire_request(tenant, op, lba, npages, priority)
    assert recycled is victim  # LIFO pool: the dirtied object comes back
    fresh = FabricRequest(
        tenant_id=tenant, op=op, lba=lba, npages=npages, priority=priority
    )
    for name in _REQUEST_FIELDS:
        assert getattr(recycled, name) == getattr(fresh, name), (
            f"field {name!r} leaked across request reuse"
        )
    # A new id is drawn on every acquire; the fresh request constructed
    # just after it must have the next one.
    assert recycled.request_id != stale_id
    assert recycled.request_id < fresh.request_id
    release_request(recycled)


def test_pool_validation_matches_constructor():
    # The pooled constructor re-validates arguments even when skipping
    # __post_init__, so a recycled acquire rejects exactly what a fresh
    # construction would.
    release_request(acquire_request("t", IoOp.READ, 0, 1))
    for lba, npages in ((-1, 1), (0, 0), (0, -2)):
        with pytest.raises(ValueError):
            acquire_request("t", IoOp.READ, lba, npages)


def test_release_while_the_target_owns_the_request_is_refused(sim):
    """Use-after-release, the loud way: between ``device_submit`` and the
    response a request holds its reply route and (under Gimbal) its
    virtual slot, and recycling it then would hand a live IO to the
    next ``acquire_request``."""
    _scheduler, (session, _) = build_gimbal_rig(sim)
    done = []
    request = session.submit(IoOp.READ, 0, 1, on_complete=done.append)
    while request.submit_time is None:
        assert sim.step()
    assert not done and request._slot is not None and request._reply is not None
    parked = request_pool_size()
    with pytest.raises(RuntimeError, match=f"#{request.request_id} "):
        release_request(request)
    assert request_pool_size() == parked
    # The IO itself is unharmed, and once it is back it releases cleanly.
    sim.run()
    assert done == [request]
    release_request(request)
    assert request_pool_size() == parked + 1


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
    # Every completed request went through release_request's ownership
    # check (a refusal would have raised out of the run).
    assert all(worker.session.completed > 0 for worker in (reader, writer))
    if recycle:
        assert request_pool_size() > 0
    return json.dumps(results, sort_keys=True, default=repr)


def test_pooled_run_byte_identical_to_unpooled():
    assert _interference_run(recycle=True) == _interference_run(recycle=False)
