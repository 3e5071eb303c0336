"""The flattened IO round trip against the one it replaced.

One script of reads, writes and trims is driven through the product
(one payload per handle-less event; reply route and namespace check
inline) and through ``tests/fabric/reference.py`` (varargs events, the
reply route as an argument, ``Namespace.translate``).  Everything a
host-only change may not move is compared with ``==``: the seven stamps
of every IO in completion order, ``request_id`` spacing, the bytes each
port sent and the core's booked time.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.baselines.fifo import FifoScheduler
from repro.core.switch import GimbalScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.namespace import Namespace, NamespaceError
from repro.fabric.network import Network
from repro.fabric.policies import CreditClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.sim.engine import Simulator
from repro.ssd.commands import IoOp
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice
from tests.fabric import reference

STAMPS = (
    "t_client_submit",
    "t_wire_submit",
    "t_target_arrival",
    "t_sched_enqueue",
    "submit_time",
    "complete_time",
    "t_client_complete",
)

#: ``(submit time, op, lba, npages, priority)``.  Bursts deeper than the
#: client window (so IOs queue and leave through ``_try_issue``), two
#: priorities, multi-page reads and writes, a trim, and a quiet tail
#: that takes the uncontended fast path.
SCRIPT = (
    [(0.0, IoOp.READ, lba, 1, 0) for lba in range(12)]
    + [(5.0, IoOp.WRITE, 64 + 8 * i, 8, 0) for i in range(6)]
    + [(5.0, IoOp.READ, 200 + i, 1, 1) for i in range(6)]
    + [(40.0, IoOp.TRIM, 64, 16, 0), (40.0, IoOp.READ, 32, 32, 0)]
    + [(300.0 + 25.0 * i, IoOp.READ, 7 * i, 1, 0) for i in range(8)]
    + [(600.0, IoOp.WRITE, 512, 4, 0), (900.0, IoOp.READ, 512, 4, 0)]
)

NAMESPACE = Namespace(nsid=1, ssd_name="ssd0", base_lpn=768, npages=1024)


def _side(side):
    """``(simulator, context to build the rig in)``."""
    if side == "reference":
        return reference.ReferenceSimulator(), reference.reference_fabric()
    return Simulator(), nullcontext()


def _drive(side, scheduler_factory, namespace, small_geometry):
    """Run :data:`SCRIPT` on one side; everything comparable, as data."""
    sim, fabric = _side(side)
    device = SsdDevice(sim, geometry=small_geometry)
    condition_device(device, "clean")
    network = Network(sim)
    # A FIFO target grants no credit, so there the credit stays a fixed
    # window of four outstanding IOs.
    policy = CreditClientPolicy()
    if scheduler_factory is not GimbalScheduler:
        policy.credit_total = 4
    with fabric:
        target = NvmeOfTarget(sim, network, "jbof", {"ssd0": device}, scheduler_factory)
        session = NvmeOfInitiator(sim, network, "client").connect(
            "tenant", target, "ssd0", policy=policy, namespace=namespace
        )

    completions = []

    def on_complete(request):
        completions.append(
            (request.request_id, request.op, request.lba, request.lpn)
            + tuple(getattr(request, stamp) for stamp in STAMPS)
        )

    for when, op, lba, npages, priority in SCRIPT:
        sim.at(when, session.submit, op, lba, npages, priority, on_complete)
    sim.run()

    assert len(completions) == len(SCRIPT) == session.completed
    first_id = min(row[0] for row in completions)
    pipeline = target.pipelines["ssd0"]
    return {
        "completions": [(row[0] - first_id,) + row[1:] for row in completions],
        "client_bytes": session.client_port.bytes_sent,
        "client_messages": session.client_port.messages_sent,
        "target_bytes": target.port.bytes_sent,
        "target_messages": target.port.messages_sent,
        "core_busy_us": pipeline.core.busy_us_total,
        "core_by_tag": {tag: tuple(rec) for tag, rec in pipeline.core._by_tag.items()},
        "by_tenant_bytes": dict(pipeline.stats.by_tenant_bytes),
        "device_stats": vars(device.stats).copy(),
        "events": sim._seq,
        "end_us": sim.now,
    }


@pytest.mark.parametrize("namespace", [None, NAMESPACE], ids=["raw-lba", "namespace"])
@pytest.mark.parametrize(
    "scheduler_factory", [FifoScheduler, GimbalScheduler], ids=["vanilla", "gimbal"]
)
def test_round_trip_matches_the_reference(scheduler_factory, namespace, small_geometry):
    expected = _drive("reference", scheduler_factory, namespace, small_geometry)
    actual = _drive("product", scheduler_factory, namespace, small_geometry)
    assert actual == expected
    # The script did exercise what it claims to.
    rows = actual["completions"]
    assert any(row[5] > row[4] for row in rows), "no IO waited in the client queue"
    assert {row[1] for row in rows} == {IoOp.READ, IoOp.WRITE, IoOp.TRIM}
    if namespace is not None:
        assert all(row[3] == namespace.base_lpn + row[2] for row in rows)


@pytest.mark.parametrize("side", ["reference", "product"])
@pytest.mark.parametrize("lba,npages", [(1020, 8), (1024, 1)])
def test_out_of_namespace_io_raises_the_same_error(side, lba, npages, small_geometry):
    """The inline bounds check refuses what ``Namespace.translate``
    refused, with its exception and its message."""
    sim, fabric = _side(side)
    device = SsdDevice(sim, geometry=small_geometry)
    network = Network(sim)
    with fabric:
        target = NvmeOfTarget(sim, network, "jbof", {"ssd0": device}, FifoScheduler)
        session = NvmeOfInitiator(sim, network, "client").connect(
            "tenant", target, "ssd0", namespace=NAMESPACE
        )
    session.submit(IoOp.READ, lba, npages)
    with pytest.raises(NamespaceError) as refused:
        sim.run()
    with pytest.raises(NamespaceError) as direct:
        NAMESPACE.translate(lba, npages)
    assert str(refused.value) == str(direct.value)
