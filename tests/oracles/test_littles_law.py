"""Little's law per tenant, read off the clients' latency metrics.

An analytic oracle: it does not compare the simulator with itself, it
checks what any correct closed loop must satisfy.

**Set-up.**  Every scheme runs a tiny testbed with two unpaced
closed-loop fio tenants, each on its own client host.  A worker started
at ``t = 0`` submits ``D = queue_depth`` IOs at once, and every
completion resubmits inside its own callback, at the same instant.  So
from ``t_client_submit`` on, the tenant has exactly ``D`` IOs
outstanding at every instant of the window ``[0, T]``:
``L(t) = D`` -- whatever the client policy, credits or PARDA window
hold back, since the client queue counts.

**The law over the window.**  ``D * T = integral of L(t) dt over
[0, T]``, and each IO contributes the part of its life inside the
window.  No IO starts before 0, so an IO completed by ``T``
contributes its whole e2e latency: together ``N * mean``, with ``N``
completions and ``mean`` their mean e2e latency, both read off the
``client.<host>`` metrics at ``T``.  The ``D`` IOs still in flight at
``T`` contribute their age at ``T``, which is at most their own e2e
latency, so at most ``E``, the largest e2e latency of any IO in flight
at ``T``.  Hence

    0  <=  D - N * mean / T  <=  D * E / T.

**Measuring E.**  After ``T`` the workers stop (no new IO) and the
in-flight IOs drain; every one of them then completes, so the
``e2e.max_us`` metric after the drain is >= ``E`` and stands in for it.
The bound is derived from the window edges alone; nothing in it is
fitted to the run, and the lower edge is exact up to float rounding.
"""

from __future__ import annotations

import pytest

from repro.harness.testbed import SCHEMES, Testbed, TestbedConfig
from repro.obs.session import capture
from repro.workloads.fio import FioSpec

WINDOW_US = 20_000.0
TENANTS = (
    FioSpec("r0", io_pages=1, queue_depth=8, read_ratio=1.0),
    FioSpec("w0", io_pages=1, queue_depth=4, read_ratio=0.0),
)
#: Float rounding of ``count * mean`` against the summed latencies.
ROUNDING = 1e-9


def _client(snapshot, host):
    """``(completions, summed e2e latency, largest e2e)`` over every op."""
    ops = {
        name[len(f"client.{host}.") :].split(".")[0]
        for name in snapshot
        if name.startswith(f"client.{host}.")
    }
    count = sum(snapshot[f"client.{host}.{op}.count"] for op in ops)
    area = sum(
        snapshot[f"client.{host}.{op}.count"] * snapshot[f"client.{host}.{op}.e2e.mean_us"]
        for op in ops
    )
    largest = max(snapshot[f"client.{host}.{op}.e2e.max_us"] for op in ops)
    return count, area, largest


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_outstanding_ios_equal_the_queue_depth(scheme):
    with capture() as session:
        testbed = Testbed(TestbedConfig(scheme=scheme, condition="fragmented", seed=7))
        workers = [testbed.add_worker(spec, region_pages=512) for spec in TENANTS]
        for worker in workers:
            worker.start()
        sim = testbed.sim
        sim.run(until_us=WINDOW_US)
        at_window_end = session.registry.snapshot()
        for worker in workers:
            worker.stop()
        sim.run(until_us=2 * WINDOW_US)
        assert all(worker.session.inflight == worker.session.queued == 0 for worker in workers)
        drained = session.registry.snapshot()
    for spec in TENANTS:
        host = f"client-{spec.name}"
        count, area, _ = _client(at_window_end, host)
        _, _, largest = _client(drained, host)
        depth = spec.queue_depth
        assert count > 10 * depth, "the window should hold many round trips"
        shortfall = depth - area / WINDOW_US
        bound = depth * largest / WINDOW_US
        assert -ROUNDING * depth <= shortfall <= bound, (host, shortfall, bound)
