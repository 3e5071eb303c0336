"""Each IO's latency splits into six stages that add up to its e2e latency.

A client built inside an obs session folds, per completed request, the
gaps between its seven stamps into per-op histograms
(:data:`repro.fabric.initiator.STAGES`).  Here every completion of a
tiny testbed is tapped: each of its stages must be >= 0 and the six
must sum to its end-to-end latency within float rounding, and the
client's histograms must hold exactly those gaps -- same count, same
sums in the same order.  Reads, writes and trims are covered, on the
pass-through vanilla path (no scheduler hop, so no scheduler-queue
time) and under Gimbal; a two-JBOF rack, unsharded and sharded, checks
the same sums per client.
"""

from __future__ import annotations

import math

import pytest

from repro.fabric.initiator import STAGES
from repro.harness.testbed import Testbed, TestbedConfig
from repro.obs.session import capture
from repro.ssd.commands import OP_TRIM
from repro.workloads.fio import FioSpec


def _stamps(request):
    return (
        request.t_client_submit,
        request.t_wire_submit,
        request.t_target_arrival,
        request.t_sched_enqueue,
        request.submit_time,
        request.complete_time,
        request.t_client_complete,
    )


def _observed_run(scheme):
    """Readers, writers and a burst of trims; every completion, in order."""
    completed = []
    with capture() as session:
        testbed = Testbed(TestbedConfig(scheme=scheme, condition="fragmented", seed=7))
        reader = testbed.add_worker(
            FioSpec("r0", io_pages=1, queue_depth=8, read_ratio=1.0), region_pages=512
        )
        writer = testbed.add_worker(
            FioSpec("w0", io_pages=4, queue_depth=4, read_ratio=0.0), region_pages=512
        )
        for worker in (reader, writer):
            tap = worker._on_complete

            def on_complete(request, tap=tap):
                completed.append(request)
                tap(request)

            worker._on_complete = on_complete
            worker.start()
        sim = testbed.sim
        sim.run(until_us=4000.0)
        for worker in (reader, writer):
            worker.stop()
        for lba in range(0, 256, 16):
            writer.session.submit(OP_TRIM, lba, 16, on_complete=completed.append)
        sim.run(until_us=sim.now + 20_000.0)
        assert reader.session.inflight == writer.session.inflight == 0
        initiators = {host: testbed.initiators[host] for host in ("client-r0", "client-w0")}
        snapshot = session.registry.snapshot()
    return completed, initiators, snapshot


@pytest.mark.parametrize("scheme", ["vanilla", "gimbal"])
def test_stages_are_non_negative_and_sum_to_e2e(scheme):
    completed, initiators, snapshot = _observed_run(scheme)
    ops = {request.op.value for request in completed}
    assert ops == {"read", "write", "trim"}
    gaps_by_host_op = {}
    for request in completed:
        stamps = _stamps(request)
        gaps = [end - start for start, end in zip(stamps, stamps[1:])]
        assert min(gaps) >= 0.0, (request, gaps)
        if scheme == "vanilla":
            # Pass-through: admitted at enqueue, no scheduler queue.
            assert gaps[3] == 0.0, (request, gaps)
        e2e = request.e2e_latency_us
        assert math.isclose(sum(gaps), e2e, rel_tol=1e-12, abs_tol=1e-9), (request, gaps)
        host = f"client-{request.tenant_id}"
        gaps_by_host_op.setdefault((host, request.op), []).append(gaps + [e2e])
    for (host, op), rows in gaps_by_host_op.items():
        histograms = initiators[host].stages[op]
        assert len(histograms) == len(STAGES) + 1
        for column, histogram in enumerate(histograms):
            values = [row[column] for row in rows]
            assert histogram.count == len(values)
            total = 0.0
            for value in values:  # in completion order; ``sum`` may compensate
                total += value
            assert histogram.total == total
        assert snapshot[f"client.{host}.{op.value}.count"] == len(rows)


def test_an_unobserved_client_folds_nothing():
    testbed = Testbed(TestbedConfig(scheme="vanilla", condition="clean", seed=7))
    worker = testbed.add_worker(FioSpec("r0", io_pages=1, queue_depth=4), region_pages=512)
    testbed.run(warmup_us=0.0, measure_us=1000.0)
    assert worker.session.completed > 0
    assert testbed.initiators["client-r0"].stages is None
    assert testbed.initiators["client-r0"].metrics() == {}


@pytest.mark.parametrize("shards", [None, 2])
def test_rack_clients_fold_stages_across_the_shard_boundary(shards):
    """A sharded rack's completions cross back with their target-side
    stamps: every client's stages are >= 0 and add up to its e2e."""
    from tests.obs.test_session import small_rack

    with capture():
        cluster = small_rack(shards=shards)
        cluster.add_instance("db0", "A", record_count=64)
        cluster.load_all()
    histograms = cluster.instances["db0"].initiator.stages
    assert histograms
    for *stages, e2e in histograms.values():
        assert e2e.count > 0
        assert all(stage.count == e2e.count and stage.min >= 0.0 for stage in stages)
        assert math.isclose(sum(stage.total for stage in stages), e2e.total, rel_tol=1e-9)
