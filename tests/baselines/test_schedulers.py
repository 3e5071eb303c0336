"""Unit tests for the baseline target-side schedulers."""

from __future__ import annotations

import pytest

from repro.baselines.base import StorageScheduler
from repro.baselines.fifo import FifoScheduler
from repro.baselines.flashfq import FlashFqScheduler
from repro.baselines.reflex import ReflexScheduler
from repro.fabric.request import FabricRequest
from repro.harness.testbed import SCHEMES
from repro.ssd.commands import IoOp


class RecordingPipeline:
    """Minimal pipeline stub recording device submissions."""

    def __init__(self, sim):
        self.sim = sim
        self.submitted = []

    def device_submit(self, request):
        self.submitted.append(request)


def make_request(tenant, op=IoOp.READ, npages=1):
    return FabricRequest(tenant_id=tenant, op=op, lba=0, npages=npages)


class TestBaseInterface:
    def test_cannot_attach_twice(self, sim):
        scheduler = FifoScheduler()
        scheduler.attach(RecordingPipeline(sim))
        with pytest.raises(RuntimeError):
            scheduler.attach(RecordingPipeline(sim))

    def test_unattached_submit_rejected(self):
        scheduler = FifoScheduler()
        with pytest.raises(RuntimeError):
            scheduler.submit_to_device(make_request("t"))

    def test_invalid_weight_rejected(self, sim):
        scheduler = FifoScheduler()
        scheduler.attach(RecordingPipeline(sim))
        with pytest.raises(ValueError):
            scheduler.register_tenant("t", weight=0.0)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_weight_rejected(self, scheme, weight):
        # ``weight <= 0`` is False for NaN, and a NaN or infinite weight
        # would pass every DRR ``deficit < weighted`` test.
        scheduler = SCHEMES[scheme][0]()
        with pytest.raises(ValueError, match=repr(weight)):
            scheduler.register_tenant("t", weight)
        assert "t" not in scheduler.tenant_weights

    def test_default_hooks(self, sim):
        scheduler = FifoScheduler()
        scheduler.attach(RecordingPipeline(sim))
        assert scheduler.credit_for("t") == 0


class TestFifo:
    def test_passes_requests_straight_through(self, sim):
        scheduler = FifoScheduler()
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        first = make_request("a")
        second = make_request("b")
        scheduler.enqueue(first)
        scheduler.enqueue(second)
        assert pipeline.submitted == [first, second]


class TestReflex:
    def test_static_cost_model(self, sim):
        scheduler = ReflexScheduler(write_cost_tokens=9.0)
        assert scheduler.request_cost(make_request("t", IoOp.READ, 1)) == 1.0
        assert scheduler.request_cost(make_request("t", IoOp.WRITE, 1)) == 9.0
        assert scheduler.request_cost(make_request("t", IoOp.READ, 32)) == 32.0

    def test_submits_while_tokens_available(self, sim):
        scheduler = ReflexScheduler()
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        scheduler.register_tenant("a")
        scheduler.enqueue(make_request("a"))
        assert len(pipeline.submitted) == 1

    def test_paces_when_tokens_exhausted(self, sim):
        scheduler = ReflexScheduler(token_rate_per_us=0.001, max_tokens=1024.0)
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        scheduler.register_tenant("a")
        # Burn through the initial bucket with expensive writes.
        for _ in range(10):
            scheduler.enqueue(make_request("a", IoOp.WRITE, 32))
        assert len(pipeline.submitted) < 10
        backlog = 10 - len(pipeline.submitted)
        sim.run(until_us=300_000_000.0)
        assert len(pipeline.submitted) == 10 or backlog == 0

    def test_round_robin_across_tenants(self, sim):
        scheduler = ReflexScheduler()
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        for tenant in ("a", "b"):
            scheduler.register_tenant(tenant)
        for _ in range(6):
            scheduler.enqueue(make_request("a"))
        for _ in range(6):
            scheduler.enqueue(make_request("b"))
        first_six = [request.tenant_id for request in pipeline.submitted[:6]]
        assert set(first_six) == {"a", "b"} or len(pipeline.submitted) >= 6

    def test_undersized_bucket_rejected(self):
        with pytest.raises(ValueError):
            ReflexScheduler(write_cost_tokens=9.0, max_tokens=100.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ReflexScheduler(token_rate_per_us=0.0)


class TestFlashFq:
    def test_linear_cost_model_symmetric(self):
        scheduler = FlashFqScheduler(cost_base_us=25.0, cost_per_page_us=3.0)
        read = scheduler.request_cost(make_request("t", IoOp.READ, 8))
        write = scheduler.request_cost(make_request("t", IoOp.WRITE, 8))
        assert read == write == pytest.approx(49.0)

    def test_dispatch_throttle(self, sim):
        scheduler = FlashFqScheduler(depth=4)
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        scheduler.register_tenant("a")
        for _ in range(10):
            scheduler.enqueue(make_request("a"))
        assert len(pipeline.submitted) == 4
        scheduler.notify_completion(pipeline.submitted[0])
        assert len(pipeline.submitted) == 5

    def test_fair_interleaving_of_backlogged_tenants(self, sim):
        scheduler = FlashFqScheduler(depth=1)
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        for tenant in ("a", "b"):
            scheduler.register_tenant(tenant)
        for _ in range(4):
            scheduler.enqueue(make_request("a"))
        for _ in range(4):
            scheduler.enqueue(make_request("b"))
        # Drain one at a time; SFQ should alternate tenants.
        while len(pipeline.submitted) < 8:
            scheduler.notify_completion(pipeline.submitted[-1])
        tenants = [request.tenant_id for request in pipeline.submitted]
        # After the first two, strict alternation.
        assert tenants[2:] == ["a", "b"] * 3 or tenants[2:] == ["b", "a"] * 3

    def test_weighted_tenant_gets_more(self, sim):
        scheduler = FlashFqScheduler(depth=1)
        pipeline = RecordingPipeline(sim)
        scheduler.attach(pipeline)
        scheduler.register_tenant("heavy", weight=3.0)
        scheduler.register_tenant("light", weight=1.0)
        for _ in range(30):
            scheduler.enqueue(make_request("heavy"))
            scheduler.enqueue(make_request("light"))
        while len(pipeline.submitted) < 40:
            scheduler.notify_completion(pipeline.submitted[-1])
        heavy = sum(1 for r in pipeline.submitted if r.tenant_id == "heavy")
        light = len(pipeline.submitted) - heavy
        assert heavy > 1.5 * light

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlashFqScheduler(depth=0)
        with pytest.raises(ValueError):
            FlashFqScheduler(cost_base_us=-1.0)


class TestSchedulerNames:
    @pytest.mark.parametrize(
        "cls,name",
        [
            (FifoScheduler, "vanilla"),
            (ReflexScheduler, "reflex"),
            (FlashFqScheduler, "flashfq"),
        ],
    )
    def test_names(self, cls, name):
        assert cls.name == name
        assert issubclass(cls, StorageScheduler)
