"""``SCHEMES`` is the one scheme map: both rack builders wire from it.

For every scheme, a :class:`Testbed` and a :class:`KvCluster`
(unsharded and in two inline shards) put the table's scheduler on
every SSD pipeline and its client policy on every tenant session.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments.common import read_spec
from repro.harness.kvcluster import KvCluster, KvClusterConfig
from repro.harness.testbed import SCHEMES, Testbed, TestbedConfig
from repro.sim.engine import Simulator
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice


def _assert_wired(scheme, pipelines, sessions):
    scheduler, policy = SCHEMES[scheme]
    assert pipelines and sessions
    for pipeline in pipelines:
        assert type(pipeline.scheduler) is scheduler, pipeline.name
    for session in sessions:
        assert type(session.policy) is policy, session.tenant_id


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_testbed_wires_the_table(scheme):
    testbed = Testbed(TestbedConfig(scheme=scheme, condition="none", num_ssds=2))
    for ssd in testbed.devices:
        testbed.add_worker(read_spec(f"r-{ssd}", 1), ssd=ssd, region_pages=64)
    _assert_wired(
        scheme,
        list(testbed.target.pipelines.values()),
        [worker.session for worker in testbed.workers],
    )


@pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "shards2"])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_kvcluster_wires_the_table(scheme, shards):
    cluster = KvCluster(
        KvClusterConfig(scheme=scheme, condition="clean", num_jbofs=2, ssds_per_jbof=1),
        shards=shards,
    )
    cluster.add_instance("db0", "A", record_count=16)
    if shards:
        # Shard 0 is the coordinator; each JBOF shard's host owns real targets.
        targets = [
            target
            for kernel in cluster.shard_executor.channels[1:]
            for target in kernel.handler.__self__.targets.values()
        ]
    else:
        targets = cluster.targets
    pipelines = [pipeline for target in targets for pipeline in target.pipelines.values()]
    assert len(pipelines) == 2
    sessions = [backend.session for backend in cluster.instances["db0"].backends.values()]
    _assert_wired(scheme, pipelines, sessions)


def test_condition_device_refuses_an_unknown_name():
    device = SsdDevice(Simulator())
    with pytest.raises(ValueError, match="clean.*fragmented.*none"):
        condition_device(device, "fragmentd")
