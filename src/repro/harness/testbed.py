"""Testbed builder: one call from scheme name to a runnable rack.

The paper's testbed (Section 5.1) is a rack of x86 clients and
Stingray JBOFs behind a 100 Gbps switch.  :class:`Testbed` assembles
the simulated equivalent for a chosen multi-tenancy scheme, each one a
target-side scheduler plus a client-side policy (:data:`SCHEMES`, which
:class:`~repro.harness.kvcluster.KvCluster` reads too):

=========  =========================  ================================
scheme     target-side scheduler      client-side policy
=========  =========================  ================================
gimbal     GimbalScheduler            CreditClientPolicy (Alg 3)
reflex     ReflexScheduler            queue depth only
parda      FifoScheduler (vanilla)    PardaClientPolicy
flashfq    FlashFqScheduler           queue depth only
vanilla    FifoScheduler              queue depth only
=========  =========================  ================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.fifo import FifoScheduler
from repro.baselines.flashfq import FlashFqScheduler
from repro.baselines.reflex import ReflexScheduler
from repro.core.config import GimbalParams
from repro.core.switch import GimbalScheduler
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.namespace import Namespace
from repro.fabric.network import Network
from repro.fabric.policies import CreditClientPolicy, PardaClientPolicy, UnlimitedClientPolicy
from repro.fabric.smartnic import SMARTNIC_CPU, CpuCostModel
from repro.fabric.target import NvmeOfTarget
from repro.obs.session import current_session
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.ssd.conditioning import CONDITIONS, condition_device
from repro.ssd.device import NullDevice, SsdDevice
from repro.ssd.profiles import profile_by_name
from repro.workloads.fio import FioSpec, FioWorker
from repro.workloads.patterns import AddressRegion

#: The multi-tenancy schemes the evaluation compares, in order:
#: name -> (target-side scheduler class, client-side policy class).
SCHEMES: Dict[str, Tuple[type, type]] = {
    "gimbal": (GimbalScheduler, CreditClientPolicy),
    "reflex": (ReflexScheduler, UnlimitedClientPolicy),
    "parda": (FifoScheduler, PardaClientPolicy),
    "flashfq": (FlashFqScheduler, UnlimitedClientPolicy),
    "vanilla": (FifoScheduler, UnlimitedClientPolicy),
}


def register_targets(
    targets: List[NvmeOfTarget], network: Network, qualify_devices: bool
) -> None:
    """Add the targets' devices, cores, pipelines and switches, then the
    network, as metrics sources of the active
    ``repro.obs.session.capture()`` session.

    Experiment drivers build their racks internally, so observability
    arrives ambiently: the Simulator constructor already hooked itself
    to the session (if any).  A registry replaces the source under a
    prefix it already holds, so a rack whose JBOFs each have an ``ssd0``
    names every device after its pipeline (``ssd.jbof1/ssd0``) with
    ``qualify_devices``.
    """
    session = current_session()
    if session is None:
        return
    registry = session.registry
    pipelines = [pipeline for target in targets for pipeline in target.pipelines.values()]
    for pipeline in pipelines:
        device = pipeline.device
        registry.add(f"ssd.{pipeline.name if qualify_devices else device.name}", device)
    for target in targets:
        for core in target.cores:
            registry.add(f"core.{core.name}", core)
    for pipeline in pipelines:
        registry.add(f"pipeline.{pipeline.name}", pipeline)
        if hasattr(pipeline.scheduler, "metrics"):
            registry.add(f"switch.{pipeline.name}", pipeline.scheduler)
    registry.add("net", network)


@dataclass
class TestbedConfig:
    """Everything needed to stand up one storage node plus clients."""

    # Not a pytest class despite the name.
    __test__ = False

    scheme: str = "gimbal"
    condition: str = "clean"
    num_ssds: int = 1
    num_cores: Optional[int] = None
    device_profile: str = "dct983"
    cpu_model: CpuCostModel = SMARTNIC_CPU
    gimbal_params: Optional[GimbalParams] = None
    added_io_cost_us: float = 0.0
    seed: int = 42
    #: Override the target-side scheduler construction (used by the
    #: ablation studies); the scheme still selects the client policy.
    scheduler_factory: Optional[Callable[[], object]] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {tuple(SCHEMES)}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if self.num_ssds <= 0:
            raise ValueError("need at least one SSD")
        if not (math.isfinite(self.added_io_cost_us) and self.added_io_cost_us >= 0):
            raise ValueError(
                f"added_io_cost_us must be finite and non-negative, got {self.added_io_cost_us}"
            )


class Testbed:
    """One storage node, its network, and the client workers."""

    __test__ = False  # not a pytest class despite the name

    def __init__(self, config: TestbedConfig):
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.network = Network(self.sim)
        self.devices: Dict[str, object] = {}
        profile = profile_by_name(config.device_profile)
        for index in range(config.num_ssds):
            name = f"ssd{index}"
            if config.device_profile == "null":
                device = NullDevice(self.sim, name=name)
            else:
                device = SsdDevice(self.sim, profile=profile, name=name)
                condition_device(device, config.condition)
            self.devices[name] = device
        self.target = NvmeOfTarget(
            sim=self.sim,
            network=self.network,
            name="jbof0",
            devices=self.devices,
            scheduler_factory=self._scheduler_factory(),
            num_cores=config.num_cores,
            cpu_model=config.cpu_model,
            added_io_cost_us=config.added_io_cost_us,
        )
        self.initiators: Dict[str, NvmeOfInitiator] = {}
        self.workers: List[FioWorker] = []
        self._region_cursor: Dict[str, int] = {name: 0 for name in self.devices}
        self._namespace_count = 0
        register_targets([self.target], self.network, qualify_devices=False)

    # ------------------------------------------------------------------
    # Scheme wiring
    # ------------------------------------------------------------------
    def _scheduler_factory(self) -> Callable[[], object]:
        config = self.config
        if config.scheduler_factory is not None:
            return config.scheduler_factory
        params = config.gimbal_params
        if config.scheme == "gimbal" and params is not None:
            return lambda: GimbalScheduler(params)
        return SCHEMES[config.scheme][0]

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def initiator(self, host: str) -> NvmeOfInitiator:
        existing = self.initiators.get(host)
        if existing is None:
            existing = NvmeOfInitiator(self.sim, self.network, host)
            self.initiators[host] = existing
        return existing

    def allocate_region(self, ssd: str, npages: int) -> AddressRegion:
        """Carve the next ``npages`` slice of the SSD's LBA space."""
        device = self.devices[ssd]
        start = self._region_cursor[ssd]
        if start + npages > device.exported_pages:
            raise ValueError(
                f"{ssd} exhausted: {start + npages} > {device.exported_pages} pages"
            )
        self._region_cursor[ssd] = start + npages
        return AddressRegion(start, npages)

    def add_worker(
        self,
        spec: FioSpec,
        ssd: str = "ssd0",
        host: Optional[str] = None,
        region_pages: Optional[int] = None,
        queue_depth: Optional[int] = None,
    ) -> FioWorker:
        """Create a tenant session plus a closed-loop worker on it."""
        host_name = host or f"client-{spec.name}"
        region_size = region_pages if region_pages is not None else 2048
        region = self.allocate_region(ssd, region_size)
        # Each tenant addresses its own NVMe namespace; LBAs on the wire
        # are namespace-relative and translated/bounds-checked at the
        # target (paper Section 2.3's addressing model).
        self._namespace_count += 1
        namespace = Namespace(
            nsid=self._namespace_count,
            ssd_name=ssd,
            base_lpn=region.start,
            npages=region.npages,
        )
        session = self.initiator(host_name).connect(
            tenant_id=spec.name,
            target=self.target,
            ssd_name=ssd,
            policy=SCHEMES[self.config.scheme][1](),
            queue_depth=queue_depth or max(spec.queue_depth, 4),
            namespace=namespace,
        )
        worker = FioWorker(
            session=session,
            spec=spec,
            region=AddressRegion(0, region.npages),
            rng=self.rngs.stream(f"worker:{spec.name}"),
        )
        self.workers.append(worker)
        return worker

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, warmup_us: float, measure_us: float) -> Dict[str, object]:
        """Start all workers, warm up, measure, and summarise."""
        for worker in self.workers:
            worker.start()
        self.sim.run(until_us=warmup_us)
        for worker in self.workers:
            worker.begin_measurement()
        self.sim.run(until_us=warmup_us + measure_us)
        return self.results()

    def results(self) -> Dict[str, object]:
        per_worker = [worker.results() for worker in self.workers]
        total_bw = sum(w["bandwidth_mbps"] for w in per_worker)
        return {
            "scheme": self.config.scheme,
            "condition": self.config.condition,
            "workers": per_worker,
            "total_bandwidth_mbps": total_bw,
            "write_amplification": {
                name: device.write_amplification for name, device in self.devices.items()
            },
            "core_busy_us": {
                core.name: core.busy_us_total for core in self.target.cores
            },
        }
