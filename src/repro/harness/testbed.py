"""Testbed builder: one call from scheme name to a runnable rack.

The paper's testbed (Section 5.1) is a rack of x86 clients and
Stingray JBOFs behind a 100 Gbps switch.  :class:`Testbed` assembles
the simulated equivalent for a chosen multi-tenancy scheme:

=========  =========================  ================================
scheme     target-side scheduler      client-side policy
=========  =========================  ================================
gimbal     GimbalScheduler            CreditClientPolicy (Alg 3)
reflex     ReflexScheduler            queue depth only
flashfq    FlashFqScheduler           queue depth only
parda      FifoScheduler (vanilla)    PardaClientPolicy
vanilla    FifoScheduler              queue depth only
=========  =========================  ================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.fifo import FifoScheduler
from repro.baselines.flashfq import FlashFqScheduler
from repro.baselines.reflex import ReflexScheduler
from repro.core.config import GimbalParams
from repro.core.switch import GimbalScheduler
from repro.core.write_cost import worst_case_write_cost
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.namespace import Namespace
from repro.fabric.network import Network
from repro.fabric.policies import CreditClientPolicy, PardaClientPolicy, UnlimitedClientPolicy
from repro.fabric.smartnic import SMARTNIC_CPU, CpuCostModel
from repro.fabric.target import NvmeOfTarget
from repro.obs.session import current_session
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.ssd.conditioning import age_device, precondition_clean, precondition_fragmented
from repro.ssd.device import NullDevice, SsdDevice
from repro.ssd.geometry import SsdGeometry
from repro.ssd.profiles import profile_by_name
from repro.workloads.fio import FioSpec, FioWorker
from repro.workloads.patterns import AddressRegion

#: The multi-tenancy schemes the evaluation compares.
SCHEMES = ("gimbal", "reflex", "parda", "flashfq", "vanilla")
#: Device states a testbed can start from (``none``: no preconditioning).
CONDITIONS = ("clean", "fragmented", "aged", "none")


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
    geometry: SsdGeometry = field(default_factory=SsdGeometry)
    cpu_model: CpuCostModel = SMARTNIC_CPU
    gimbal_params: Optional[GimbalParams] = None
    added_io_cost_us: float = 0.0
    #: Device age for ``condition="aged"``: fraction of useful life
    #: consumed, in [0, 1).
    device_age: float = 0.5
    #: Field overrides applied on top of the named device profile
    #: (used by the aging study to switch on fidelity knobs such as
    #: ``map_cache_pages`` or ``endurance_cycles`` per sweep point).
    profile_overrides: Optional[dict] = None
    seed: int = 42
    #: Override the target-side scheduler construction (used by the
    #: ablation studies); the scheme still selects the client policy.
    scheduler_factory: Optional[Callable[[], object]] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if not 0.0 <= self.device_age < 1.0:
            raise ValueError("device_age must be in [0, 1)")
        if self.num_ssds <= 0:
            raise ValueError("need at least one SSD")
        if self.added_io_cost_us < 0:
            raise ValueError(
                f"added_io_cost_us must be non-negative, got {self.added_io_cost_us}"
            )


class Testbed:
    """One storage node, its network, and the client workers."""

    __test__ = False  # not a pytest class despite the name

    def __init__(self, config: TestbedConfig):
        self.config = config
        self.sim = Simulator()
        # Experiment drivers build testbeds internally, so observability
        # arrives ambiently: the Simulator constructor already hooked
        # itself to the active ``repro.obs.session.capture()`` session (if any);
        # the testbed's part is registering component metrics below.
        session = current_session()
        self.rngs = RngRegistry(config.seed)
        self.network = Network(self.sim)
        self.devices: Dict[str, object] = {}
        profile = profile_by_name(config.device_profile)
        if config.profile_overrides:
            profile = profile.with_overrides(**config.profile_overrides)
        self._resolved_profile = profile
        for index in range(config.num_ssds):
            name = f"ssd{index}"
            if config.device_profile == "null":
                device = NullDevice(self.sim, name=name)
            else:
                device = SsdDevice(
                    self.sim, profile=profile, geometry=config.geometry, name=name
                )
                if config.condition == "clean":
                    precondition_clean(device)
                elif config.condition == "fragmented":
                    precondition_fragmented(device)
                elif config.condition == "aged":
                    age_device(device, age=config.device_age, seed=config.seed)
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
        if session is not None:
            for device in self.devices.values():
                session.register(device)
            for core in self.target.cores:
                session.register(core)
            for pipeline in self.target.pipelines.values():
                session.register(pipeline)
            session.register(self.network)

    # ------------------------------------------------------------------
    # Scheme wiring
    # ------------------------------------------------------------------
    def _scheduler_factory(self) -> Callable[[], object]:
        if self.config.scheduler_factory is not None:
            return self.config.scheduler_factory
        scheme = self.config.scheme
        if scheme == "gimbal":
            params = self.config.gimbal_params
            if params is None and self.config.condition == "aged":
                # Aged devices have a worse worst case than the static
                # config's fresh-device 9: derive it from the timing
                # profile and aged geometry (Section 3.4's
                # pre-calibration, re-run for the device's age).
                worst = worst_case_write_cost(
                    self._resolved_profile,
                    self.config.geometry,
                    age=self.config.device_age,
                )
                params = GimbalParams().with_overrides(write_cost_worst=worst)
            return lambda: GimbalScheduler(params)
        if scheme == "reflex":
            return ReflexScheduler
        if scheme == "flashfq":
            return FlashFqScheduler
        # parda and vanilla both run the pass-through target.
        return FifoScheduler

    def _client_policy(self):
        scheme = self.config.scheme
        if scheme == "gimbal":
            return CreditClientPolicy()
        if scheme == "parda":
            return PardaClientPolicy()
        return UnlimitedClientPolicy()

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
            policy=self._client_policy(),
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
