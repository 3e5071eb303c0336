"""The NVMe-oF target: one storage node (SmartNIC JBOF or server JBOF).

A target owns a set of SSDs, a set of processor cores and one pipeline
per SSD; pipelines are pinned round-robin to cores (on the Stingray one
A72 core fully drives one PCIe Gen3 SSD, so the default is one core per
SSD, the paper's shared-nothing deployment).  The scheduling policy is
supplied as a factory so that every pipeline gets its own instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.fabric.network import Network
from repro.fabric.pipeline import SsdPipeline
from repro.fabric.smartnic import SMARTNIC_CPU, CpuCostModel, NicCore
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import StorageScheduler
    from repro.fabric.initiator import TenantSession

SchedulerFactory = Callable[[], "StorageScheduler"]


class NvmeOfTarget:
    """One disaggregated storage node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        devices: Dict[str, object],
        scheduler_factory: SchedulerFactory,
        num_cores: Optional[int] = None,
        cpu_model: CpuCostModel = SMARTNIC_CPU,
        added_io_cost_us: float = 0.0,
    ):
        if not devices:
            raise ValueError("a target needs at least one device")
        self.sim = sim
        self.network = network
        self.name = name
        self.port = network.port(name)
        core_count = num_cores if num_cores is not None else len(devices)
        if core_count <= 0:
            raise ValueError("core count must be positive")
        self.cores: List[NicCore] = [
            NicCore(sim, f"{name}/core{i}") for i in range(core_count)
        ]
        self.pipelines: Dict[str, SsdPipeline] = {}
        for index, (ssd_name, device) in enumerate(devices.items()):
            self.pipelines[ssd_name] = SsdPipeline(
                sim=sim,
                name=f"{name}/{ssd_name}",
                device=device,
                core=self.cores[index % core_count],
                scheduler=scheduler_factory(),
                cpu_model=cpu_model,
                network=network,
                port=self.port,
                added_io_cost_us=added_io_cost_us,
            )

    @property
    def ssd_names(self) -> List[str]:
        return list(self.pipelines)

    def pipeline(self, ssd_name: str) -> SsdPipeline:
        try:
            return self.pipelines[ssd_name]
        except KeyError:
            raise KeyError(f"no SSD {ssd_name!r} on target {self.name}") from None

    def accept_connection(self, session: "TenantSession", weight: float = 1.0) -> None:
        """Register a tenant session (called by the initiator)."""
        self.pipeline(session.ssd_name).register_tenant(
            session.tenant_id,
            session.client_port,
            weight,
            namespace=getattr(session, "namespace", None),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NvmeOfTarget({self.name}, ssds={self.ssd_names})"
