"""Multi-JBOF cluster for the RocksDB case study (Sections 4.3, 5.6).

Builds the paper's application testbed: several SmartNIC JBOFs, a
shared rack-level blob allocator, and N DB instances, each an LSM tree
over a replicated blobstore with per-(instance, SSD) tenant sessions.

Three client-side switches reproduce Figure 13's ablation:

* ``flow_control`` -- gimbal sessions use the credit policy (the IO
  rate limiter); off = unlimited submission;
* ``load_balance`` -- reads steered to the least-loaded replica;
* replication itself is always on (fault tolerance), as in the paper.

Beyond the static figure-13 shape, the cluster supports *tenant
churn* at rack scale: instances can arrive mid-run
(:meth:`KvCluster.add_instance` inside a running simulation), depart
gracefully (:meth:`KvCluster.depart_instance` -- stop the client,
wait for background LSM work and in-flight IO to drain, delete every
file, hand all mega blobs back to the rack allocator, disconnect the
sessions), and a whole :class:`~repro.workloads.population.TenantSpec`
schedule can be executed end to end with
:meth:`KvCluster.run_population`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.fabric.boundary import CoordinatorFabric, JbofShardHost, fabric_lookahead_us
from repro.fabric.initiator import NvmeOfInitiator
from repro.fabric.network import Network
from repro.fabric.policies import UnlimitedClientPolicy
from repro.fabric.target import NvmeOfTarget
from repro.harness.testbed import SCHEMES, register_targets
from repro.kv.allocator import GlobalBlobAllocator, LocalBlobAllocator
from repro.kv.backend import RemoteBackend
from repro.kv.blobstore import Blobstore
from repro.kv.lsm import LsmTree
from repro.kv.runner import YcsbRunner
from repro.obs.session import current_session
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.shard import ShardExecutor, ShardKernel
from repro.ssd.conditioning import condition_device
from repro.ssd.device import SsdDevice
from repro.ssd.geometry import SsdGeometry
from repro.workloads.patterns import AddressRegion
from repro.workloads.population import TenantSpec
from repro.workloads.ycsb import YCSB_WORKLOADS

#: The :data:`~repro.ssd.conditioning.CONDITIONS` a rack can start from.
CONDITIONS = ("clean", "fragmented")
#: Every rack SSD's geometry.
GEOMETRY = SsdGeometry()
#: Departure-protocol polling interval (simulated microseconds).
DEPART_POLL_US = 50.0


@dataclass
class KvClusterConfig:
    """Cluster shape and scheme selection."""

    __test__ = False

    scheme: str = "gimbal"
    condition: str = "fragmented"
    num_jbofs: int = 3
    ssds_per_jbof: int = 4
    #: Client-side credit flow control (Figure 13's "+FC"); gimbal only,
    #: None = the scheme's own policy.
    flow_control: Optional[bool] = None
    #: Read load balancing across replicas (Figure 13's "+LB").
    load_balance: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if self.num_jbofs <= 0 or self.ssds_per_jbof <= 0:
            raise ValueError("cluster must have at least one SSD")
        if self.flow_control is not None and self.scheme != "gimbal":
            raise ValueError(
                f"flow_control is a gimbal toggle; scheme {self.scheme!r} "
                "fixes its own client policy"
            )


def build_targets(
    config: KvClusterConfig, sim: Simulator, network: Network, jbof_indices: Iterable[int]
) -> List[NvmeOfTarget]:
    """The listed JBOFs' targets, each over freshly conditioned SSDs."""
    targets = []
    for jbof_index in jbof_indices:
        devices: Dict[str, SsdDevice] = {}
        for ssd_index in range(config.ssds_per_jbof):
            device = SsdDevice(sim, geometry=GEOMETRY, name=f"ssd{ssd_index}")
            condition_device(device, config.condition)
            devices[device.name] = device
        targets.append(
            NvmeOfTarget(
                sim,
                network,
                f"jbof{jbof_index}",
                devices,
                scheduler_factory=SCHEMES[config.scheme][0],
            )
        )
    return targets


def build_jbof_shard(
    config: KvClusterConfig, shard_id: int, jbof_indices: List[int], lookahead_us: float
) -> ShardKernel:
    """Build one JBOF shard: its own simulator, network, targets."""
    sim = Simulator()
    network = Network(sim)
    targets = build_targets(config, sim, network, jbof_indices)
    host = JbofShardHost(sim, network, {target.name: target for target in targets})
    kernel = ShardKernel(shard_id, sim, host.handle_message, lookahead_us)
    host.bind_kernel(kernel)
    return kernel


@dataclass
class KvInstance:
    """Everything one DB instance owns inside the cluster."""

    name: str
    initiator: NvmeOfInitiator
    backends: Dict[str, RemoteBackend]
    allocator: LocalBlobAllocator
    store: Blobstore
    tree: LsmTree
    runner: YcsbRunner
    arrived_us: float
    departing: bool = False

    @property
    def outstanding(self) -> int:
        return sum(backend.outstanding for backend in self.backends.values())


class KvCluster:
    """The rack: JBOF targets plus DB instances."""

    __test__ = False

    def __init__(
        self,
        config: KvClusterConfig,
        shards: Optional[int] = None,
        shard_mode: str = "inline",
    ):
        # benchmarks/ledger passes shard_mode; ROADMAP item 1 retires it.
        if shard_mode != "inline":
            raise ValueError(f"unknown shard mode {shard_mode!r}; only 'inline' runs")
        if shards is not None and (not isinstance(shards, int) or shards < 0):
            raise ValueError(f"shards must be an integer >= 0, got {shards!r}")
        self.config = config
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.network = Network(self.sim)
        self.targets: List[NvmeOfTarget] = []
        #: backend name ("jbofX/ssdY") -> all RemoteBackends touching it.
        self._backends_by_ssd: Dict[str, List[RemoteBackend]] = {}
        self.global_allocator = GlobalBlobAllocator(load_of=self._ssd_load)
        #: Figure 13's vanilla leg turns gimbal's credit policy off.
        self._policy = (
            UnlimitedClientPolicy
            if config.flow_control is False
            else SCHEMES[config.scheme][1]
        )
        #: ``(requested, effective)`` shard counts of a sharded cluster.
        self.shard_counts: Optional[tuple] = None
        self.shard_executor: Optional[ShardExecutor] = None
        self.shard_report: Optional[Dict[str, object]] = None
        self._coordinator: Optional[CoordinatorFabric] = None
        if shards:
            self._build_sharded(shards)
        else:
            self.targets = build_targets(config, self.sim, self.network, range(config.num_jbofs))
            register_targets(self.targets, self.network, qualify_devices=True)
        for target in self.targets:
            for ssd_name in target.ssd_names:
                backend_name = f"{target.name}/{ssd_name}"
                self._backends_by_ssd[backend_name] = []
                self.global_allocator.register_backend(
                    backend_name, AddressRegion(0, GEOMETRY.exported_pages)
                )
        self.runners: List[YcsbRunner] = []
        self.instances: Dict[str, KvInstance] = {}
        # Rack-lifecycle accounting (see metrics).
        self.tenants_arrived = 0
        self.tenants_departed = 0
        self.peak_tenants = 0
        self.peak_megas_in_use = 0
        self._departed_reads_to_primary = 0
        self._departed_reads_to_shadow = 0
        session = current_session()
        if session is not None:
            session.registry.add("rack", self)
            if self.shard_executor is not None:
                session.registry.add("shard", self.shard_executor)

    # ------------------------------------------------------------------
    # Topology build
    # ------------------------------------------------------------------
    def _build_sharded(self, requested: int) -> None:
        """Partition the rack: coordinator shard 0 keeps every client-side
        object on ``self.sim``; JBOFs spread round-robin over shards
        1..N (at most one per JBOF), each with its own simulator behind
        the fabric boundary (:mod:`repro.fabric.boundary`)."""
        config = self.config
        shards = min(requested, config.num_jbofs)
        self.shard_counts = (requested, shards)
        lookahead = fabric_lookahead_us(self.network)
        coordinator = CoordinatorFabric(self.sim, self.network)
        self._coordinator = coordinator
        executor = ShardExecutor(lookahead)
        kernel = ShardKernel(0, self.sim, coordinator.handle_message, lookahead)
        coordinator.bind_kernel(kernel)
        executor.add_local(kernel)
        for slot in range(shards):
            jbofs = [i for i in range(config.num_jbofs) if i % shards == slot]
            executor.add_local(build_jbof_shard(config, slot + 1, jbofs, lookahead))
        self.shard_executor = executor
        for jbof_index in range(config.num_jbofs):
            self.targets.append(
                coordinator.target_stub(
                    f"jbof{jbof_index}",
                    1 + jbof_index % shards,
                    [f"ssd{i}" for i in range(config.ssds_per_jbof)],
                )
            )

    def _ssd_load(self, backend_name: str) -> float:
        """Aggregate load of one SSD across every instance touching it."""
        backends = self._backends_by_ssd.get(backend_name, [])
        if not backends:
            return 0.0
        return sum(backend.load_score for backend in backends)

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def add_instance(
        self,
        name: str,
        workload: str,
        record_count: int = 2048,
        concurrency: int = 4,
    ) -> YcsbRunner:
        """One DB instance with sessions to every SSD in the rack.

        Safe to call both before the simulation starts (the static
        figure-10/13 shape) and from inside a running simulation (a
        tenant arrival).
        """
        if name in self.instances:
            raise ValueError(f"instance {name!r} already exists")
        initiator = NvmeOfInitiator(self.sim, self.network, f"client-{name}")
        backends: Dict[str, RemoteBackend] = {}
        for target in self.targets:
            for ssd_name in target.ssd_names:
                backend_name = f"{target.name}/{ssd_name}"
                session = initiator.connect(
                    tenant_id=f"{name}@{backend_name}",
                    target=target,
                    ssd_name=ssd_name,
                    policy=self._policy(),
                    queue_depth=64,
                )
                backend = RemoteBackend(backend_name, session)
                backends[backend_name] = backend
                self._backends_by_ssd[backend_name].append(backend)
        allocator = LocalBlobAllocator(self.global_allocator)
        store = Blobstore(allocator, backends, load_balance_reads=self.config.load_balance)
        tree = LsmTree(name, store, self.sim, rng=self.rngs.stream(f"lsm:{name}"))
        runner = YcsbRunner(
            tree,
            YCSB_WORKLOADS[workload],
            record_count=record_count,
            rng=self.rngs.stream(f"ycsb:{name}"),
            concurrency=concurrency,
        )
        self.runners.append(runner)
        self.instances[name] = KvInstance(
            name=name,
            initiator=initiator,
            backends=backends,
            allocator=allocator,
            store=store,
            tree=tree,
            runner=runner,
            arrived_us=self.sim.now,
        )
        self.tenants_arrived += 1
        self.peak_tenants = max(self.peak_tenants, len(self.instances))
        self._note_mega_occupancy()
        return runner

    def _note_mega_occupancy(self) -> None:
        in_use = (
            self.global_allocator.total_megas
            - self.global_allocator.total_available_megas
        )
        if in_use > self.peak_megas_in_use:
            self.peak_megas_in_use = in_use

    # ------------------------------------------------------------------
    # Departure
    # ------------------------------------------------------------------
    def depart_instance(
        self,
        name: str,
        on_done: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        """Gracefully retire one DB instance (a tenant departure).

        Stops the client, then waits (polling simulated time) until the
        LSM tree is quiescent and all fabric IO has drained before
        deleting the instance's files -- deleting under a mid-flight
        compaction would double-free the tables the compaction still
        references.  Once the deletion trims drain too, every mega blob
        goes back to the rack allocator, the sessions disconnect, and
        ``on_done`` receives the tenant's final results.
        """
        inst = self.instances[name]
        if inst.departing:
            raise ValueError(f"instance {name!r} is already departing")
        inst.departing = True
        inst.runner.stop()
        self._note_mega_occupancy()

        def wait_quiesce() -> None:
            if inst.tree.quiescent and inst.outstanding == 0:
                for file in list(inst.store.files.values()):
                    inst.store.delete(file)
                self.sim.schedule(DEPART_POLL_US, wait_trim_drain)
            else:
                self.sim.schedule(DEPART_POLL_US, wait_quiesce)

        def wait_trim_drain() -> None:
            if inst.outstanding == 0:
                finalize()
            else:
                self.sim.schedule(DEPART_POLL_US, wait_trim_drain)

        def finalize() -> None:
            result = inst.runner.results()
            result["departed_us"] = self.sim.now
            result["arrived_us"] = inst.arrived_us
            result["megas_acquired"] = inst.allocator.megas_acquired
            result["megas_released"] = inst.allocator.megas_released
            inst.allocator.release_all()
            result["megas_released_total"] = inst.allocator.megas_released
            self._departed_reads_to_primary += inst.store.reads_to_primary
            self._departed_reads_to_shadow += inst.store.reads_to_shadow
            for backend_name, backend in inst.backends.items():
                backend.session.disconnect()
                self._backends_by_ssd[backend_name].remove(backend)
            del self.instances[name]
            self.runners.remove(inst.runner)
            self.tenants_departed += 1
            if on_done is not None:
                on_done(result)

        wait_quiesce()

    # ------------------------------------------------------------------
    # Rack-scale population execution
    # ------------------------------------------------------------------
    def run_population(self, specs: List[TenantSpec]) -> Dict[str, object]:
        """Execute a full tenant churn schedule and drain the rack.

        Every spec arrives at its ``arrival_us``, loads, runs its
        workload, and departs after its lifetime (measured from the
        moment loading finished, so short-lived tenants still do real
        work).  The call returns when the last tenant has departed;
        afterwards the rack holds zero instances and -- thanks to
        allocator reclamation -- the global mega-blob pool is exactly
        as available as before the churn.
        """
        if self.instances:
            raise RuntimeError("run_population needs an empty rack to start from")
        pre_available = self.global_allocator.total_available_megas
        results: Dict[str, Dict[str, object]] = {}

        def launch(spec: TenantSpec) -> None:
            runner = self.add_instance(
                spec.name,
                spec.workload,
                record_count=spec.record_count,
                concurrency=spec.concurrency,
            )

            def loaded() -> None:
                runner.start()
                runner.begin_measurement()
                self.sim.schedule(spec.lifetime_us, depart)

            def depart() -> None:
                self.depart_instance(spec.name, on_done=lambda result: record(spec, result))

            runner.load(loaded)

        def record(spec: TenantSpec, result: Dict[str, object]) -> None:
            result["tenant_class"] = spec.tenant_class
            result["record_count"] = spec.record_count
            result["concurrency"] = spec.concurrency
            results[spec.name] = result

        for spec in specs:
            self.sim.schedule(max(0.0, spec.arrival_us - self.sim.now), launch, spec)
        self._advance()
        if self.instances:
            self.finish_shards()
            raise RuntimeError(
                f"{len(self.instances)} instances still resident after the "
                "population drained"
            )
        missing = [spec.name for spec in specs if spec.name not in results]
        if missing:
            self.finish_shards()
            raise RuntimeError(f"{len(missing)} tenants never departed: {missing[:5]}")
        post_available = self.global_allocator.total_available_megas
        out = {
            "tenants": [results[spec.name] for spec in specs],
            "peak_tenants": self.peak_tenants,
            "peak_megas_in_use": self.peak_megas_in_use,
            "megas_allocated": self.global_allocator.megas_allocated,
            "megas_freed": self.global_allocator.megas_freed,
            "megas_leaked": pre_available - post_available,
            "reads_to_primary": self.reads_to_primary,
            "reads_to_shadow": self.reads_to_shadow,
            "drained_us": self.sim.now,
        }
        shard = self._shard_outcome()
        if shard is not None:
            out["shard"] = shard
        return out

    # ------------------------------------------------------------------
    # Rack-level accounting
    # ------------------------------------------------------------------
    @property
    def reads_to_primary(self) -> int:
        return self._departed_reads_to_primary + sum(
            inst.store.reads_to_primary for inst in self.instances.values()
        )

    @property
    def reads_to_shadow(self) -> int:
        return self._departed_reads_to_shadow + sum(
            inst.store.reads_to_shadow for inst in self.instances.values()
        )

    def metrics(self) -> dict:
        """Rack occupancy, reclamation and read steering."""
        allocator = self.global_allocator
        return {
            "active_tenants": len(self.instances),
            "peak_tenants": self.peak_tenants,
            "tenants_arrived": self.tenants_arrived,
            "tenants_departed": self.tenants_departed,
            "megas_total": allocator.total_megas,
            "megas_available": allocator.total_available_megas,
            "megas_allocated": allocator.megas_allocated,
            "megas_freed": allocator.megas_freed,
            "peak_megas_in_use": self.peak_megas_in_use,
            "reads_to_primary": self.reads_to_primary,
            "reads_to_shadow": self.reads_to_shadow,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _advance(self, until_us: Optional[float] = None) -> None:
        """Advance the rack: the plain event loop unsharded, the
        conservative window protocol when sharded."""
        if self.shard_executor is not None:
            try:
                self.shard_executor.run_until(until_us)
            except BaseException:
                # No caller will get a result to ``finish_shards()`` on;
                # the report still records the windows that ran.
                self.finish_shards()
                raise
        elif until_us is None:
            self.sim.run()
        else:
            self.sim.run(until_us=until_us)

    def finish_shards(self) -> Optional[Dict[str, object]]:
        """Collect shard-layer statistics into :attr:`shard_report`.
        Idempotent; returns None on an unsharded cluster."""
        if self.shard_executor is None:
            return None
        self.shard_report = self.shard_executor.finish()
        return self.shard_report

    def _shard_outcome(self) -> Optional[Dict[str, object]]:
        """The slice of the shard report embedded in results."""
        report = self.finish_shards()
        if report is None:
            return None
        requested, shards = self.shard_counts
        return {
            "shards": shards,
            "requested": requested,
            "lookahead_us": report["lookahead_us"],
            "windows": report["windows"],
            "messages": report["messages"],
        }

    def load_all(self) -> None:
        """Run the YCSB load phase for every instance.

        Loading is the only activity, so the event heap drains exactly
        when every instance has finished inserting its records.
        """
        remaining = {"count": len(self.runners)}

        def one_loaded() -> None:
            remaining["count"] -= 1

        for runner in self.runners:
            runner.load(one_loaded)
        self._advance()
        if remaining["count"]:
            self.finish_shards()
            raise RuntimeError(f"{remaining['count']} instances did not finish loading")

    def run(self, warmup_us: float, measure_us: float) -> Dict[str, object]:
        start = self.sim.now
        for runner in self.runners:
            runner.start()
        self._advance(start + warmup_us)
        for runner in self.runners:
            runner.begin_measurement()
        self._advance(start + warmup_us + measure_us)
        per_instance = [runner.results() for runner in self.runners]
        read_summaries = [r["read_latency"] for r in per_instance if r["read_latency"]["count"]]
        total_kops = sum(r["kops"] for r in per_instance)
        mean_read = (
            sum(s["mean"] * s["count"] for s in read_summaries)
            / max(1.0, sum(s["count"] for s in read_summaries))
            if read_summaries
            else 0.0
        )
        p999 = max((s["p999"] for s in read_summaries), default=0.0)
        out = {
            "scheme": self.config.scheme,
            "instances": per_instance,
            "total_kops": total_kops,
            "read_avg_us": mean_read,
            "read_p999_us": p999,
        }
        shard = self._shard_outcome()
        if shard is not None:
            out["shard"] = shard
        return out


def run_one(
    scheme: str,
    workload: str,
    instances: int = 6,
    num_jbofs: int = 1,
    record_count: int = 2048,
    warmup_us: float = 300_000.0,
    measure_us: float = 700_000.0,
) -> Dict[str, object]:
    """One fragmented-cluster YCSB cell: the point figs 10 and 11-12 sweep."""
    cluster = KvCluster(KvClusterConfig(scheme=scheme, condition="fragmented", num_jbofs=num_jbofs))
    for index in range(instances):
        cluster.add_instance(f"db{index}", workload, record_count=record_count)
    cluster.load_all()
    results = cluster.run(warmup_us=warmup_us, measure_us=measure_us)
    return {
        "scheme": scheme,
        "workload": workload,
        "kops": results["total_kops"],
        "read_avg_us": results["read_avg_us"],
        "read_p999_us": results["read_p999_us"],
    }
