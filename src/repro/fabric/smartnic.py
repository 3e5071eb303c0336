"""SmartNIC (and server) CPU model.

Section 2.4's central constraint is that SmartNIC cores are wimpy: the
target can spend only ~1 us of core time on a 4 KiB IO before the
storage bandwidth suffers.  A :class:`NicCore` is therefore an explicit
FCFS resource -- every processing step books core time, which both adds
latency and caps per-core IOPS.

The cost model is calibrated against the paper's anchors:

* vanilla SPDK on one SmartNIC core drives ~937 KIOPS against a NULL
  device (Table 1b) -> fixed submit+complete ~1.07 us;
* ~3 ARM cores saturate four SSDs of 4 KiB random reads (Figure 3)
  -> an extra ~1 us of real-device driver work per IO;
* 128/256 KiB IOs see ~20% higher latency on the SmartNIC than on the
  x86 server (Figure 2) -> a per-page data-path cost.

Core-time consumption is also accounted per *component tag* so that
Table 1's cycle comparison can be regenerated.  Following the paper's
convention, reported "cycles" use 125 cycles == 1 us.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.engine import Simulator

#: The paper's Table 1 time unit: 125 cycles per microsecond.
CYCLES_PER_US = 125.0


@dataclass(frozen=True)
class CpuCostModel:
    """Per-IO core-time budget of the NVMe-oF target host."""

    name: str
    #: Transport + NVMe-oF framework work on the submission path.
    submit_fixed_us: float
    #: Transport + completion-path framework work.
    complete_fixed_us: float
    #: Data-path handling per 4 KiB page moved (DMA setup, memcpy share).
    per_page_us: float
    #: Extra driver work for a *real* NVMe device (doorbells, CQ reaping);
    #: zero against a NULL backend.
    device_extra_us: float

    @property
    def fixed_total_us(self) -> float:
        return self.submit_fixed_us + self.complete_fixed_us

    def io_cost_us(self, npages: int, real_device: bool) -> float:
        """Total core time one IO of ``npages`` consumes on this host."""
        cost = self.fixed_total_us + self.per_page_us * npages
        if real_device:
            cost += self.device_extra_us
        return cost

    # -- precomputed pipeline costs -----------------------------------
    # The pipeline's per-IO booking costs depend only on construction-
    # time inputs (scheduler overheads, the Figure 16 knob, whether the
    # backend is a real NVMe device), so they are folded into constants
    # once instead of re-summed on every capsule.  The sums are kept in
    # the exact order the inline expressions used, so the floats are
    # bit-identical.

    def submit_cost_us(
        self,
        scheduler_overhead_us: float = 0.0,
        added_io_cost_us: float = 0.0,
        real_device: bool = False,
    ) -> float:
        """Submission-path booking for one IO (fixed part)."""
        cost = self.submit_fixed_us + scheduler_overhead_us + added_io_cost_us
        if real_device:
            cost += self.device_extra_us / 2.0
        return cost

    def complete_cost_us(
        self, scheduler_overhead_us: float = 0.0, real_device: bool = False
    ) -> float:
        """Completion-path booking for one IO, excluding the per-page
        data movement a read adds."""
        cost = self.complete_fixed_us + scheduler_overhead_us
        if real_device:
            cost += self.device_extra_us / 2.0
        return cost

    def read_complete_cost_table(
        self,
        scheduler_overhead_us: float = 0.0,
        real_device: bool = False,
        size_classes: tuple = (1, 2, 4, 8, 16, 32, 64),
    ) -> Dict[int, float]:
        """``{npages: completion cost}`` for the common IO size classes.

        The pipeline extends the table lazily for sizes outside
        ``size_classes``; entries are always ``complete_cost_us() +
        per_page_us * npages`` so the table can be rebuilt from scratch
        whenever a construction-time input changes.
        """
        base = self.complete_cost_us(scheduler_overhead_us, real_device)
        return {n: base + self.per_page_us * n for n in size_classes}


#: Broadcom Stingray PS1100R ARM A72 core.
SMARTNIC_CPU = CpuCostModel(
    name="smartnic",
    submit_fixed_us=0.62,
    complete_fixed_us=0.45,
    per_page_us=0.10,
    device_extra_us=1.0,
)

#: Xeon-class server core (the paper's conventional JBOF head).
SERVER_CPU = CpuCostModel(
    name="server",
    submit_fixed_us=0.25,
    complete_fixed_us=0.18,
    per_page_us=0.015,
    device_extra_us=0.35,
)


class NicCore:
    """One processor core as an analytic FCFS resource.

    ``book(cost, tag)`` reserves ``cost`` microseconds of core time
    starting no earlier than now and returns the completion timestamp.
    ``tag`` attributes the time for the overhead accounting in Table 1.
    """

    __slots__ = ("sim", "name", "busy_until", "busy_us_total", "_by_tag")

    def __init__(self, sim: Simulator, name: str = "core0"):
        self.sim = sim
        self.name = name
        self.busy_until = 0.0
        self.busy_us_total = 0.0
        # tag -> [total_us, events]: one ledger dict instead of two, so
        # the hot booking path does a single lookup and mutates the
        # record in place.
        self._by_tag: Dict[str, list] = {}

    def book(self, cost_us: float, tag: str = "other") -> float:
        """Reserve core time; returns when the work finishes."""
        if not cost_us >= 0:  # NaN too
            raise ValueError(f"cost must be non-negative, got {cost_us}")
        now = self.sim.now
        busy = self.busy_until
        done = (now if now > busy else busy) + cost_us
        self.busy_until = done
        self.busy_us_total += cost_us
        record = self._by_tag.get(tag)
        if record is None:
            self._by_tag[tag] = [cost_us, 1]
        else:
            record[0] += cost_us
            record[1] += 1
        return done

    @property
    def events_by_tag(self) -> Dict[str, int]:
        """Booking counts per component tag (fresh snapshot)."""
        return {tag: record[1] for tag, record in self._by_tag.items()}

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` this core spent busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_us_total / elapsed_us)

    def mean_cycles_by_tag(self) -> Dict[str, float]:
        """Average cycles per event per tag (paper Table 1a's unit)."""
        return {
            tag: (record[0] / record[1]) * CYCLES_PER_US
            for tag, record in self._by_tag.items()
            if record[1]
        }

    def register_metrics(self, registry, prefix: str = None) -> None:
        """Expose core occupancy as pull gauges."""
        prefix = prefix or f"core.{self.name}"
        registry.gauge(f"{prefix}.busy_us", lambda: self.busy_us_total)
        registry.gauge(
            f"{prefix}.bookings",
            lambda: sum(record[1] for record in self._by_tag.values()),
        )
        for tag in ("submit", "datapath", "complete"):
            registry.gauge(
                f"{prefix}.busy_us.{tag}",
                lambda tag=tag: self._by_tag[tag][0] if tag in self._by_tag else 0.0,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NicCore({self.name}, busy={self.busy_us_total:.0f}us)"
