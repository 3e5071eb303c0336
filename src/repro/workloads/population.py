"""Tenant population generation for rack-scale cluster simulation.

A single JBOF serves a handful of hand-picked tenants; a *rack* serves
hundreds to thousands drawn from a skewed population.  This module
models that population the way datacenter traces describe it
(heavy-hitter + long-tail):

* a small set of :class:`TenantClass` templates -- workload mix,
  record-count range, concurrency range -- ordered from the heavy
  bulk classes down to the light tail;
* a Zipfian draw (``skew`` = theta) over those classes, so a few
  classes dominate the tenant mix while every class keeps a trickle;
* within a class, record count and concurrency are drawn Zipfian over
  the class's option lists (largest option = rank 0), so "whales"
  inside a class are also rare;
* a churn process: tenants arrive with exponential inter-arrival gaps
  over an arrival window and stay for an exponentially distributed
  lifetime, so tenant join / run / depart (and the file create/delete
  + allocator reclamation that departure exercises) happen throughout
  the run rather than only at the edges.

Everything is derived from one ``random.Random``, so a population is
byte-reproducible from its seed and parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.workloads.ycsb import YCSB_WORKLOADS, ZipfianGenerator


@dataclass(frozen=True)
class TenantClass:
    """One template in the tenant population.

    ``record_counts`` and ``concurrencies`` are option lists ordered
    largest-first; the generator draws Zipfian ranks over them so the
    big options are the rare ones.
    """

    name: str
    workload: str
    record_counts: Tuple[int, ...]
    concurrencies: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.workload not in YCSB_WORKLOADS:
            raise ValueError(f"unknown YCSB workload {self.workload!r}")
        if not self.record_counts or not self.concurrencies:
            raise ValueError("record_counts and concurrencies must be non-empty")
        if min(self.record_counts) <= 0 or min(self.concurrencies) <= 0:
            raise ValueError("record counts and concurrencies must be positive")


#: Default rack mix: update-heavy and read-heavy bulk classes first
#: (the heavy hitters under Zipfian class selection), scan/RMW and
#: insert-heavy classes in the tail.  Record counts are scaled to the
#: ~256 MiB simulated SSDs the same way the fig10/fig13 clusters are.
DEFAULT_TENANT_CLASSES: Tuple[TenantClass, ...] = (
    TenantClass("update-heavy", "A", (512, 256, 128), (4, 2, 1)),
    TenantClass("read-mostly", "B", (512, 256, 128), (4, 2, 1)),
    TenantClass("read-only", "C", (256, 128, 64), (8, 4, 2)),
    TenantClass("latest-read", "D", (256, 128), (2, 1)),
    TenantClass("read-modify-write", "F", (256, 128, 64), (2, 1)),
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant session: who it is, when it runs, what it does."""

    name: str
    tenant_class: str
    workload: str
    record_count: int
    concurrency: int
    arrival_us: float
    lifetime_us: float

    def __post_init__(self) -> None:
        if self.record_count <= 0 or self.concurrency <= 0:
            raise ValueError("record count and concurrency must be positive")
        if self.arrival_us < 0 or self.lifetime_us <= 0:
            raise ValueError("arrival must be >= 0 and lifetime positive")

    @property
    def departure_us(self) -> float:
        return self.arrival_us + self.lifetime_us


class TenantPopulation:
    """Deterministic generator of a churning tenant population.

    ``churn`` in [0, 1] sets how much of ``horizon_us`` the arrival
    process is spread over: 0 puts every arrival at t=0 (a static
    population that still departs at end of life), 1 spreads arrivals
    across the whole horizon.  Lifetimes are exponential with mean
    ``mean_lifetime_us`` (floored at ``min_lifetime_us`` so every
    tenant completes a measurable amount of work).
    """

    def __init__(
        self,
        tenants: int,
        horizon_us: float,
        classes: Sequence[TenantClass] = DEFAULT_TENANT_CLASSES,
        skew: float = 0.9,
        churn: float = 0.5,
        mean_lifetime_us: Optional[float] = None,
        min_lifetime_us: float = 20_000.0,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ):
        if tenants <= 0:
            raise ValueError("tenant count must be positive")
        if horizon_us <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if not classes:
            raise ValueError("at least one tenant class required")
        self.tenants = tenants
        self.horizon_us = horizon_us
        self.classes = tuple(classes)
        self.skew = skew
        self.churn = churn
        self.mean_lifetime_us = (
            mean_lifetime_us if mean_lifetime_us is not None else horizon_us / 4.0
        )
        self.min_lifetime_us = min_lifetime_us
        self.rng = rng or random.Random(seed)
        self._class_zipf = (
            ZipfianGenerator(len(self.classes), theta=skew, rng=self.rng)
            if len(self.classes) > 1
            else None
        )

    def _pick(self, options: Sequence, zipf: Optional[ZipfianGenerator]) -> object:
        if len(options) == 1:
            return options[0]
        assert zipf is not None
        return options[zipf.next_rank() % len(options)]

    def generate(self) -> List[TenantSpec]:
        """The full population, sorted by arrival time."""
        rng = self.rng
        option_zipf = ZipfianGenerator(64, theta=self.skew, rng=rng)
        arrival_window = self.churn * self.horizon_us
        rate = self.tenants / arrival_window if arrival_window > 0 else 0.0
        clock = 0.0
        specs: List[TenantSpec] = []
        for index in range(self.tenants):
            if rate > 0.0 and index > 0:
                clock = min(arrival_window, clock + rng.expovariate(rate))
            cls = (
                self.classes[self._class_zipf.next_rank() % len(self.classes)]
                if self._class_zipf is not None
                else self.classes[0]
            )
            record_count = self._pick(cls.record_counts, option_zipf)
            concurrency = self._pick(cls.concurrencies, option_zipf)
            lifetime = max(
                self.min_lifetime_us, rng.expovariate(1.0 / self.mean_lifetime_us)
            )
            # Every tenant departs within the horizon, so the rack
            # drains and reclamation can be checked end to end.
            lifetime = min(lifetime, max(self.min_lifetime_us, self.horizon_us - clock))
            specs.append(
                TenantSpec(
                    name=f"t{index:04d}-{cls.name}",
                    tenant_class=cls.name,
                    workload=cls.workload,
                    record_count=record_count,
                    concurrency=concurrency,
                    arrival_us=clock,
                    lifetime_us=lifetime,
                )
            )
        specs.sort(key=lambda spec: (spec.arrival_us, spec.name))
        return specs


def peak_concurrent(specs: Sequence[TenantSpec]) -> int:
    """Maximum number of tenants alive at once (rack occupancy peak)."""
    events = []
    for spec in specs:
        events.append((spec.arrival_us, 1))
        events.append((spec.departure_us, -1))
    events.sort()
    alive = peak = 0
    for _, delta in events:
        alive += delta
        peak = max(peak, alive)
    return peak
