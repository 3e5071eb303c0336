"""Workload generation: fio-style synthetic streams and YCSB.

:mod:`repro.workloads.fio` reimplements the slice of fio the paper's
microbenchmarks use -- closed-loop workers with a queue depth, an IO
size, a read/write mix, random or sequential addressing, and optional
rate caps.  :mod:`repro.workloads.ycsb` provides the YCSB core
workloads (A/B/C/D/F) over a Zipfian request distribution for the
RocksDB case study.
"""

from repro.workloads.fio import FioSpec, FioWorker
from repro.workloads.patterns import AddressRegion, RandomPattern, SequentialPattern
from repro.workloads.population import (
    DEFAULT_TENANT_CLASSES,
    TenantClass,
    TenantPopulation,
    TenantSpec,
    peak_concurrent,
)
from repro.workloads.ycsb import (
    YCSB_WORKLOADS,
    YcsbOp,
    YcsbSpec,
    YcsbWorkloadGenerator,
    ZipfianGenerator,
)

__all__ = [
    "DEFAULT_TENANT_CLASSES",
    "TenantClass",
    "TenantPopulation",
    "TenantSpec",
    "peak_concurrent",
    "FioSpec",
    "FioWorker",
    "AddressRegion",
    "RandomPattern",
    "SequentialPattern",
    "ZipfianGenerator",
    "YcsbOp",
    "YcsbSpec",
    "YcsbWorkloadGenerator",
    "YCSB_WORKLOADS",
]
