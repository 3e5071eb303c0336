"""Workload generation: fio-style synthetic streams and YCSB.

:mod:`repro.workloads.fio` reimplements the slice of fio the paper's
microbenchmarks use -- closed-loop workers with a queue depth, an IO
size, reads or writes, random or sequential addressing, and optional
rate caps.  :mod:`repro.workloads.ycsb` provides the YCSB core
workloads (A/B/C/D/F) over a Zipfian request distribution for the
RocksDB case study.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 5(c) retires it.
from repro.workloads.fio import FioSpec  # noqa: F401
