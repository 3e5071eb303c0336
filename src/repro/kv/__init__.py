"""LSM key-value store over a blobstore (the paper's RocksDB case study).

Section 4.3 ports RocksDB onto a blobstore filesystem spread over a
pool of NVMe-oF backends, with three Gimbal-aware optimisations:

* a **hierarchical blob allocator** (rack-level mega blobs, local
  micro blobs) that picks the least-loaded SSD by credit
  (:mod:`repro.kv.allocator`),
* an **IO rate limiter** driven by the credit-based flow control
  (inherent in the tenant sessions' :class:`CreditClientPolicy`, with
  an explicit outstanding-IO limiter for non-Gimbal configurations;
  :mod:`repro.kv.backend`),
* a **replicated blobstore with a read load balancer** that steers
  each read to the replica whose SSD currently advertises more credit
  (:mod:`repro.kv.blobstore`).

:mod:`repro.kv.lsm` implements the log-structured merge tree itself
(memtable, sorted-run SSTables, levelled compaction, bloom-filtered
reads), and :mod:`repro.kv.runner` drives it with YCSB workloads.
"""
