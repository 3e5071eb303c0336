"""Gimbal reproduction: multi-tenant storage disaggregation on SmartNIC JBOFs.

This package reproduces the system described in "Gimbal: Enabling
Multi-tenant Storage Disaggregation on SmartNIC JBOFs" (SIGCOMM 2021)
on top of a discrete-event simulation of the hardware substrate the
paper's prototype ran on: NVMe SSDs (NAND channels, FTL, garbage
collection, write buffer), SmartNIC cores, and an RDMA-shaped NVMe-oF
fabric.

The package layout mirrors the system inventory in DESIGN.md:

``repro.sim``
    Discrete-event simulation kernel (clock, event heap, RNG streams).
``repro.metrics``
    EWMA, latency histograms, windowed throughput, fairness metrics.
``repro.ssd``
    The SSD device model and device profiles.
``repro.fabric``
    Network, RDMA-shaped transport, NVMe-oF initiator/target, SmartNIC,
    and NVMe namespaces (per-tenant LBA windows onto an SSD device).
``repro.core``
    The Gimbal storage switch (the paper's contribution).
``repro.baselines``
    ReFlex, Parda, FlashFQ and a vanilla FIFO target.
``repro.workloads``
    fio-like synthetic workers and the YCSB generator.
``repro.kv``
    LSM-tree key-value store over a blobstore (the RocksDB case study).
``repro.harness``
    Testbed construction and the per-figure/table experiment drivers.
"""
