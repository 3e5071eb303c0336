"""NVMe-oF fabric: network, SmartNIC cores, target and initiator.

This package models the five-step NVMe-over-RDMA request flow of paper
Section 2.1 -- command capsule SEND, RDMA_READ of write data, device
execution, RDMA_WRITE of read data, response capsule SEND -- on top of
a 100 Gbps link model and a SmartNIC whose wimpy cores are explicit
FCFS resources with per-IO processing budgets (Sections 2.2/2.4).

The per-SSD pipeline accepts any *storage scheduler* implementing the
small interface in :mod:`repro.baselines.base`; Gimbal and the three
comparison schemes all plug in there.  Client-side flow control
(Gimbal's credit protocol, Parda's latency-driven window) plugs into
the initiator via :mod:`repro.fabric.policies`.  Tenants address their
SSD through :mod:`repro.fabric.namespace`: NVMe namespaces give
independent addressing but no physical isolation (Section 2.3).
"""
