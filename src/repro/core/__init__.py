"""Gimbal: the software storage switch (the paper's contribution).

The switch is assembled from four mechanisms, one module each:

* :mod:`repro.core.congestion` -- delay-based SSD congestion control
  with dynamic latency-threshold scaling (Section 3.2, Algorithm 1's
  ``update_latency``).
* :mod:`repro.core.rate_control` -- the rate pacing engine and the
  dual token bucket that splits tokens between reads and writes by the
  current write cost (Section 3.3, Algorithm 4).
* :mod:`repro.core.write_cost` -- the ADMI (additive-decrease,
  multiplicative-increase) write-cost estimator (Section 3.4).
* :mod:`repro.core.scheduler` -- the two-level hierarchical DRR
  scheduler over virtual slots with per-tenant priority queues
  (Section 3.5, Algorithm 2), built on
  :mod:`repro.core.virtual_slot`.

:class:`~repro.core.switch.GimbalScheduler` wires them together behind
the generic :class:`~repro.baselines.base.StorageScheduler` interface
and adds the credit computation for the end-to-end flow control
(Section 3.6), whose grant is the per-SSD virtual view (Section 3.7)
clients see.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 5(c) retires it.
from repro.core.switch import GimbalScheduler  # noqa: F401
