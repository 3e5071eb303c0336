"""Comparison schemes (paper Section 5.1).

All four target-side scheduling policies share the interface in
:mod:`repro.baselines.base` and plug into the per-SSD pipeline:

* :class:`~repro.baselines.fifo.FifoScheduler` -- vanilla SPDK target:
  pass-through, no isolation (the "vanilla" rows of the evaluation).
* :class:`~repro.baselines.reflex.ReflexScheduler` -- ReFlex's request
  cost model (static, offline-calibrated) with token-paced round-robin.
* :class:`~repro.baselines.flashfq.FlashFqScheduler` -- FlashFQ's
  start-time fair queueing with a linear cost model and throttled
  dispatch.
* Parda has no target-side component: it is the vanilla target plus
  :class:`~repro.fabric.policies.PardaClientPolicy` at the client.

Gimbal itself lives in :mod:`repro.core`.
"""
