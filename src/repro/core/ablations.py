"""Ablation variants of the Gimbal switch.

DESIGN.md calls out four load-bearing design choices; each variant
here disables exactly one so the benchmark suite can show why the
paper's choice matters:

* :class:`FixedThresholdGimbal` -- replaces the dynamic latency
  threshold with the paper's first attempt, a fixed 2 ms threshold
  (Section 3.2 reports it "cannot capture the congestion for small
  IOs promptly").
* :class:`SingleBucketGimbal` -- one shared token bucket instead of
  the read/write dual bucket (Appendix C.1: the single bucket submits
  writes at the aggregate rate and causes severe latency increments).
* :class:`NoSlotGimbal` -- plain byte-quantum DRR without virtual
  slots (Section 3.5: outstanding-byte accounting misses the internal
  queue occupancy difference between 1x128 KiB and 32x4 KiB).
* :class:`StaticWriteCostGimbal` -- the write cost frozen at the
  worst case (the ReFlex failure mode on clean devices).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import GimbalParams
from repro.core.congestion import (
    STATE_CONGESTED,
    STATE_CONGESTION_AVOIDANCE,
    STATE_OVERLOADED,
    STATE_UNDERUTILIZED,
    CongestionState,
    LatencyMonitor,
)
from repro.core.rate_control import DualTokenBucket
from repro.core.switch import GimbalScheduler
from repro.ssd.commands import OP_READ, OP_WRITE, IoOp


class FixedThresholdMonitor(LatencyMonitor):
    """Latency monitor with a fixed congestion threshold."""

    def __init__(self, params: GimbalParams, fixed_threshold_us: float = 2000.0):
        super().__init__(params)
        self.threshold = fixed_threshold_us
        self._fixed = fixed_threshold_us

    def observe(self, latency_us: float) -> CongestionState:
        params = self.params
        ewma = self.ewma.update(latency_us)
        if ewma > params.thresh_max_us and params.thresh_max_us > self._fixed:
            state = STATE_OVERLOADED
        elif ewma > self._fixed:
            state = STATE_CONGESTED
        elif ewma > params.thresh_min_us:
            state = STATE_CONGESTION_AVOIDANCE
        else:
            state = STATE_UNDERUTILIZED
        if state is not self.state:
            self.transitions += 1
        self.state = state
        self.signals[state] += 1
        return state


class FixedThresholdGimbal(GimbalScheduler):
    """Gimbal minus the dynamic threshold scaling."""

    name = "gimbal-fixed-threshold"

    def __init__(
        self, params: Optional[GimbalParams] = None, fixed_threshold_us: float = 2000.0
    ):
        super().__init__(params)
        self.monitors = {
            OP_READ: FixedThresholdMonitor(self.params, fixed_threshold_us),
            OP_WRITE: FixedThresholdMonitor(self.params, fixed_threshold_us),
        }


class SingleTokenBucket(DualTokenBucket):
    """One shared pool behind the dual-bucket interface."""

    def update(self, now_us: float, target_rate: float, write_cost: float) -> None:
        elapsed = now_us - self._last_update_us
        self._last_update_us = now_us
        if elapsed <= 0:
            return
        pool = min(
            self.read_tokens + target_rate * elapsed, 2 * self.max_tokens
        )
        # Mirror the pool through both "buckets" so consumers see one
        # shared allowance regardless of IO type.
        self.read_tokens = pool
        self.write_tokens = pool

    def consume(self, op: IoOp, nbytes: int) -> None:
        if self.read_tokens < nbytes:
            raise ValueError("insufficient tokens")
        self.read_tokens -= nbytes
        self.write_tokens = self.read_tokens

    def discard(self) -> None:
        self.read_tokens = 0.0
        self.write_tokens = 0.0


class SingleBucketGimbal(GimbalScheduler):
    """Gimbal minus the dual token bucket."""

    name = "gimbal-single-bucket"

    def __init__(self, params: Optional[GimbalParams] = None):
        super().__init__(params)
        self.rate.bucket = SingleTokenBucket(self.params)


class NoSlotGimbal(GimbalScheduler):
    """Gimbal minus virtual slots (plain byte-quantum DRR)."""

    name = "gimbal-no-slots"

    def __init__(self, params: Optional[GimbalParams] = None):
        super().__init__(params)
        # A limit no tenant can reach: slots never defer anyone.
        self.drr.slot_limit = 1 << 30
        self.drr._recompute_slot_limit = lambda: None  # type: ignore[method-assign]


class StaticWriteCostGimbal(GimbalScheduler):
    """Gimbal minus dynamic write-cost calibration (frozen worst case)."""

    name = "gimbal-static-cost"

    def __init__(self, params: Optional[GimbalParams] = None):
        super().__init__(params)
        self.write_cost.observe_write_latency = (  # type: ignore[method-assign]
            lambda now_us, latency_us: self.write_cost.cost
        )


ABLATIONS = {
    "full": GimbalScheduler,
    "fixed-threshold": FixedThresholdGimbal,
    "single-bucket": SingleBucketGimbal,
    "no-slots": NoSlotGimbal,
    "static-cost": StaticWriteCostGimbal,
}
