"""Dynamic write-cost estimation (paper Section 3.4).

The *write cost* is the ratio between achieved read and write
bandwidth -- how many read-equivalents one written byte consumes.  It
cannot be read from the device, so Gimbal calibrates it online in an
ADMI (additive-decrease / multiplicative-increase) fashion keyed off
write latency:

* while the write EWMA latency stays below ``thresh_min`` the device is
  absorbing writes in its DRAM buffer, so the cost steps *down* by
  ``delta`` (all the way to 1.0 -- writes are then as cheap as reads);
* the moment write latency rises, the cost jumps to the midpoint of
  the current value and the worst case, converging quickly to the
  pre-calibrated worst case under sustained pressure.
"""

from __future__ import annotations

from repro.core.config import GimbalParams

class WriteCostEstimator:
    """Tracks the current write cost in [1.0, write_cost_worst]."""

    def __init__(self, params: GimbalParams):
        self.params = params
        self.worst = params.write_cost_worst
        self.cost = params.write_cost_worst
        self._last_update_us = float("-inf")
        self.updates = 0

    def observe_write_latency(self, now_us: float, write_ewma_latency_us: float) -> float:
        """Periodic ADMI update; returns the (possibly unchanged) cost."""
        if now_us - self._last_update_us < self.params.write_cost_period_us:
            return self.cost
        self._last_update_us = now_us
        self.updates += 1
        if write_ewma_latency_us < self.params.thresh_min_us:
            self.cost = max(1.0, self.cost - self.params.write_cost_delta)
        else:
            self.cost = (self.cost + self.worst) / 2.0
        return self.cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteCostEstimator(cost={self.cost:.2f}, worst={self.worst})"
