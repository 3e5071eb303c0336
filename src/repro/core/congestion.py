"""Delay-based SSD congestion control (paper Section 3.2, Algorithm 1).

Gimbal treats the SSD as a networked black box and uses IO *latency*
(not derived bandwidth -- the device's opaque internal parallelism
makes bandwidth misleading) as the congestion signal.  Each IO type
has its own :class:`LatencyMonitor` because reads and writes sit at
very different latency operating points.

The dynamic threshold works like Reno applied to the threshold itself:

* while the EWMA latency sits below the threshold, the threshold decays
  toward the EWMA (``thresh -= alpha_T * (thresh - ewma)``), arming the
  detector close to the current operating point;
* when the EWMA crosses the threshold, a *congested* signal fires and
  the threshold jumps to the midpoint of itself and ``thresh_max``;
* EWMA above ``thresh_max`` means *overloaded*; below ``thresh_min``
  means *under-utilised* (the device has headroom to probe for).
"""

from __future__ import annotations

import enum

from repro.core.config import GimbalParams
from repro.metrics.ewma import Ewma


class CongestionState(enum.IntEnum):
    """The four states of Section 3.3, ordered (and comparable) by
    increasing load."""

    UNDERUTILIZED = 0
    CONGESTION_AVOIDANCE = 1
    CONGESTED = 2
    OVERLOADED = 3


#: The members as module globals, for the reason ``repro.ssd.commands``
#: gives for ``OP_*``: the switch tests a state several times per IO.
STATE_UNDERUTILIZED = CongestionState.UNDERUTILIZED
STATE_CONGESTION_AVOIDANCE = CongestionState.CONGESTION_AVOIDANCE
STATE_CONGESTED = CongestionState.CONGESTED
STATE_OVERLOADED = CongestionState.OVERLOADED


class LatencyMonitor:
    """EWMA latency tracking plus dynamic threshold for one IO type."""

    def __init__(self, params: GimbalParams):
        self.params = params
        self.ewma = Ewma(alpha=params.alpha_d)
        # Start mid-range: low enough to detect early congestion, high
        # enough not to cry wolf on the first samples.
        self.threshold = (params.thresh_min_us + params.thresh_max_us) / 2.0
        self.state = STATE_UNDERUTILIZED
        self.signals = {state: 0 for state in CongestionState}
        #: State changes observed (observability; transitions are also
        #: journalled by the switch when tracing is enabled).
        self.transitions = 0

    @property
    def ewma_latency_us(self) -> float:
        return self.ewma.value

    def observe(self, latency_us: float) -> CongestionState:
        """Fold in one completion latency; return the congestion state.

        This is Algorithm 1's ``update_latency`` verbatim, with the
        threshold clamped to [thresh_min, thresh_max] so prolonged idle
        periods cannot push it below the congestion-free floor.
        """
        params = self.params
        thresh_min = params.thresh_min_us
        thresh_max = params.thresh_max_us
        # ``Ewma.update``, folded in.
        average = self.ewma
        ewma = average._value
        if ewma is None:
            ewma = float(latency_us)
        else:
            ewma += average.alpha * (latency_us - ewma)
        average._value = ewma
        threshold = self.threshold
        if ewma > thresh_max:
            threshold = thresh_max
            state = STATE_OVERLOADED
        elif ewma > threshold:
            threshold = (threshold + thresh_max) / 2.0
            state = STATE_CONGESTED
        else:
            threshold -= params.alpha_t * (threshold - ewma)
            if ewma > thresh_min:
                state = STATE_CONGESTION_AVOIDANCE
            else:
                state = STATE_UNDERUTILIZED
        if threshold < thresh_min:
            threshold = thresh_min
        elif threshold > thresh_max:
            threshold = thresh_max
        self.threshold = threshold
        if state is not self.state:
            self.transitions += 1
            self.state = state
        self.signals[state] += 1
        return state

    def metrics(self) -> dict:
        """This monitor's live state."""
        out = {
            "ewma_us": self.ewma.value,
            "threshold_us": self.threshold,
            "state": self.state.name,
            "transitions": self.transitions,
        }
        for state in CongestionState:
            out[f"signals.{state.name.lower()}"] = self.signals[state]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyMonitor(ewma={self.ewma.value:.0f}us, "
            f"thresh={self.threshold:.0f}us, state={self.state.name})"
        )
