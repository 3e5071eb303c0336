"""Rate pacing engine with a dual token bucket (Section 3.3, Alg 1 & 4).

Window-based control does not fit SSDs: the same outstanding-byte
window yields wildly different bandwidths across IO mixes, and the
device's internal write buffer absorbs bursts in a way that inflates a
window.  Gimbal instead paces *submission rate* with a token bucket,
adjusting the target rate on every completion:

* congestion avoidance  -> probe up by the completed IO's size,
* congested             -> back off by the completed IO's size,
* under-utilised        -> probe aggressively (beta x size) so the rate
  recovers within a second after a workload shift (CUBIC/TIMELY-style),
* overloaded            -> snap the target to the measured completion
  rate, shed a little more, and discard buffered tokens to kill the
  burst.

The bucket is *dual*: tokens split between a read and a write bucket in
the ratio ``write_cost : 1`` so a write-heavy phase cannot burst at the
(much higher) aggregate rate; overflow spills to the other bucket
(Appendix C.1, Algorithm 4).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.core.config import GimbalParams
from repro.core.congestion import (
    STATE_CONGESTED,
    STATE_CONGESTION_AVOIDANCE,
    STATE_OVERLOADED,
    CongestionState,
)
from repro.ssd.commands import OP_READ, IoOp


class CompletionRateMeter:
    """Sliding-window measurement of the device's completion rate."""

    def __init__(self, window_us: float):
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self._events: Deque[Tuple[float, int]] = deque()
        self._bytes_in_window = 0

    def record(self, now_us: float, nbytes: int) -> None:
        events = self._events
        events.append((now_us, nbytes))
        self._bytes_in_window += nbytes
        # The event just added is inside the window, so eviction stops
        # before the deque runs empty.
        horizon = now_us - self.window_us
        while events[0][0] < horizon:
            self._bytes_in_window -= events.popleft()[1]


class DualTokenBucket:
    """Separate read/write buckets fed from one target rate (Algorithm 4)."""

    def __init__(self, params: GimbalParams):
        self.max_tokens = params.bucket_max_tokens
        self.read_tokens = self.max_tokens
        self.write_tokens = self.max_tokens
        self._last_update_us = 0.0
        # Observability counters: how often the bucket gated admission
        # and how often the overload path discarded buffered tokens.
        self.denials = 0
        self.discards = 0

    def update(self, now_us: float, target_rate: float, write_cost: float) -> None:
        """Generate tokens since the last update and split them by cost."""
        elapsed = now_us - self._last_update_us
        self._last_update_us = now_us
        if elapsed <= 0:
            return
        available = target_rate * elapsed
        max_tokens = self.max_tokens
        read_tokens = self.read_tokens + available * (write_cost / (1.0 + write_cost))
        write_tokens = self.write_tokens + available * (1.0 / (1.0 + write_cost))
        # Overflow spills to the sibling bucket, then truncates.
        if read_tokens > max_tokens:
            write_tokens += read_tokens - max_tokens
            read_tokens = max_tokens
        if write_tokens > max_tokens:
            read_tokens += write_tokens - max_tokens
            if read_tokens > max_tokens:
                read_tokens = max_tokens
            write_tokens = max_tokens
        self.read_tokens = read_tokens
        self.write_tokens = write_tokens

    def consume(self, op: IoOp, nbytes: int) -> None:
        # Trims ride the write path (dataset management); reads have
        # their own bucket.
        if op is OP_READ:
            if self.read_tokens < nbytes:
                raise ValueError("insufficient tokens")
            self.read_tokens -= nbytes
        else:
            if self.write_tokens < nbytes:
                raise ValueError("insufficient tokens")
            self.write_tokens -= nbytes

    def discard(self) -> None:
        """Drop buffered tokens (overloaded state: avoid a burst)."""
        self.read_tokens = 0.0
        self.write_tokens = 0.0
        self.discards += 1


class RateController:
    """Owns the target submission rate (Algorithm 1's ``Completion``)."""

    def __init__(self, params: GimbalParams):
        self.params = params
        self.target_rate = params.initial_rate_bytes_per_us
        self.meter = CompletionRateMeter(params.completion_rate_window_us)
        # The headroom clamp needs a steadier estimate than the snap
        # meter: a 10 ms window holds only 2-3 completions of 128 KiB
        # at low rates, and clamping multiplicatively against that much
        # sampling noise random-walks the rate into the floor.
        self.clamp_meter = CompletionRateMeter(4.0 * params.completion_rate_window_us)
        self.bucket = DualTokenBucket(params)

    def on_completion(
        self,
        now_us: float,
        op: IoOp,
        nbytes: int,
        state: CongestionState,
        overall_state: CongestionState = None,
    ) -> None:
        """Adjust the target rate for one completed IO in ``state``.

        ``overall_state`` is the more-loaded of the two IO-type
        monitors; the headroom clamp only engages once *some* IO type
        shows congestion pressure -- while everything is under-utilised
        the paper's aggressive probing must run unconstrained.
        """
        params = self.params
        if overall_state is None:
            overall_state = state
        # ``record`` on both meters, sharing the one sample; each window
        # is evicted here, so the rates below read it as is.
        sample = (now_us, nbytes)
        meter = self.meter
        clamp_meter = self.clamp_meter
        for each in (meter, clamp_meter):
            events = each._events
            events.append(sample)
            in_window = each._bytes_in_window + nbytes
            horizon = now_us - each.window_us
            while events[0][0] < horizon:
                in_window -= events.popleft()[1]
            each._bytes_in_window = in_window
        # The paper adjusts the rate "by the IO completion size"; rates
        # here are bytes/us, so the size is normalised by the completion
        # window to give a rate delta of the same flavour (one window's
        # worth of that IO).
        step = nbytes / params.completion_rate_window_us
        if state is STATE_OVERLOADED:
            # Snap below the device's measured service rate and kill
            # any buffered burst; incremental steps cannot converge
            # when the workload mix shifted under us.
            self.bucket.discard()
            target = meter._bytes_in_window / meter.window_us - step
        elif state is STATE_CONGESTED:
            target = self.target_rate - step
        elif state is STATE_CONGESTION_AVOIDANCE:
            target = self.target_rate + step
        else:  # UNDERUTILIZED: probe aggressively.
            target = self.target_rate + params.beta * step
        # Keep the target tethered to reality: at most ``headroom`` x
        # the measured completion rate (see GimbalParams for rationale).
        if overall_state >= STATE_CONGESTION_AVOIDANCE:
            measured = clamp_meter._bytes_in_window / clamp_meter.window_us
            if measured > 0:
                ceiling = measured * params.completion_headroom
                if ceiling < target:
                    target = ceiling
        if target < params.min_rate_bytes_per_us:
            target = params.min_rate_bytes_per_us
        elif target > params.max_rate_bytes_per_us:
            target = params.max_rate_bytes_per_us
        self.target_rate = target

    def metrics(self) -> dict:
        """The pacing engine's live state."""
        bucket = self.bucket
        return {
            "target_bytes_per_us": self.target_rate,
            "read_tokens": bucket.read_tokens,
            "write_tokens": bucket.write_tokens,
            "bucket_denials": bucket.denials,
            "bucket_discards": bucket.discards,
        }
