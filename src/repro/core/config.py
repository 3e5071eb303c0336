"""Gimbal's tunable parameters (paper Section 4.2).

Defaults follow the paper's published values for the Samsung DCT983:
Thresh_min 250 us, Thresh_max 1500 us, alpha_T = alpha_D = 2^-1,
beta = 8, 128 KiB virtual slots with a threshold of 8 slots per
single tenant, worst-case write cost 9.  Section 5.8 retunes
Thresh_max to 3 ms for the Intel P3600.

One deviation: the additive write-cost decrement defaults to 0.25
(paper: 0.5) because our estimator updates every 10 ms; the paper's
update period is unspecified, and the published decrement at this
cadence lets write floods recur faster than their latency damage
drains on the simulated device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.sim.units import KB, mbps


@dataclass(frozen=True)
class GimbalParams:
    """Every knob of the storage switch in one place."""

    # -- delay-based congestion control (Section 3.2) --
    thresh_min_us: float = 250.0
    thresh_max_us: float = 1500.0
    #: EWMA weight for observed latency (paper alpha_D = 2^-1).
    alpha_d: float = 0.5
    #: Threshold decay toward the EWMA (paper alpha_T = 2^-1).
    alpha_t: float = 0.5

    # -- rate control engine (Section 3.3) --
    #: Probe acceleration in the under-utilised state (paper beta = 8).
    beta: float = 8.0
    initial_rate_bytes_per_us: float = mbps(400.0)
    min_rate_bytes_per_us: float = mbps(4.0)
    max_rate_bytes_per_us: float = mbps(7000.0)
    #: Window for the completion-rate measurement used by the
    #: overloaded-state reset.
    completion_rate_window_us: float = 10_000.0
    #: Cap on how far the target rate may run ahead of the measured
    #: completion rate.  The paper resets the rate to the completion
    #: rate only in the overloaded state; this continuous guard keeps
    #: the token buckets binding when virtual slots (not tokens) are
    #: the active limiter, otherwise the rate random-walks upward and
    #: bucket overflow hands the surplus to the cheaper IO type.
    completion_headroom: float = 1.5
    #: Dual-token-bucket capacity (Appendix C.1: 256 KiB empirically).
    bucket_max_tokens: float = 256.0 * KB

    # -- write cost estimation (Section 3.4) --
    write_cost_worst: float = 9.0
    #: Additive decrement delta.
    write_cost_delta: float = 0.25
    #: Minimum spacing between cost updates.
    write_cost_period_us: float = 10_000.0

    # -- virtual slots and DRR (Section 3.5) --
    #: A slot groups IOs up to this many bytes (the de facto max IO size).
    slot_bytes: int = 128 * KB
    #: Slots granted to a single tenant running alone (8 x 128 KiB
    #: sequential reads reach full bandwidth on the DCT983).
    slot_threshold: int = 8
    #: DRR quantum added per round-robin visit.
    quantum_bytes: int = 128 * KB

    # -- end-to-end credit flow control (Section 3.6) --
    #: Credits granted before the first slot completes.
    initial_slot_io_count: int = 8

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below unrefused, and an
        # infinite knob stalls the pacing pump, so refuse both first.
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not math.isfinite(value):
                raise ValueError(f"{knob.name} must be finite, got {value!r}")
        if not 0 < self.thresh_min_us < self.thresh_max_us:
            raise ValueError("need 0 < thresh_min < thresh_max")
        for name in ("alpha_d", "alpha_t"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.write_cost_worst < 1.0:
            raise ValueError("worst-case write cost must be >= 1")
        if self.write_cost_delta <= 0:
            raise ValueError("write_cost_delta must be positive")
        if self.write_cost_period_us < 0:
            raise ValueError("write_cost_period_us must be non-negative")
        if self.completion_headroom < 1.0:
            raise ValueError("completion_headroom must be >= 1")
        if self.bucket_max_tokens <= 0:
            raise ValueError("bucket_max_tokens must be positive")
        if self.completion_rate_window_us <= 0:
            raise ValueError("completion_rate_window_us must be positive")
        if self.initial_slot_io_count < 1:
            raise ValueError("initial_slot_io_count must be >= 1")
        if self.slot_bytes <= 0 or self.slot_threshold <= 0 or self.quantum_bytes <= 0:
            raise ValueError("slot/quantum sizes must be positive")
        if not 0 < self.min_rate_bytes_per_us <= self.initial_rate_bytes_per_us <= self.max_rate_bytes_per_us:
            raise ValueError("need min_rate <= initial_rate <= max_rate")


#: Section 5.8: the Intel P3600 shows higher (and more variable) read
#: tail latency, so two knobs are retuned the way Section 4.2
#: prescribes per device: Thresh_max to 3 ms, and the single-tenant
#: virtual-slot threshold to 32 -- a slot only frees when its slowest
#: IO completes, so a device with fatter read tails needs more slots
#: outstanding to ride out stragglers.
P3600_PARAMS = GimbalParams(thresh_max_us=3000.0, slot_threshold=32)
