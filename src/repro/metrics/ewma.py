"""Exponentially weighted moving average.

Gimbal smooths observed IO latencies with an EWMA before comparing
them against the congestion thresholds (Section 3.2 of the paper);
``alpha`` is the paper's alpha_D and weighs the *newest* sample.
"""

from __future__ import annotations

from typing import Optional


class Ewma:
    """``value = (1 - alpha) * value + alpha * sample``.

    The first sample initialises the average directly, which matches
    how a latency monitor behaves at start-of-day (there is no
    meaningful prior to decay from).
    """

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: Optional[float] = None

    @property
    def value(self) -> float:
        """Current average; 0.0 before any sample has been observed."""
        return self._value if self._value is not None else 0.0

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def update(self, sample: float) -> float:
        """Fold in one observation and return the new average."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ewma(alpha={self.alpha}, value={self.value:.3f})"
