"""Calibration loop and the slice/bracket protocol behind ``norm_wall``.

Raw wall seconds on a shared box drift by tens of percent between
back-to-back runs of the same commit, so the ledger reports host time
in *calibration units* (cu): every timed slice is divided by the mean
wall time of the two calibration runs that bracket it.  The loop below
is fixed work in pure Python (heap pushes/pops, dict stores, integer
arithmetic -- the same interpreter paths a discrete-event kernel
exercises) and imports nothing from ``repro``: a change to the program
under test cannot move the unit it is measured in.

``python -m benchmarks.ledger.calibrate`` is the self-check: it measures
every workload three times back to back and prints the spread of
``norm_wall``, so the bound in ``BENCHMARK.json`` is demonstrated on the
machine at hand rather than assumed.
"""

from __future__ import annotations

import statistics
import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Loop trips per calibration round, and rounds per calibration (about
#: 0.08 s in all on the recording box).
CAL_ITERATIONS = 40_000
CAL_ROUNDS = 3


def calibration_loop(iterations: int = CAL_ITERATIONS) -> int:
    """Fixed heap/dict work; returns a checksum so nothing is elided."""
    heap: list = []
    table: dict = {}
    state = 12345
    checksum = 0
    for index in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (state, index))
        table[state & 1023] = index
        if len(heap) > 64:
            checksum += heappop(heap)[0] & 0xFF
    return checksum + len(table)


def calibrate() -> float:
    """Wall seconds of one calibration: the fastest of ``CAL_ROUNDS``
    rounds, times the rounds.

    A blip that hits one round is not the machine's speed, while a slow
    spell that lasts a slice slows every round.  It matters most where a
    repetition is a single slice (``kv-rack``): two inflated one-round
    calibrations made such a repetition read 25 % fast.
    """
    best = float("inf")
    for _ in range(CAL_ROUNDS):
        start = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - start)
    return best * CAL_ROUNDS


#: A slice is followed by enough calibrations to take this share of its
#: wall time (at least one, at most ``MAX_CALIBRATIONS``).
CALIBRATION_SHARE = 0.1
MAX_CALIBRATIONS = 6


class Bracket:
    """Timed slices, each bracketed by calibration runs.

    ``cal, slice, cal, slice, ..., cal``: slice *i* is normalised by the
    mean of the calibrations on either side of it, so a slow spell of
    the machine inflates numerator and denominator together.  A short
    slice is followed by one calibration; a long one (``kv-rack`` is a
    single 3 s slice per repetition) by several, because with only two
    0.08 s readings under it the normaliser is the noisier half of the
    ratio.
    """

    def __init__(self) -> None:
        self.calibrations: List[List[float]] = [[calibrate()]]
        self.slices: List[float] = []

    def timed(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` as one timed slice, then calibrate."""
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
        self.slices.append(wall)
        readings = [calibrate()]
        rounds = min(MAX_CALIBRATIONS, int(wall * CALIBRATION_SHARE / readings[0]))
        readings.extend(calibrate() for _ in range(rounds - 1))
        self.calibrations.append(readings)
        return out

    def pairs(self) -> List[Tuple[float, float]]:
        """``(slice wall, mean of the adjacent calibration walls)``."""
        cal = self.calibrations
        return [
            (wall, statistics.fmean(cal[index] + cal[index + 1]))
            for index, wall in enumerate(self.slices)
        ]

    def norm_wall(self) -> float:
        """Host time of all slices, in calibration units."""
        return sum(wall / cal for wall, cal in self.pairs())


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (the contract's
    steadiness measure); 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def main(argv: List[str]) -> int:
    """Three back-to-back sets per workload; print norm_wall's spread."""
    from benchmarks.ledger import run
    from benchmarks.ledger.metrics import bound_of

    seconds = float(argv[0]) if argv else run.DEFAULT_SECONDS
    worst = 0.0
    for name in run.WORKLOAD_NAMES:
        values = [
            run.measure(name, seed=42, seconds=seconds)["metrics"]["norm_wall"]["value"]
            for _ in range(3)
        ]
        share = (max(values) - min(values)) / statistics.median(values)
        worst = max(worst, share)
        print(
            f"{name:13s} norm_wall "
            + " ".join(f"{value:.2f}" for value in values)
            + f" cu  (max-min)/median = {share:.1%}"
        )
    bound = bound_of("norm_wall")
    print(f"worst spread {worst:.1%} against a bound of {bound:.0%}")
    return 0 if worst <= bound else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
