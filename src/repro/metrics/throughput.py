"""Throughput accounting: totals and time series.

Two tools:

* :class:`ThroughputMonitor` -- accumulate (time, bytes, ops) events
  and report aggregate bandwidth/IOPS over an interval, exactly the
  quantities Figures 4, 6, 7 and 19-21 plot.
* :class:`IntervalSeries` -- bucket observations into fixed windows to
  produce the timeline plots (Figures 9, 17, 18).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.units import MBPS


class ThroughputMonitor:
    """Counts bytes and operations between ``start()`` and a query point.

    A warm-up period is handled by calling :meth:`start` once the
    system has reached steady state; everything recorded before that is
    discarded from the totals.
    """

    def __init__(self) -> None:
        self.start_time: Optional[float] = None
        self.bytes = 0
        self.ops = 0

    def start(self, now_us: float) -> None:
        """Begin (or restart) the measurement window at ``now_us``."""
        self.start_time = now_us
        self.bytes = 0
        self.ops = 0

    def record(self, now_us: float, nbytes: int) -> None:
        """Record one completed operation of ``nbytes`` at ``now_us``."""
        if self.start_time is None or now_us < self.start_time:
            return
        self.bytes += nbytes
        self.ops += 1

    def bandwidth_mbps(self, now_us: float) -> float:
        """Average bandwidth in MB/s over the measurement window."""
        if self.start_time is None:
            return 0.0
        elapsed = now_us - self.start_time
        if elapsed <= 0:
            return 0.0
        return (self.bytes / elapsed) / MBPS

    def iops(self, now_us: float) -> float:
        """Average operations per second over the measurement window."""
        if self.start_time is None:
            return 0.0
        elapsed = now_us - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.ops / (elapsed / 1e6)


class IntervalSeries:
    """Bucket (time, value) observations into fixed-width windows.

    ``mode`` selects how a window aggregates its observations:

    * ``"sum"``  -- e.g. bytes completed per window (throughput timelines)
    * ``"mean"`` -- e.g. average latency per window (Figure 9's latency trace)
    * ``"last"`` -- e.g. the congestion threshold value (Figure 18)
    """

    _MODES = ("sum", "mean", "last")

    def __init__(self, window_us: float, mode: str = "sum"):
        if window_us <= 0:
            raise ValueError("window must be positive")
        if mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        self.window_us = window_us
        self.mode = mode
        self._sums: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}
        self._lasts: Dict[int, float] = {}
        # Deferred current-window accumulator: observations land here
        # (one attribute bump each) and fold into the dicts only when
        # the stream crosses a window boundary or a reader needs the
        # finished series.  Mostly-monotone streams (every recorder in
        # the simulator) thus pay dict updates per *window*, not per
        # observation; out-of-order records just force an early flush.
        self._cur_index: Optional[int] = None
        self._cur_sum = 0.0
        self._cur_count = 0
        self._cur_last = 0.0

    def record(self, now_us: float, value: float) -> None:
        index = int(now_us // self.window_us)
        if index == self._cur_index:
            self._cur_sum += value
            self._cur_count += 1
            self._cur_last = value
            return
        self._flush()
        self._cur_index = index
        self._cur_sum = value
        self._cur_count = 1
        self._cur_last = value

    def _flush(self) -> None:
        """Fold the current-window accumulator into the window dicts."""
        index = self._cur_index
        if index is None:
            return
        self._sums[index] = self._sums.get(index, 0.0) + self._cur_sum
        self._counts[index] = self._counts.get(index, 0) + self._cur_count
        self._lasts[index] = self._cur_last
        self._cur_index = None
        self._cur_sum = 0.0
        self._cur_count = 0

    def series(self) -> List[tuple]:
        """Sorted (window_start_us, aggregate) pairs.

        In ``sum`` mode every window between the first and the last
        observation is reported, with interior gaps emitted as 0.0 --
        an idle period genuinely is zero bytes per window, and timeline
        plots (Figures 9/17/18) must show it as such rather than
        splicing the gap out.  ``mean`` and ``last`` windows have no
        meaningful zero, so those modes still skip empty windows.
        """
        self._flush()
        if not self._sums:
            return []
        if self.mode == "sum":
            indices = sorted(self._sums)
            return [
                (index * self.window_us, self._sums.get(index, 0.0))
                for index in range(indices[0], indices[-1] + 1)
            ]
        points = []
        for index in sorted(self._sums):
            if self.mode == "mean":
                value = self._sums[index] / self._counts[index]
            else:
                value = self._lasts[index]
            points.append((index * self.window_us, value))
        return points

    def bandwidth_series_mbps(self) -> List[tuple]:
        """For ``sum``-of-bytes series: (window_start_us, MB/s) pairs."""
        if self.mode != "sum":
            raise ValueError("bandwidth series requires sum mode")
        return [(t, (v / self.window_us) / MBPS) for t, v in self.series()]
