"""Event-kernel profiling probe.

A :class:`KernelProbe` attached to :attr:`Simulator.probe` observes
the event loop itself:

* per-callback fire counts (which component's events dominate a run);
* the heap-depth high-water mark (how much future the simulation keeps
  queued -- a leak in event cancellation shows up here first);
* wall-clock per simulated second (how expensive the model is to run).

Scheduling calls never touch the probe, and an unprobed run takes a
drain loop with no probe branch in it.  A probed run loop counts each
fire and samples the queue depth ahead of every pop (and once at
exit); depth only grows between those samples, so the high-water mark
equals the deepest the queue got after any single push.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple


class KernelProbe:
    """Counters the :class:`~repro.sim.engine.Simulator` feeds when attached."""

    def __init__(self) -> None:
        # Keyed by the callback's function (a bound method's __func__),
        # not by the bound method: a key holding its instance would keep
        # every component whose event fired alive for the session.  The
        # hot counting path skips the __qualname__ attribute walk and
        # aggregates to names only when somebody reads
        # :attr:`fired_by_callback`.
        self._fired_by_fn: Dict[object, int] = {}
        self.fired_total = 0
        self.heap_high_water = 0
        self.runs = 0
        self.wall_seconds = 0.0
        self.sim_us = 0.0
        self._run_wall_start = 0.0
        self._run_sim_start = 0.0

    # ------------------------------------------------------------------
    # Kernel-facing hooks
    # ------------------------------------------------------------------
    def count_fire(self, fn) -> None:
        """One event callback fired."""
        self.fired_total += 1
        fn = getattr(fn, "__func__", fn)
        by_fn = self._fired_by_fn
        count = by_fn.get(fn)
        if count is None:
            by_fn[fn] = 1
        else:
            by_fn[fn] = count + 1

    @property
    def fired_by_callback(self) -> Dict[str, int]:
        """Fire counts aggregated by callback qualname (snapshot)."""
        aggregated: Dict[str, int] = {}
        for fn, count in self._fired_by_fn.items():
            name = getattr(fn, "__qualname__", None) or repr(fn)
            aggregated[name] = aggregated.get(name, 0) + count
        return aggregated

    def begin_run(self, sim_now_us: float) -> None:
        self._run_wall_start = time.perf_counter()
        self._run_sim_start = sim_now_us

    def end_run(self, sim_now_us: float) -> None:
        self.runs += 1
        self.wall_seconds += time.perf_counter() - self._run_wall_start
        self.sim_us += sim_now_us - self._run_sim_start

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------
    @property
    def wall_seconds_per_sim_second(self) -> float:
        """How many wall seconds one simulated second costs."""
        if self.sim_us <= 0:
            return 0.0
        return self.wall_seconds / (self.sim_us / 1e6)

    def top_callbacks(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` most-fired event callbacks, descending."""
        ranked = sorted(self.fired_by_callback.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def metrics(self) -> Dict[str, object]:
        return {
            "events_fired": self.fired_total,
            "heap_high_water": self.heap_high_water,
            "runs": self.runs,
            "wall_seconds": self.wall_seconds,
            "wall_s_per_sim_s": self.wall_seconds_per_sim_second,
        }

    def summary(self) -> str:
        lines = [
            "kernel probe",
            f"  events fired        {self.fired_total}",
            f"  heap high-water     {self.heap_high_water}",
            f"  wall s / sim s      {self.wall_seconds_per_sim_second:.3f}",
        ]
        if self.fired_by_callback:
            lines.append("  top callbacks:")
            width = max(len(name) for name, _ in self.top_callbacks())
            for name, count in self.top_callbacks():
                lines.append(f"    {name.ljust(width)}  {count}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelProbe(fired={self.fired_total}, "
            f"heap_hw={self.heap_high_water}, wall={self.wall_seconds:.2f}s)"
        )
