"""Discrete-event simulation kernel.

Time is measured in floating-point *microseconds* from simulation start
throughout the whole package.  The kernel is deliberately small: one
event heap (:class:`~repro.sim.engine.Simulator`), cancellable events,
generator-based processes, and a registry of named, seeded random
number streams so that every run is reproducible.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 3(c) retires it.
from repro.sim.engine import Simulator as make_simulator  # noqa: F401
