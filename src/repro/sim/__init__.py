"""Discrete-event simulation kernel.

Time is measured in floating-point *microseconds* from simulation start
throughout the whole package.  The kernel is deliberately small: one
event heap (:class:`~repro.sim.engine.Simulator`), cancellable events,
generator-based processes, and a registry of named, seeded random
number streams so that every run is reproducible.
"""

from repro.sim.engine import (
    Event,
    Process,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)
from repro.sim.rng import RngRegistry
from repro.sim.units import GB, GBPS, KB, MB, MBPS, MS, SEC, US, bytes_per_us, mbps

#: Imported by ``benchmarks/ledger/worker.py`` only; ROADMAP item 1a deletes it.
make_simulator = Simulator

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "all_of",
    "any_of",
    "make_simulator",
    "RngRegistry",
    "KB",
    "MB",
    "GB",
    "US",
    "MS",
    "SEC",
    "MBPS",
    "GBPS",
    "mbps",
    "bytes_per_us",
]
