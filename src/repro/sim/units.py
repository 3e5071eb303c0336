"""Unit constants and conversion helpers.

The simulation clock counts microseconds, sizes are bytes, and rates
are bytes per microsecond internally.  These helpers keep call sites
readable (``4 * KB``, ``mbps(1600)``) and conversion mistakes out of
the models.
"""

#: Size units (bytes).
KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Time units (microseconds -- the simulation base unit).
US = 1.0
MS = 1000.0
SEC = 1_000_000.0

#: Rate units (bytes per microsecond).
MBPS = MB / SEC
GBPS = GB / SEC


def mbps(value: float) -> float:
    """Convert a rate in MB/s to the internal bytes-per-microsecond unit."""
    return value * MBPS
