"""Controller DRAM write buffer bookkeeping.

The paper leans on this behaviour twice: the write-cost estimator
drops the cost to 1 while writes are absorbed by the buffer
(Section 3.4), and the rate controller must not let a buffer-absorbed
burst inflate the window (Section 3.3).  The buffer here is pure
state -- occupancy plus a multiset of buffered LPNs so reads can be
served from DRAM -- that the device model admits into and releases
from on its per-command write path, where it also owns all timing.
"""

from __future__ import annotations

from typing import Dict


class WriteBuffer:
    """Occupancy counter plus an LPN multiset for read hits."""

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity_pages
        self.occupied = 0
        #: Buffered (not yet programmed) copies per LPN.  The dict
        #: object lives as long as the buffer: ``clear`` empties it in
        #: place, so the device may hold it directly.
        self.lpn_counts: Dict[int, int] = {}

    def clear(self) -> None:
        self.occupied = 0
        self.lpn_counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteBuffer({self.occupied}/{self.capacity} pages)"
