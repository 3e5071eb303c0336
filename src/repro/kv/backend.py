"""Client-side handle to one remote SSD (NVMe-oF backend).

A :class:`RemoteBackend` wraps a tenant session, translates page-level
blob IO into fabric requests, and keeps the latest credit grant the
target piggybacked on completions -- the virtual view the allocator
and the read load balancer consume (paper Sections 3.7/4.3).

An optional outstanding-IO cap provides the explicit *IO rate limiter*
for configurations whose client policy does not already do flow
control (the "vanilla" bars of Figure 13 run without it; the "+FC"
bars enable it via the credit policy).
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.initiator import TenantSession
from repro.fabric.request import FabricRequest
from repro.ssd.commands import OP_READ, OP_TRIM, OP_WRITE

IoCallback = Callable[[FabricRequest], None]


class RemoteBackend:
    """One (DB instance, remote SSD) pairing."""

    def __init__(self, name: str, session: TenantSession):
        self.name = name
        self.session = session
        #: Last credit amount granted by the target (0 = unknown).
        self.credit = 0
        self.reads = 0
        self.writes = 0
        self.trims = 0
        self.read_bytes = 0
        self.write_bytes = 0

    @property
    def outstanding(self) -> int:
        return self.session.inflight + self.session.queued

    @property
    def load_score(self) -> float:
        """Higher is *more* loaded; used to pick the least-loaded SSD.

        With credits exposed, the advertised headroom (credit minus
        what we already have outstanding) is the signal; otherwise fall
        back to raw outstanding IO.
        """
        if self.credit > 0:
            return self.outstanding - self.credit
        return float(self.outstanding)

    def read(self, lba: int, npages: int, on_complete: IoCallback, priority: int = 0) -> None:
        self.reads += 1
        self.read_bytes += npages * 4096
        self.session.submit(
            OP_READ, lba, npages, priority=priority, on_complete=self._wrap(on_complete)
        )

    def write(self, lba: int, npages: int, on_complete: IoCallback, priority: int = 0) -> None:
        self.writes += 1
        self.write_bytes += npages * 4096
        self.session.submit(
            OP_WRITE, lba, npages, priority=priority, on_complete=self._wrap(on_complete)
        )

    def trim(self, lba: int, npages: int) -> None:
        """Fire-and-forget deallocate of a freed blob's range."""
        self.trims += 1
        self.session.submit(OP_TRIM, lba, npages, on_complete=self._wrap(lambda req: None))

    def _wrap(self, on_complete: IoCallback) -> IoCallback:
        def observe(request: FabricRequest) -> None:
            if request.credit_grant > 0:
                self.credit = request.credit_grant
            on_complete(request)

        return observe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteBackend({self.name}, credit={self.credit}, out={self.outstanding})"
