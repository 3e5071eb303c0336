"""The end-to-end request object that flows initiator -> target -> device.

One :class:`FabricRequest` carries everything the layers need: the IO
itself, the tenant identity and priority tag (paper Section 3.5's
per-tenant priority queues), every timestamp the latency figures
report, and -- on the way back -- the credit grant that Gimbal
piggybacks in the NVMe-oF completion's first reservation field
(Section 3.6), the one switch signal a response carries.

It is the only per-IO carrier: the pipeline hands the request itself
to ``device.submit`` (see :mod:`repro.ssd.commands` for what a device
reads and stamps) and the scheduler parks its cookie on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.ssd.commands import IoOp

#: NVMe-oF capsule sizes (bytes) -- submission capsule with SGL, and the
#: 16-byte completion entry plus transport framing.
COMMAND_CAPSULE_BYTES = 96
RESPONSE_CAPSULE_BYTES = 32

#: Draws the next ``request_id``: one process-wide sequence.
next_request_id = itertools.count(1).__next__


@dataclass(slots=True)
class FabricRequest:
    """One NVMe-oF IO as seen end to end.

    Slotted: one of these is allocated per IO, so the dict-free layout
    keeps the per-request footprint and attribute access cost down on
    the hot path.
    """

    tenant_id: str
    op: IoOp
    lba: int
    npages: int
    priority: int = 0
    request_id: int = field(default_factory=next_request_id)

    # -- timestamps (microseconds, stamped as the request progresses) --
    t_client_submit: Optional[float] = None
    #: When the command capsule actually went on the wire (after any
    #: client-policy gating); fio's completion latency counts from here.
    t_wire_submit: Optional[float] = None
    t_target_arrival: Optional[float] = None
    t_sched_enqueue: Optional[float] = None
    t_client_complete: Optional[float] = None

    # -- device-command face --
    #: ``lba`` after namespace translation, set by the pipeline.
    lpn: Optional[int] = None
    #: Stamped by the device alone, when it accepts the command and when
    #: it completes it.
    submit_time: Optional[float] = None
    complete_time: Optional[float] = None

    #: Credit grant piggybacked on the completion (Gimbal's flow
    #: control); 0 means "no credit information".
    credit_grant: int = 0

    # -- transport plumbing (owned by the fabric layers, not callers) --
    # Every event of the round trip carries the request and nothing
    # else (the kernel's handle-less entries hold one payload), so the
    # callbacks of each hop ride here.
    #: Reply route: installed by whoever puts the capsule on the wire,
    #: cleared by the pipeline when the response goes out.  While set,
    #: the target owns the request.
    _reply: Any = field(default=None, repr=False, compare=False)
    #: Application completion callback carried alongside the request so
    #: the session's wire path needs no per-IO closure.
    _on_complete: Any = field(default=None, repr=False, compare=False)
    #: ``device.submit``'s ``on_complete``, parked by the device until
    #: its completion event fires.
    _on_device_complete: Any = field(default=None, repr=False, compare=False)
    #: The scheduler's cookie (Gimbal: the virtual slot holding this
    #: IO) between admission and device completion.
    _slot: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lba < 0 or self.npages <= 0:
            raise ValueError(f"invalid IO range: lba={self.lba} npages={self.npages}")

    @property
    def size_bytes(self) -> int:
        return self.npages * 4096

    @property
    def device_latency_us(self) -> float:
        """Time spent inside the SSD (what Gimbal's monitors observe)."""
        if self.submit_time is None or self.complete_time is None:
            raise ValueError("request has not completed device execution")
        return self.complete_time - self.submit_time

    @property
    def e2e_latency_us(self) -> float:
        """Client-observed latency including local queueing (slat + clat)."""
        if self.t_client_submit is None or self.t_client_complete is None:
            raise ValueError("request has not completed end to end")
        return self.t_client_complete - self.t_client_submit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricRequest(#{self.request_id} {self.tenant_id} {self.op.value} "
            f"lba={self.lba} npages={self.npages} prio={self.priority})"
        )
