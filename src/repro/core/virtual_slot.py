"""Virtual slots: Gimbal's normalised IO unit (paper Section 3.5).

Per-IO cost inside an SSD cannot be observed, and raw outstanding
bytes are misleading (a pipelined stream of 32 x 4 KiB IOs occupies
more internal queue slots than one 128 KiB IO).  A *virtual slot*
therefore groups submitted IOs up to 128 KiB of cost-weighted size and
is the granularity at which completion is managed: the slot frees only
when every IO inside it has completed.  Because an allocated slot
cannot be stolen, slots also fix the deceptive-idleness problem of
work-conserving fair queueing.
"""

from __future__ import annotations

from typing import List, Optional


class VirtualSlot:
    """One group of in-flight IOs, closed at ``slot_bytes`` weighted bytes.

    Plain state: the DRR pump fills it and stamps it on the admitted
    request (``_slot``), the switch's completion handler drains it and
    finds the owning tenant here.
    """

    __slots__ = ("tenant", "submits", "completions", "weighted_bytes", "is_full")

    def __init__(self, tenant):
        self.tenant = tenant
        self.submits = 0
        self.completions = 0
        self.weighted_bytes = 0.0
        self.is_full = False


class SlotManager:
    """Per-tenant slot accounting (Algorithm 2's bookkeeping).

    A tenant may hold at most ``drr.slot_limit`` slots *in use* (the
    open one plus closed-but-incomplete ones).  The pump places an IO
    into ``current`` or opens a slot under the limit, else defers the
    tenant; the completion handler frees a closed slot once it is empty.
    """

    def __init__(self, slot_bytes: int):
        if slot_bytes <= 0:
            raise ValueError("slot size must be positive")
        self.slot_bytes = slot_bytes
        self.current: Optional[VirtualSlot] = None
        self.in_use: List[VirtualSlot] = []
        #: IO count of the most recently drained slot; feeds the credit
        #: computation (Section 3.6).
        self.last_drained_io_count = 0

    @property
    def outstanding_ios(self) -> int:
        """Submitted-but-uncompleted IOs across all in-use slots."""
        return sum(slot.submits - slot.completions for slot in self.in_use)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotManager(in_use={len(self.in_use)}, last_drained={self.last_drained_io_count})"
