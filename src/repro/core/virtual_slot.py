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
    """One group of in-flight IOs, at most ``slot_bytes`` weighted bytes."""

    __slots__ = ("slot_bytes", "submits", "completions", "weighted_bytes", "is_full")

    def __init__(self, slot_bytes: int):
        self.slot_bytes = slot_bytes
        self.submits = 0
        self.completions = 0
        self.weighted_bytes = 0.0
        self.is_full = False

    def add(self, weighted_size: float) -> None:
        """Account one submitted IO; closes the slot when it fills."""
        if self.is_full:
            raise RuntimeError("cannot add to a closed slot")
        self.submits += 1
        self.weighted_bytes += weighted_size
        if self.weighted_bytes >= self.slot_bytes:
            self.is_full = True

    def complete_one(self) -> bool:
        """Account one completion; True when the whole slot just freed."""
        self.completions += 1
        if self.completions > self.submits:
            raise RuntimeError("more completions than submissions in slot")
        return self.is_full and self.completions == self.submits

    @property
    def drained(self) -> bool:
        return self.is_full and self.completions == self.submits


class SlotManager:
    """Per-tenant slot accounting (Algorithm 2's bookkeeping).

    A tenant may hold at most ``limit`` slots that are *in use* (the
    open slot plus closed-but-incomplete ones).  ``try_place`` either
    returns the slot an IO was placed into or None, meaning the tenant
    must defer until a slot drains.
    """

    def __init__(self, slot_bytes: int):
        if slot_bytes <= 0:
            raise ValueError("slot size must be positive")
        self.slot_bytes = slot_bytes
        self.current: Optional[VirtualSlot] = None
        self._in_use: List[VirtualSlot] = []
        #: IO count of the most recently drained slot; feeds the credit
        #: computation (Section 3.6).
        self.last_drained_io_count = 0

    @property
    def slots_in_use(self) -> int:
        return len(self._in_use)

    def try_place(self, weighted_size: float, limit: int) -> Optional[VirtualSlot]:
        """Place one IO of ``weighted_size`` into a slot, or defer."""
        if weighted_size <= 0:
            raise ValueError("weighted size must be positive")
        slot = self.current
        if slot is None or slot.is_full:
            if len(self._in_use) >= limit:
                return None
            slot = self.current = VirtualSlot(self.slot_bytes)
            self._in_use.append(slot)
        slot.add(weighted_size)
        return slot

    @property
    def outstanding_ios(self) -> int:
        """Submitted-but-uncompleted IOs across all in-use slots."""
        return sum(slot.submits - slot.completions for slot in self._in_use)

    def on_completion(self, slot: VirtualSlot) -> bool:
        """Register a completion; True when ``slot`` drained and freed."""
        if slot.complete_one():
            self._in_use.remove(slot)
            if slot is self.current:
                self.current = None
            self.last_drained_io_count = slot.submits
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotManager(in_use={self.slots_in_use}, last_drained={self.last_drained_io_count})"
