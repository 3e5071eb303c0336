"""Two-level hierarchical IO scheduler (paper Section 3.5, Algorithm 2).

Level 1 is deficit round-robin *across tenants*, with two twists over
textbook DRR:

* the serviceable unit is the cost-weighted IO size (writes count
  ``write_cost x size``), so a 128 KiB write at cost 3 waits three
  quantum rounds, exactly the paper's example;
* a tenant must hold a free *virtual slot* to submit.  Out of slots,
  it moves to the deferred list with its deficit zeroed and rejoins
  the tail of the active list when a slot drains -- deficits never
  accrue while deferred.

Level 2 is per-tenant priority queues: within a tenant, queues are
served weighted-round-robin with weight ``priority + 1``, which lets
clients prioritise latency-sensitive IOs over bulk traffic.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import GimbalParams
from repro.core.rate_control import DualTokenBucket
from repro.core.virtual_slot import SlotManager, VirtualSlot
from repro.fabric.request import FabricRequest
from repro.ssd.commands import OP_READ, OP_TRIM, OP_WRITE, IoOp


class GimbalTenant:
    """Per-tenant scheduler state: priority queues, deficit, slots."""

    def __init__(self, tenant_id: str, weight: float, slot_bytes: int):
        self.tenant_id = tenant_id
        self.weight = weight
        self.slots = SlotManager(slot_bytes)
        self.deficit = 0.0
        self.in_active = False
        self.deferred = False
        self.pending = 0
        #: The request :meth:`pop` returns next, or None; kept current
        #: by push/pop so the DRR pump reads it without a call.
        self.head: Optional[FabricRequest] = None
        # Weighted round-robin across priority levels, highest first:
        # ``[priority, serves_left, queue]`` per level ever seen.  The
        # round restarts whenever a level turns empty or non-empty.
        self._levels: Dict[int, list] = {}
        self._wrr: List[list] = []
        self._wrr_index = 0

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, request: FabricRequest) -> None:
        level = self._levels.get(request.priority)
        if level is None:
            level = self._levels[request.priority] = [request.priority, 0, deque()]
            self._wrr = sorted(self._levels.values(), key=lambda entry: -entry[0])
        queue = level[2]
        queue.append(request)
        self.pending += 1
        if len(queue) == 1:
            if len(self._wrr) == 1 and level[0] >= 0:
                # One level is not a round-robin: the restarted round
                # lands where it stands (what ``_select`` would leave).
                self.head = request
                self._wrr_index = 0
                level[1] = level[0] + 1
            else:
                self._select(restart=True)

    def pop(self) -> FabricRequest:
        request = self.head
        if request is None:
            raise IndexError("tenant has no pending requests")
        level = self._wrr[self._wrr_index]
        queue = level[2]
        queue.popleft()
        self.pending -= 1
        level[1] -= 1
        if queue and level[1] > 0:
            self.head = queue[0]
        elif self.pending:
            if len(self._wrr) == 1:
                self.head = queue[0]
                level[1] = level[0] + 1
            else:
                self._wrr_index += 1
                self._select(restart=not queue)
        else:
            # Drained: the next push restarts the round anyway.
            self.head = None
        return request

    def _select(self, restart: bool) -> None:
        """Move to the next level with serves left and work queued.

        ``restart`` begins a fresh round from the highest priority (the
        set of non-empty levels just changed); a round also restarts by
        itself once every level has used its ``priority + 1`` serves.
        """
        wrr = self._wrr
        if restart:
            self._wrr_index = len(wrr)
        for _ in range(2 * len(wrr)):
            if self._wrr_index >= len(wrr):
                self._wrr_index = 0
                for level in wrr:
                    level[1] = level[0] + 1
            level = wrr[self._wrr_index]
            if level[1] > 0 and level[2]:
                self.head = level[2][0]
                return
            self._wrr_index += 1
        self.head = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GimbalTenant({self.tenant_id}, pending={self.pending}, "
            f"deficit={self.deficit:.0f}, slots={len(self.slots.in_use)})"
        )


class DrrSlotScheduler:
    """Deficit round-robin over tenants with virtual-slot gating."""

    def __init__(self, params: GimbalParams):
        self.params = params
        self.tenants: Dict[str, GimbalTenant] = {}
        self.active: Deque[GimbalTenant] = deque()
        self.slot_limit = params.slot_threshold
        #: Times a tenant was parked for running out of virtual slots
        #: (observability: how often slots, not tokens, are the limiter).
        self.deferrals = 0

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def add_tenant(self, tenant_id: str, weight: float = 1.0) -> GimbalTenant:
        if tenant_id in self.tenants:
            return self.tenants[tenant_id]
        # Not ``weight <= 0``: NaN passes that test, and a NaN or
        # infinite weight turns every deficit test true.
        if not (weight > 0 and math.isfinite(weight)):
            raise ValueError(f"tenant weight must be positive and finite, got {weight!r}")
        tenant = GimbalTenant(tenant_id, weight, self.params.slot_bytes)
        self.tenants[tenant_id] = tenant
        self._recompute_slot_limit()
        return tenant

    def remove_tenant(self, tenant_id: str) -> None:
        """Drop an idle tenant; remaining tenants' slot shares grow."""
        tenant = self.tenants.pop(tenant_id, None)
        if tenant is None:
            return
        if tenant.in_active:
            self.active.remove(tenant)
        self._recompute_slot_limit()

    def _recompute_slot_limit(self) -> None:
        """Distribute the slot threshold across tenants, at least 1 each."""
        count = max(1, len(self.tenants))
        self.slot_limit = max(1, self.params.slot_threshold // count)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def pump(
        self,
        write_cost: float,
        bucket: DualTokenBucket,
        submit: Callable[[FabricRequest], None],
    ) -> Optional[Tuple[IoOp, float]]:
        """Run Algorithm 2 until out of work, slots everywhere, or tokens:
        returns None, or ``(op, deficit_bytes)`` when the bucket blocked.

        The serviceable unit is the cost-weighted IO size: writes pay
        ``write_cost`` per byte; trims are metadata-only and charged one
        page regardless of range length (and ride the write bucket).
        An admitted request goes to ``submit`` carrying its virtual
        slot as ``request._slot``.

        Termination: every full rotation of the active list adds one
        quantum to each tenant's deficit, so a head-of-queue IO whose
        weighted size is W waits at most ceil(W / quantum) rotations;
        tenants without slots leave the list.
        """
        active = self.active
        quantum = self.params.quantum_bytes
        while active:
            tenant = active[0]
            request = tenant.head
            if request is None:
                active.popleft()
                tenant.in_active = False
                continue
            op = request.op
            if op is OP_TRIM:
                token_bytes = 4096
                weighted = 4096.0
            else:
                token_bytes = request.npages * 4096
                weighted = write_cost * token_bytes if op is OP_WRITE else float(token_bytes)
            if tenant.deficit < weighted:
                # Weighted DRR: a tenant's quantum scales with its
                # share weight, so weight-2 tenants accumulate service
                # twice as fast.
                tenant.deficit += quantum * tenant.weight
                active.rotate(-1)
                continue
            tokens = bucket.read_tokens if op is OP_READ else bucket.write_tokens
            if tokens < token_bytes:
                bucket.denials += 1
                return op, token_bytes - tokens
            slots = tenant.slots
            slot = slots.current
            if slot is None or slot.is_full:
                in_use = slots.in_use
                if len(in_use) >= self.slot_limit:
                    # Out of virtual slots: defer with deficit zeroed
                    # (Algorithm 2 / Section 3.5).
                    tenant.deficit = 0.0
                    active.popleft()
                    tenant.in_active = False
                    tenant.deferred = True
                    self.deferrals += 1
                    continue
                slot = slots.current = VirtualSlot(tenant)
                in_use.append(slot)
            slot.submits += 1
            slot.weighted_bytes += weighted
            if slot.weighted_bytes >= slots.slot_bytes:
                slot.is_full = True
            tenant.pop()
            bucket.consume(op, token_bytes)
            tenant.deficit -= weighted
            request._slot = slot
            submit(request)
        return None
