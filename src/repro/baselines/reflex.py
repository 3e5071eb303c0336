"""ReFlex-style scheduler: static offline-calibrated cost model.

ReFlex (ASPLOS'17) regulates tenants with request costs drawn from an
*offline* device calibration: every IO costs ``pages x unit`` tokens,
writes cost a fixed multiple of reads, and tokens are generated at the
device's calibrated peak rate.  The evaluation's point (Sections 5.2,
5.3) is that a static model cannot track SSD conditions:

* on a *clean* SSD the worst-case write multiple grossly overcharges
  sequential writes, capping write throughput at a fraction of the
  device's real capability (the x6.6 utilisation gap of Figure 6);
* large reads are charged linearly in size even though the device
  serves them disproportionately faster, so 128 KiB streams get the
  same token share as 4 KiB streams (Figure 7a/7d);
* there is no client flow control, so queues (and tail latencies)
  build at the target under consolidation (Figure 8).

Tokens are integrated with a deficit round-robin across tenants, which
is faithful to ReFlex's QoS-aware scheduler shape.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.baselines.base import StorageScheduler
from repro.fabric.request import FabricRequest
from repro.ssd.commands import OP_WRITE


class ReflexScheduler(StorageScheduler):
    """Token-paced DRR with a static cost model."""

    name = "reflex"
    submit_overhead_us = 0.10
    complete_overhead_us = 0.04

    def __init__(
        self,
        token_rate_per_us: float = 0.40,
        write_cost_tokens: float = 9.0,
        max_tokens: float = 1024.0,
        quantum_tokens: float = 32.0,
    ):
        """``token_rate_per_us`` is the calibrated device capacity in
        4 KiB-read-equivalents per microsecond (0.40/us = 400 KIOPS,
        the clean-SSD 4 KiB random-read peak).  ``write_cost_tokens``
        is the fixed datasheet-derived write multiple."""
        super().__init__()
        if token_rate_per_us <= 0 or write_cost_tokens < 1 or max_tokens <= 0:
            raise ValueError("invalid ReFlex calibration")
        # The bucket must hold at least one maximum-cost request
        # (128 KiB write at the worst-case multiple) or it deadlocks.
        if max_tokens < 32 * write_cost_tokens:
            raise ValueError("max_tokens below the cost of one 128 KiB write")
        self.token_rate_per_us = token_rate_per_us
        self.write_cost_tokens = write_cost_tokens
        self.max_tokens = max_tokens
        self.quantum_tokens = quantum_tokens
        self.tokens = max_tokens
        self._last_refill = 0.0
        self._queues: Dict[str, Deque[FabricRequest]] = {}
        self._active: Deque[str] = deque()
        self._deficits: Dict[str, float] = {}
        self._wakeup = None

    # ------------------------------------------------------------------
    # Cost model (static, offline)
    # ------------------------------------------------------------------
    def request_cost(self, request: FabricRequest) -> float:
        """Tokens one request consumes under the offline model."""
        per_page = self.write_cost_tokens if request.op is OP_WRITE else 1.0
        return per_page * request.npages

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def register_tenant(self, tenant_id: str, weight: float = 1.0) -> None:
        super().register_tenant(tenant_id, weight)
        self._queues.setdefault(tenant_id, deque())
        self._deficits.setdefault(tenant_id, 0.0)

    def unregister_tenant(self, tenant_id: str) -> None:
        queue = self._queues.get(tenant_id)
        if queue:
            raise RuntimeError(f"tenant {tenant_id!r} still has queued IO")
        super().unregister_tenant(tenant_id)
        self._queues.pop(tenant_id, None)
        self._deficits.pop(tenant_id, None)
        if tenant_id in self._active:
            self._active.remove(tenant_id)

    def enqueue(self, request: FabricRequest) -> None:
        queue = self._queues.setdefault(request.tenant_id, deque())
        self._deficits.setdefault(request.tenant_id, 0.0)
        if not queue and request.tenant_id not in self._active:
            self._active.append(request.tenant_id)
        queue.append(request)
        self._pump()

    def notify_completion(self, request: FabricRequest) -> None:
        self._pump()

    # ------------------------------------------------------------------
    # Token-paced DRR
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_refill
        self._last_refill = now
        if elapsed > 0:
            self.tokens = min(self.max_tokens, self.tokens + elapsed * self.token_rate_per_us)

    def _pump(self) -> None:
        self._refill()
        active = self._active
        while active:
            tenant_id = active[0]
            queue = self._queues[tenant_id]
            if not queue:
                active.popleft()
                continue
            request = queue[0]
            cost = self.request_cost(request)
            if self._deficits[tenant_id] < cost:
                self._deficits[tenant_id] += self.quantum_tokens
                active.rotate(-1)
                continue
            if self.tokens < cost:
                self._schedule_wakeup(cost - self.tokens)
                return
            queue.popleft()
            self.tokens -= cost
            self._deficits[tenant_id] -= cost
            self.submit_to_device(request)

    def _schedule_wakeup(self, token_deficit: float) -> None:
        delay = min(max(token_deficit / self.token_rate_per_us, 1.0), 50_000.0)
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._wakeup = self.sim.schedule(delay, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._pump()
