"""Client-side flow-control policies.

A :class:`ClientPolicy` gates when a tenant session may put another IO
on the wire.  Three of the paper's mechanisms live here:

* :class:`CreditClientPolicy` -- Gimbal's end-to-end credit protocol
  (Section 3.6, Algorithm 3): submit while the target-granted credit
  exceeds the in-flight count; credits arrive piggybacked on
  completions.
* :class:`PardaClientPolicy` -- PARDA's latency-driven window control
  (the comparison scheme): a FAST-TCP-style window update from the
  observed average end-to-end IO latency.
* :class:`UnlimitedClientPolicy` -- the uncontrolled case: the
  session's queue depth is the only limit.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.metrics.ewma import Ewma
from repro.fabric.request import FabricRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.initiator import TenantSession

#: Credit a Gimbal session starts with, before its first grant arrives.
INITIAL_CREDIT = 8

#: PARDA's operating point: the end-to-end latency the window steers to.
PARDA_LATENCY_THRESHOLD_US = 1200.0
#: Weight of the proposed window against the current one.
PARDA_GAMMA = 0.5
#: Additive growth per epoch (IOs).
PARDA_ALPHA = 2.0
#: How often the window is recomputed.
PARDA_EPOCH_US = 5000.0
PARDA_INITIAL_WINDOW = 8.0
PARDA_MAX_WINDOW = 512.0


class ClientPolicy(abc.ABC):
    """Per-tenant-session admission gate at the initiator."""

    def __init__(self) -> None:
        self.session: Optional["TenantSession"] = None

    def bind(self, session: "TenantSession") -> None:
        if self.session is not None:
            raise RuntimeError("policy already bound to a session")
        self.session = session

    @abc.abstractmethod
    def allow(self) -> bool:
        """May the session issue one more IO right now?"""

    def on_submit(self, request: FabricRequest) -> None:
        """Observe an IO going onto the wire."""

    def on_complete(self, request: FabricRequest) -> None:
        """Observe a completion (credit grants, latency samples)."""


class UnlimitedClientPolicy(ClientPolicy):
    """No client-side limit beyond the session queue depth."""

    def allow(self) -> bool:
        return True


class CreditClientPolicy(ClientPolicy):
    """Gimbal's credit-based flow control (Algorithm 3).

    ``credit_total`` is the amount of IO the target can serve for this
    tenant without hurting QoS; the target refreshes it on every
    completion through the response capsule's reservation field.
    """

    def __init__(self) -> None:
        super().__init__()
        self.credit_total = INITIAL_CREDIT

    def allow(self) -> bool:
        return self.credit_total > self.session.inflight

    def on_complete(self, request: FabricRequest) -> None:
        if request.credit_grant > 0:
            self.credit_total = request.credit_grant


class PardaClientPolicy(ClientPolicy):
    """PARDA: adjust a window from observed average IO latency.

    FAST-TCP-shaped update, evaluated once per epoch:

        w <- min(2w, (1 - gamma) * w + gamma * (L / L_avg * w + alpha))

    where ``L`` is :data:`PARDA_LATENCY_THRESHOLD_US` (the operating
    point the storage should sit at), ``gamma`` and ``alpha`` are
    :data:`PARDA_GAMMA` and :data:`PARDA_ALPHA`, and ``L_avg`` the EWMA
    of observed end-to-end latencies.  The window grows while latency
    sits below the threshold and shrinks multiplicatively once it
    exceeds it, within ``[1, PARDA_MAX_WINDOW]``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.window = PARDA_INITIAL_WINDOW
        self._latency = Ewma(alpha=0.25)
        self._next_update_at = 0.0

    def allow(self) -> bool:
        return self.session.inflight < max(1, int(self.window))

    def on_complete(self, request: FabricRequest) -> None:
        self._latency.update(request.e2e_latency_us)
        now = self.session.sim.now
        if now >= self._next_update_at:
            self._next_update_at = now + PARDA_EPOCH_US
            self._update_window()

    def _update_window(self) -> None:
        if not self._latency.initialized:
            return
        ratio = PARDA_LATENCY_THRESHOLD_US / max(self._latency.value, 1.0)
        proposed = (1 - PARDA_GAMMA) * self.window + PARDA_GAMMA * (ratio * self.window + PARDA_ALPHA)
        self.window = min(2 * self.window, proposed, PARDA_MAX_WINDOW)
        self.window = max(self.window, 1.0)
