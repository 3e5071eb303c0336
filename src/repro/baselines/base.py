"""The storage-scheduler interface shared by Gimbal and the baselines.

A scheduler instance is owned by exactly one per-SSD pipeline
(:class:`repro.fabric.pipeline.SsdPipeline`) -- the paper's
shared-nothing design, one pipeline + one core per SSD.  The pipeline
calls down with ingress requests and device completions; the scheduler
calls back up through :meth:`SsdPipeline.device_submit` whenever its
policy admits an IO to the device.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, Optional

from repro.fabric.request import FabricRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fabric.pipeline import SsdPipeline


class StorageScheduler(abc.ABC):
    """Target-side IO scheduling policy for one SSD."""

    #: Human-readable scheme name (used in experiment reports).
    name = "abstract"
    #: Extra core time this policy spends on the submission path
    #: (Table 1 measures exactly this against vanilla SPDK).
    submit_overhead_us = 0.0
    #: Extra core time on the completion path.
    complete_overhead_us = 0.0
    #: A scheduler whose :meth:`enqueue` unconditionally submits the
    #: request to the device (no queueing, no reordering, no state)
    #: declares it here; the pipeline then fuses the enqueue and the
    #: device submission into one event handler.  A subclass that
    #: overrides :meth:`enqueue` with real policy must leave this False.
    passthrough_enqueue = False

    def __init__(self) -> None:
        self.pipeline: Optional["SsdPipeline"] = None
        self.tenant_weights: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Pipeline-facing lifecycle
    # ------------------------------------------------------------------
    def attach(self, pipeline: "SsdPipeline") -> None:
        """Bind to the owning pipeline (called once, by the pipeline)."""
        if self.pipeline is not None:
            raise RuntimeError("scheduler already attached to a pipeline")
        self.pipeline = pipeline
        #: The owning pipeline's simulator.  A plain attribute bound
        #: here (policies read it several times per IO); it does not
        #: exist before attachment.
        self.sim = pipeline.sim

    def register_tenant(self, tenant_id: str, weight: float = 1.0) -> None:
        """Declare a tenant before its first IO arrives."""
        # Not ``weight <= 0``: NaN passes that test, and a NaN or
        # infinite weight turns every deficit test true.
        if not (weight > 0 and math.isfinite(weight)):
            raise ValueError(f"tenant weight must be positive and finite, got {weight!r}")
        self.tenant_weights[tenant_id] = weight

    def unregister_tenant(self, tenant_id: str) -> None:
        """Detach a tenant (its IOs must have drained).

        Subclasses drop any per-tenant state and rebalance shares.
        """
        self.tenant_weights.pop(tenant_id, None)

    @abc.abstractmethod
    def enqueue(self, request: FabricRequest) -> None:
        """Accept one ingress request (data already fetched for writes)."""

    def notify_completion(self, request: FabricRequest) -> None:
        """Observe a device completion (before the response is sent)."""

    # ------------------------------------------------------------------
    # Flow-control and visibility hooks (optional)
    # ------------------------------------------------------------------
    def credit_for(self, tenant_id: str) -> int:
        """Credit grant piggybacked on this tenant's completions.

        0 means the scheme exposes no credit information (clients then
        self-limit only by their queue depth).
        """
        return 0

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def submit_to_device(self, request: FabricRequest) -> None:
        if self.pipeline is None:
            raise RuntimeError("scheduler is not attached")
        self.pipeline.device_submit(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(tenants={len(self.tenant_weights)})"
