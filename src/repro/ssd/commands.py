"""Device-level IO commands.

Logical addressing is page-granular (4 KiB logical blocks): ``lpn`` is
a logical page number and ``npages`` the transfer length.  All the
paper's workloads use 4 KiB-aligned sizes, so nothing finer is needed.

A device reads a command's ``op``, ``lpn``, ``npages`` (``size_bytes``),
stamps ``submit_time`` / ``complete_time`` and parks ``submit``'s
completion callback in ``_on_device_complete`` (its completion event
carries the command alone).  :class:`DeviceCommand`
is that face alone, for code that drives a device directly; the fabric
datapath submits its :class:`~repro.fabric.request.FabricRequest` as
is -- one carrier per IO.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class IoOp(enum.Enum):
    """Operation type of a storage command."""

    READ = "read"
    WRITE = "write"
    #: Dataset-management deallocate: unmaps the LBA range in the FTL,
    #: creating pre-invalidated pages that cheapen future GC.
    TRIM = "trim"


#: The members as module globals.  Reading a member through its class
#: (``IoOp.READ``) falls back to the enum metaclass's ``__getattr__`` on
#: CPython 3.11 -- about 100 ns, five times per IO on the datapath --
#: so per-IO code compares ``op is OP_READ`` instead.
OP_READ, OP_WRITE, OP_TRIM = IoOp.READ, IoOp.WRITE, IoOp.TRIM

_command_ids = itertools.count(1)


@dataclass(slots=True)
class DeviceCommand:
    """One read or write command against an SSD.

    ``tag`` is an opaque caller cookie.  ``submit_time``/``complete_time``
    are stamped by the device.  Slotted: direct drivers allocate one per
    device IO.
    """

    op: IoOp
    lpn: int
    npages: int
    tag: Any = None
    command_id: int = field(default_factory=lambda: next(_command_ids))
    submit_time: Optional[float] = None
    complete_time: Optional[float] = None
    _on_device_complete: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lpn < 0:
            raise ValueError(f"negative LPN: {self.lpn}")
        if self.npages <= 0:
            raise ValueError(f"non-positive transfer length: {self.npages}")

    @property
    def size_bytes(self) -> int:
        """Transfer size in bytes (4 KiB logical pages)."""
        return self.npages * 4096

    @property
    def latency_us(self) -> float:
        """Device-level service latency; valid once completed."""
        if self.submit_time is None or self.complete_time is None:
            raise ValueError("command has not completed")
        return self.complete_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceCommand(#{self.command_id} {self.op.value} "
            f"lpn={self.lpn} npages={self.npages})"
        )
