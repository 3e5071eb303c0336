"""Typed trace events and the buffer that collects them.

A trace event is a flat record: timestamp, event type, emitting
component, optional tenant, plus event-specific fields.  Components
emit through :meth:`TraceBuffer.emit`; the buffer streams each record
straight to a JSONL sink and keeps only per-type counters, so memory
stays flat on multi-second runs that produce millions of events.
:func:`read_jsonl` loads a journal back.

Event types are closed: :class:`TraceType` enumerates every event the
simulator knows how to emit, and ``emit`` rejects unknown types so a
typo cannot silently produce an event no report will ever aggregate.
"""

from __future__ import annotations

import enum
import json
from typing import IO, Dict, List, Optional


class TraceType(str, enum.Enum):
    """Every event type the instrumented simulator can emit."""

    #: A latency monitor changed congestion state.
    CONGESTION = "congestion"
    #: A latency monitor's dynamic threshold moved.
    THRESHOLD = "threshold"
    #: The pacing pump blocked on the token bucket.
    BUCKET_DENY = "bucket_deny"
    #: A refill wakeup fired and re-ran the pump.
    BUCKET_REFILL = "bucket_refill"
    #: Garbage collection ran to make room for a host write.
    GC_START = "gc_start"
    #: The charged GC busy time drains at this timestamp.
    GC_END = "gc_end"
    #: The credit grant piggybacked on completions changed.
    CREDIT = "credit"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


_VALID_TYPES = frozenset(member.value for member in TraceType)


class TraceBuffer:
    """Streams trace events to a JSONL sink and counts them by type.

    ``sink`` is a text file object; each event is written to it as one
    JSON line the moment it is emitted.
    """

    def __init__(self, sink: IO[str]):
        self._sink = sink
        self.emitted = 0
        self.counts_by_type: Dict[str, int] = {}

    def emit(
        self,
        type: "TraceType | str",
        t: float,
        comp: str,
        tenant: Optional[str] = None,
        **fields,
    ) -> None:
        """Record one event at simulated time ``t`` from ``comp``."""
        key = type.value if isinstance(type, TraceType) else type
        if key not in _VALID_TYPES:
            raise ValueError(f"unknown trace event type {key!r}")
        record = {"t": t, "ev": key, "comp": comp}
        if tenant is not None:
            record["tenant"] = tenant
        if fields:
            record.update(fields)
        self.emitted += 1
        self.counts_by_type[key] = self.counts_by_type.get(key, 0) + 1
        self._sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBuffer(emitted={self.emitted})"


def read_jsonl(path: str) -> List[dict]:
    """Load a journal a :class:`TraceBuffer` sink wrote."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
