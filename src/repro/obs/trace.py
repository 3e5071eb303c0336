"""Typed trace events and the buffer that collects them.

A trace event is a flat record: timestamp, event type, emitting
component, optional tenant, plus event-specific fields.  Components
emit through :meth:`TraceBuffer.emit`; the buffer either retains the
records in memory (bounded by ``limit``), streams them straight to a
JSONL sink, or both.  Streaming keeps memory flat on multi-second
runs that produce millions of events.

Event types are closed: :class:`TraceType` enumerates every event the
simulator knows how to emit, and ``emit`` rejects unknown types so a
typo cannot silently produce an event no report will ever aggregate.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from typing import IO, Dict, List, Optional


class TraceType(str, enum.Enum):
    """Every event type the instrumented simulator can emit."""

    #: Command capsule arrived at the target pipeline.
    IO_SUBMIT = "io_submit"
    #: Scheduler admitted the IO to the SSD.
    IO_DISPATCH = "io_dispatch"
    #: Device completion observed (carries the device latency).
    IO_COMPLETE = "io_complete"
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
    #: A cached sweep finished: hit/miss/bytes/seconds-saved summary.
    CACHE = "cache"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


_VALID_TYPES = frozenset(member.value for member in TraceType)


class TraceBuffer:
    """Collects (and/or streams) trace events.

    Parameters
    ----------
    limit:
        Retain at most this many events in memory (oldest dropped).
        None keeps everything.
    sink:
        Optional text file object; events are written to it as JSON
        lines the moment they are emitted.
    retain:
        With ``retain=False`` (and a sink) nothing is kept in memory;
        only the per-type counters survive.
    """

    def __init__(
        self,
        limit: Optional[int] = None,
        sink: Optional[IO[str]] = None,
        retain: bool = True,
    ):
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive")
        self._events: deque = deque(maxlen=limit)
        self._sink = sink
        self._retain = retain
        self.emitted = 0
        self.counts_by_type: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
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
        if self._retain:
            self._events.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------
    # Access / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[dict]:
        """Retained events, oldest first."""
        return list(self._events)

    def of_type(self, type: "TraceType | str") -> List[dict]:
        key = type.value if isinstance(type, TraceType) else type
        return [event for event in self._events if event["ev"] == key]

    def export_jsonl(self, path: str) -> int:
        """Write the retained events to ``path``; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBuffer(emitted={self.emitted}, retained={len(self._events)})"


def read_jsonl(path: str) -> List[dict]:
    """Load a journal written by :meth:`TraceBuffer.export_jsonl` or a sink."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
