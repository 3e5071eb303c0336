"""Tests for the typed trace buffer and JSONL journal."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.trace import TraceBuffer, TraceType, read_jsonl


def streamed():
    """A buffer over an in-memory sink, and a reader of what it wrote."""
    sink = io.StringIO()
    buffer = TraceBuffer(sink)
    return buffer, lambda: [json.loads(line) for line in sink.getvalue().splitlines()]


class TestEmission:
    def test_emit_records_flat_event(self):
        buffer, events = streamed()
        buffer.emit(TraceType.CREDIT, 12.5, "pipe0", tenant="t0", credit=8)
        assert events() == [
            {"t": 12.5, "ev": "credit", "comp": "pipe0", "tenant": "t0", "credit": 8}
        ]

    def test_tenant_omitted_when_none(self):
        buffer, events = streamed()
        buffer.emit(TraceType.BUCKET_REFILL, 1.0, "switch")
        assert "tenant" not in events()[0]

    def test_string_type_accepted(self):
        buffer, _ = streamed()
        buffer.emit("gc_start", 0.0, "ssd0")
        assert buffer.counts_by_type == {"gc_start": 1}

    def test_unknown_type_rejected(self):
        buffer, events = streamed()
        with pytest.raises(ValueError):
            buffer.emit("io_sumbit", 0.0, "pipe0")  # typo must not pass
        assert events() == []

    def test_per_io_events_are_gone(self):
        """Per-IO latency comes from the requests' stamps (the clients'
        stage waterfall), not from the journal."""
        assert len(TraceType) == 7
        buffer, _ = streamed()
        for kind in ("io_submit", "io_dispatch", "io_complete"):
            with pytest.raises(ValueError):
                buffer.emit(kind, 0.0, "pipe0")
        assert buffer.emitted == 0

    def test_counts_by_type_accumulate(self):
        buffer, _ = streamed()
        for _ in range(3):
            buffer.emit(TraceType.BUCKET_DENY, 1.0, "switch")
        buffer.emit(TraceType.CONGESTION, 2.0, "switch")
        assert buffer.counts_by_type == {"bucket_deny": 3, "congestion": 1}
        assert buffer.emitted == 4


class TestRetention:
    def test_retain_false_keeps_nothing_in_memory(self):
        """A trace goes to its journal; the buffer keeps only counters."""
        sink = io.StringIO()
        buffer = TraceBuffer(sink)
        buffer.emit(TraceType.BUCKET_REFILL, 1.0, "switch")
        assert not hasattr(buffer, "events")
        assert buffer.emitted == 1
        assert sink.getvalue().count("\n") == 1


class TestJournal:
    def test_sink_streams_jsonl(self):
        sink = io.StringIO()
        buffer = TraceBuffer(sink)
        buffer.emit(TraceType.GC_START, 5.0, "ssd0", erases=2)
        line = sink.getvalue().strip()
        assert line == '{"t":5.0,"ev":"gc_start","comp":"ssd0","erases":2}'

    def test_export_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as sink:
            buffer = TraceBuffer(sink)
            buffer.emit(TraceType.GC_START, 1.0, "ssd0", erases=2)
            buffer.emit(TraceType.CREDIT, 2.0, "pipe0", tenant="t0", credit=8)
        assert read_jsonl(path) == [
            {"t": 1.0, "ev": "gc_start", "comp": "ssd0", "erases": 2},
            {"t": 2.0, "ev": "credit", "comp": "pipe0", "tenant": "t0", "credit": 8},
        ]
        assert buffer.emitted == 2

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"t":1.0,"ev":"credit","comp":"p"}\n\n')
        assert len(read_jsonl(str(path))) == 1
