"""Tests for the typed trace buffer and JSONL journal."""

from __future__ import annotations

import io

import pytest

from repro.obs.trace import TraceBuffer, TraceType, read_jsonl


class TestEmission:
    def test_emit_records_flat_event(self):
        buffer = TraceBuffer()
        buffer.emit(TraceType.IO_SUBMIT, 12.5, "pipe0", tenant="t0", bytes=4096)
        assert buffer.events == [
            {"t": 12.5, "ev": "io_submit", "comp": "pipe0", "tenant": "t0", "bytes": 4096}
        ]

    def test_tenant_omitted_when_none(self):
        buffer = TraceBuffer()
        buffer.emit(TraceType.BUCKET_REFILL, 1.0, "switch")
        assert "tenant" not in buffer.events[0]

    def test_string_type_accepted(self):
        buffer = TraceBuffer()
        buffer.emit("gc_start", 0.0, "ssd0")
        assert buffer.counts_by_type == {"gc_start": 1}

    def test_unknown_type_rejected(self):
        buffer = TraceBuffer()
        with pytest.raises(ValueError):
            buffer.emit("io_sumbit", 0.0, "pipe0")  # typo must not pass

    def test_counts_by_type_accumulate(self):
        buffer = TraceBuffer()
        for _ in range(3):
            buffer.emit(TraceType.IO_COMPLETE, 1.0, "pipe0")
        buffer.emit(TraceType.CONGESTION, 2.0, "switch")
        assert buffer.counts_by_type == {"io_complete": 3, "congestion": 1}
        assert buffer.emitted == 4

    def test_of_type_filters(self):
        buffer = TraceBuffer()
        buffer.emit(TraceType.IO_SUBMIT, 1.0, "a")
        buffer.emit(TraceType.IO_COMPLETE, 2.0, "a")
        buffer.emit(TraceType.IO_SUBMIT, 3.0, "b")
        assert [e["comp"] for e in buffer.of_type(TraceType.IO_SUBMIT)] == ["a", "b"]


class TestRetention:
    def test_limit_drops_oldest(self):
        buffer = TraceBuffer(limit=2)
        for t in (1.0, 2.0, 3.0):
            buffer.emit(TraceType.IO_SUBMIT, t, "pipe0")
        assert [e["t"] for e in buffer.events] == [2.0, 3.0]
        assert buffer.emitted == 3  # counters see everything

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(limit=0)

    def test_retain_false_keeps_nothing_in_memory(self):
        sink = io.StringIO()
        buffer = TraceBuffer(sink=sink, retain=False)
        buffer.emit(TraceType.IO_SUBMIT, 1.0, "pipe0")
        assert len(buffer) == 0
        assert buffer.emitted == 1
        assert sink.getvalue().count("\n") == 1

    def test_clear_empties_retained_events(self):
        buffer = TraceBuffer()
        buffer.emit(TraceType.IO_SUBMIT, 1.0, "pipe0")
        buffer.clear()
        assert buffer.events == []


class TestJournal:
    def test_sink_streams_jsonl(self):
        sink = io.StringIO()
        buffer = TraceBuffer(sink=sink)
        buffer.emit(TraceType.GC_START, 5.0, "ssd0", erases=2)
        line = sink.getvalue().strip()
        assert line == '{"t":5.0,"ev":"gc_start","comp":"ssd0","erases":2}'

    def test_export_and_read_roundtrip(self, tmp_path):
        buffer = TraceBuffer()
        buffer.emit(TraceType.IO_SUBMIT, 1.0, "pipe0", tenant="t0", bytes=4096)
        buffer.emit(TraceType.CREDIT, 2.0, "pipe0", tenant="t0", credit=8)
        path = str(tmp_path / "journal.jsonl")
        assert buffer.export_jsonl(path) == 2
        assert read_jsonl(path) == buffer.events

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"t":1.0,"ev":"credit","comp":"p"}\n\n')
        assert len(read_jsonl(str(path))) == 1
