"""Tests for the journal summariser."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import JournalSummary, main, summarize_journal


def synthetic_events():
    return [
        {"t": 0.0, "ev": "credit", "comp": "p0", "tenant": "t0", "credit": 32},
        {"t": 1.0, "ev": "threshold", "comp": "switch.p0", "io": "READ",
         "threshold_us": 250.0, "ewma_us": 180.0},
        {"t": 5.0, "ev": "congestion", "comp": "switch.p0", "io": "READ",
         "from": "UNDERUTILIZED", "to": "CONGESTED"},
        {"t": 9.0, "ev": "gc_end", "comp": "ssd0", "channel": 0, "drains_at_us": 40.0},
        {"t": 10.0, "ev": "bucket_deny", "comp": "switch.p0", "io": "WRITE",
         "deficit_bytes": 4096},
        {"t": 12.0, "ev": "bucket_refill", "comp": "switch.p0", "read_tokens": 100.0,
         "write_tokens": 100.0},
        {"t": 15.0, "ev": "congestion", "comp": "switch.p0", "io": "READ",
         "from": "CONGESTED", "to": "UNDERUTILIZED"},
        {"t": 20.0, "ev": "gc_start", "comp": "ssd0", "erases": 2,
         "relocation_programs": 64, "busy_us": 500.0},
        {"t": 25.0, "ev": "credit", "comp": "p0", "tenant": "t1", "credit": 8},
    ]


class TestAggregation:
    def test_counts_by_type(self):
        summary = JournalSummary(synthetic_events())
        assert summary.counts_by_type["credit"] == 2
        assert summary.counts_by_type["congestion"] == 2

    def test_state_residency_charged_between_transitions(self):
        summary = JournalSummary(synthetic_events())
        residency = summary.state_residency["switch.p0/READ"]
        # CONGESTED from t=5 to t=15; UNDERUTILIZED from t=15 to the
        # journal end at t=25.
        assert residency["CONGESTED"] == pytest.approx(10.0)
        assert residency["UNDERUTILIZED"] == pytest.approx(10.0)

    def test_bucket_and_gc_counters(self):
        summary = JournalSummary(synthetic_events())
        assert summary.bucket == {"denials": 1, "refills": 1}
        assert summary.gc["collections"] == 1
        assert summary.gc["erases"] == 2
        assert summary.gc["relocations"] == 64
        assert summary.gc["busy_us"] == 500.0

    def test_empty_journal(self):
        summary = JournalSummary([])
        assert summary.counts_by_type == {}
        assert "0 events" in summary.render()


class TestRendering:
    def test_render_includes_all_tables(self):
        text = JournalSummary(synthetic_events()).render()
        assert "events by type" in text
        assert "congestion-state residency" in text
        assert "token bucket" in text
        assert "garbage collection" in text
        assert "events by component" in text

    def test_tables_elided_when_no_data(self):
        events = [{"t": 0.0, "ev": "credit", "comp": "p0", "tenant": "t0", "credit": 8}]
        text = JournalSummary(events).render()
        assert "garbage collection" not in text
        assert "token bucket" not in text


class TestCli:
    def write_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in synthetic_events():
                handle.write(json.dumps(event) + "\n")
        return str(path)

    def test_summarize_journal_reads_file(self, tmp_path):
        path = self.write_journal(tmp_path)
        summary = summarize_journal(path)
        assert len(summary.events) == len(synthetic_events())

    def test_main_prints_report(self, tmp_path, capsys):
        path = self.write_journal(tmp_path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "congestion-state residency" in out
