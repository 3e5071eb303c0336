"""Summarise a JSONL run journal into per-type and per-component tables.

Usage::

    python -m repro run fig09_dynamic --trace out.jsonl
    python -m repro.obs.report out.jsonl

The report aggregates the journal written by :class:`repro.obs.trace.
TraceBuffer`: event counts by type and by component, congestion-state
residency, token-bucket pressure and garbage collection work.  Per-IO
latency is not journalled: ``--stats`` prints each client's stage
waterfall, folded from the requests' own stamps.  The report only reads
the journal -- rerunning it never changes an experiment's results.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.obs.trace import TraceType, read_jsonl


class JournalSummary:
    """Aggregates computed from one journal's event stream."""

    def __init__(self, events: List[dict]):
        self.events = events
        self.counts_by_type: Dict[str, int] = {}
        self.counts_by_component: Dict[str, Dict[str, int]] = {}
        self.state_residency: Dict[str, Dict[str, float]] = {}
        self.bucket: Dict[str, int] = {"denials": 0, "refills": 0}
        self.gc = {"collections": 0, "erases": 0, "relocations": 0, "busy_us": 0.0}
        self._last_state: Dict[str, tuple] = {}
        self.t_first: Optional[float] = None
        self.t_last: Optional[float] = None
        for event in events:
            self._fold(event)
        self._close_states()

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _fold(self, event: dict) -> None:
        kind = event["ev"]
        t = event["t"]
        comp = event.get("comp", "?")
        if self.t_first is None:
            self.t_first = t
        self.t_last = t
        self.counts_by_type[kind] = self.counts_by_type.get(kind, 0) + 1
        per_comp = self.counts_by_component.setdefault(comp, {})
        per_comp[kind] = per_comp.get(kind, 0) + 1
        if kind == TraceType.CONGESTION.value:
            monitor = f"{comp}/{event.get('io', '?')}"
            previous = self._last_state.get(monitor)
            if previous is not None:
                state, since = previous
                residency = self.state_residency.setdefault(monitor, {})
                residency[state] = residency.get(state, 0.0) + (t - since)
            self._last_state[monitor] = (event.get("to", "?"), t)
        elif kind == TraceType.BUCKET_DENY.value:
            self.bucket["denials"] += 1
        elif kind == TraceType.BUCKET_REFILL.value:
            self.bucket["refills"] += 1
        elif kind == TraceType.GC_START.value:
            self.gc["collections"] += 1
            self.gc["erases"] += event.get("erases", 0)
            self.gc["relocations"] += event.get("relocation_programs", 0)
            self.gc["busy_us"] += event.get("busy_us", 0.0)

    def _close_states(self) -> None:
        """Charge the final state of each monitor up to the journal end."""
        if self.t_last is None:
            return
        for monitor, (state, since) in self._last_state.items():
            residency = self.state_residency.setdefault(monitor, {})
            residency[state] = residency.get(state, 0.0) + (self.t_last - since)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        from repro.harness.report import format_table

        parts: List[str] = []
        span_us = (self.t_last - self.t_first) if self.events else 0.0
        parts.append(
            f"journal: {len(self.events)} events over "
            f"{span_us / 1e6:.3f} simulated seconds"
        )
        parts.append(
            format_table(
                ["event", "count"],
                sorted(self.counts_by_type.items()),
                title="events by type",
            )
        )
        if self.state_residency:
            rows = []
            for monitor in sorted(self.state_residency):
                residency = self.state_residency[monitor]
                total = sum(residency.values()) or 1.0
                for state in sorted(residency):
                    rows.append(
                        (monitor, state, residency[state] / 1e3,
                         100.0 * residency[state] / total)
                    )
            parts.append(
                format_table(
                    ["monitor", "state", "ms", "%"],
                    rows,
                    title="congestion-state residency",
                )
            )
        if self.bucket["denials"] or self.bucket["refills"]:
            parts.append(
                format_table(
                    ["counter", "count"],
                    sorted(self.bucket.items()),
                    title="token bucket",
                )
            )
        if self.gc["collections"]:
            parts.append(
                format_table(
                    ["counter", "value"],
                    sorted(self.gc.items()),
                    title="garbage collection",
                )
            )
        components = [
            (comp, sum(counts.values()))
            for comp, counts in sorted(self.counts_by_component.items())
        ]
        parts.append(
            format_table(["component", "events"], components, title="events by component")
        )
        return "\n\n".join(parts)


def summarize_journal(path: str) -> JournalSummary:
    """Load ``path`` and aggregate it."""
    return JournalSummary(read_jsonl(path))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a simulation trace journal (JSONL)",
    )
    parser.add_argument("journal", help="path written by `python -m repro run ... --trace`")
    args = parser.parse_args(argv)
    try:
        summary = summarize_journal(args.journal)
    except OSError as exc:
        print(f"cannot read journal {args.journal!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # malformed JSON line
        print(f"malformed journal {args.journal!r}: {exc}", file=sys.stderr)
        return 2
    try:
        print(summary.render())
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader went away (`report x.jsonl | head`): exit as `repro.cli.main`
        # does, with stdout on devnull so the exit flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
