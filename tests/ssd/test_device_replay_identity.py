"""Command-level identity of the SSD device's write path.

The golden figures pin aggregates and ``conditioning_identity`` pins the
conditioned layouts; this pins what the device does with each command.
One seeded open-loop schedule on a fragmented ``DIFF_GEOMETRY`` device
mixes 1- to 64-page writes (enough of them to fill the write buffer and
queue behind it, and to make the FTL collect), trims and reads that hit
buffered pages.  Every completion time, the host and FTL counters, the
final mapping and erase counts, the number of events the run scheduled
and every ``GC_START`` / ``GC_END`` payload a tracer saw are hashed and
compared against a digest frozen under ``tests/ssd/data/``.  A change
that admits one write a drain early, charges one GC installment to the
wrong page or schedules one drain event more fails here.

Regenerate (after an *intentional* behaviour change only)::

    PYTHONPATH=src python -m tests.ssd.test_device_replay_identity
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.obs.trace import TraceBuffer, TraceType
from repro.ssd.profiles import DCT983_PROFILE
from tests.ssd.diffkit import generate_workload, replay

DIGEST_PATH = Path(__file__).resolve().parent / "data" / "device_replay.json"

#: Offered writes (~0.5 x 32.5 pages per 500 us) outrun the fragmented
#: device's drain rate in bursts: about two writes in five wait for
#: buffer space, the rest are admitted at once.
WORKLOAD = {
    "ops": 600,
    "seed": 41,
    "max_pages": 64,
    "mean_gap_us": 500.0,
    "read_fraction": 0.4,
    "trim_fraction": 0.06,
}


def _sha(value) -> str:
    # json renders floats by repr, which round-trips every bit.
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("ascii")).hexdigest()


def replay_digest() -> dict:
    tracer = TraceBuffer()
    result = replay(generate_workload(**WORKLOAD), condition="fragmented", tracer=tracer)
    # The fastest a write completes: controller plus buffer write.
    unqueued_us = DCT983_PROFILE.t_ctrl_cmd_us + DCT983_PROFILE.t_buf_write_us
    events = tracer.events
    return {
        "workload": WORKLOAD,
        "writes": result.device_stats.write_commands,
        "waited_writes": sum(
            1
            for _, op, _, _, submit_us, complete_us in result.completions
            if op == "write" and complete_us - submit_us > 4 * unqueued_us
        ),
        "trims": result.device_stats.trim_commands,
        "buffer_read_hits": result.device_stats.buffer_read_hits,
        "gc_programs": result.ftl_stats.gc_programs,
        "gc_events": {
            kind.value: sum(1 for event in events if event["ev"] == kind.value)
            for kind in (TraceType.GC_START, TraceType.GC_END)
        },
        "scheduled_events": result.scheduled_events,
        "completions": _sha(result.completions),
        "state": _sha(
            {
                "device_stats": asdict(result.device_stats),
                "ftl_stats": asdict(result.ftl_stats),
                "page_map": result.page_map,
                "erase_counts": result.erase_counts,
                "final_time_us": result.final_time_us,
            }
        ),
        "trace": _sha(events),
    }


def test_device_replay_matches_frozen_digest():
    digest = replay_digest()
    # A schedule that never backed up, collected or hit the buffer
    # would pin only the easy path.
    assert 0.2 * digest["writes"] < digest["waited_writes"] < 0.8 * digest["writes"]
    assert digest["gc_events"]["gc_start"] > 50
    assert digest["trims"] > 0 and digest["buffer_read_hits"] > 0
    assert digest == json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DIGEST_PATH.parent.mkdir(exist_ok=True)
    DIGEST_PATH.write_text(json.dumps(replay_digest(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_PATH}")
