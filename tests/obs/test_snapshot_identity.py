"""Names and values of a session's metrics snapshot, frozen.

``test_session.py`` checks what a snapshot must contain; this pins all
of it: every name and value a capture session reads off a Gimbal tiny
testbed and off an unsharded two-JBOF rack, each built in its own
session.  Values are deterministic except the probe's wall-clock
gauges (``kernel.wall_*``), which are left out.  A change to which
component reports what, under which prefix, fails here.

Regenerate (after an *intentional* metrics change only)::

    PYTHONPATH=src python -m tests.obs.test_snapshot_identity
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.session import capture
from tests.obs.test_session import small_rack, tiny_testbed

SNAPSHOT_PATH = Path(__file__).resolve().parent / "data" / "snapshots.json"


def _snapshot(session) -> dict:
    return {
        name: value
        for name, value in session.registry.snapshot().items()
        if not name.startswith("kernel.wall_")
    }


def take_snapshots() -> dict:
    with capture() as session:
        testbed = tiny_testbed()
        testbed.run(warmup_us=2000.0, measure_us=8000.0)
        testbed_snapshot = _snapshot(session)
    with capture() as session:
        cluster = small_rack()
        cluster.add_instance("db0", "A", record_count=64)
        cluster.load_all()
        rack_snapshot = _snapshot(session)
    # A JSON round trip, so a live snapshot compares like the frozen one.
    return json.loads(json.dumps({"testbed": testbed_snapshot, "rack": rack_snapshot}))


def test_snapshots_match_the_frozen_ones():
    frozen = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    live = take_snapshots()
    for topology in ("testbed", "rack"):
        assert sorted(live[topology]) == sorted(frozen[topology]), topology
        assert live[topology] == frozen[topology], topology


if __name__ == "__main__":
    SNAPSHOT_PATH.parent.mkdir(exist_ok=True)
    SNAPSHOT_PATH.write_text(
        json.dumps(take_snapshots(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {SNAPSHOT_PATH}")
