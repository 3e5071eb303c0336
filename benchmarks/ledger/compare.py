"""Judge record B against record A, one row per (workload, metric).

::

    python -m benchmarks.ledger.compare A B

``A`` and ``B`` are record files written by ``run.py`` or directories of
them (``--out``).  Verdicts:

``ok``          within the metric's bound (exact metrics: identical)
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  A's own run-to-run spread is wider than the bound, and B's
                runs do not all read on one side of A's; or a single reading
                (a per-layer host row) moved by more than the bound

Simulated numbers, ``anchor_err_pct``, ``failed_share``, ``sim_drift``
and every count row are exact: two records of one seed must agree to the
last digit, which is what "a host-only change" means.  Timings use the
bounds of ``BENCHMARK.json``; ``setup_s`` must also move by more than
0.05 s.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchmarks.ledger.calibrate import spread
from benchmarks.ledger.metrics import END_TO_END, LEDGER_ONLY, PER_LAYER

#: Bound for per-layer host-time rows (they have none of their own).
LAYER_TIMING_BOUND = 0.10
#: ``setup_s`` is "worse" only beyond its bound *and* this many seconds.
SETUP_FLOOR_S = 0.05

_TIMING_UNITS = ("cu", "cu/Mevent", "s")
_TIMING_ROWS = (
    "harness.cache_bytes_written",  # entries embed wall-clock stamps
    "sim.batch_ratio",
    "sim.shard_overhead_ratio",
    "harness.cold_overhead_share",
    "obs.profile_overhead_ratio",
    "obs.probe_overhead_ratio",
)

#: name -> (better, bound or None for exact)
RULES: Dict[str, Tuple[str, Optional[float]]] = {}
for _name, _unit, _better, _bound, _exact in END_TO_END:
    RULES[_name] = (_better, None if _exact else _bound)
for _name, _unit, _better in LEDGER_ONLY:
    RULES[_name] = (_better, None)
for _name, _unit, _better, _ in PER_LAYER:
    timing = _unit in _TIMING_UNITS or _name in _TIMING_ROWS
    RULES[_name] = (_better, LAYER_TIMING_BOUND if timing else None)


def load(path: Path) -> Dict[Tuple[str, bool], Dict[str, Any]]:
    """Records under ``path``, keyed by (workload, traced)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        records[(record["workload"], record["traced"])] = record
    return records


def verdict(name: str, a: Dict[str, Any], b: Dict[str, Any], same_seed: bool) -> str:
    """Classify metric ``name`` of record B against record A."""
    better, bound = RULES[name]
    va, vb = a["value"], b["value"]
    if va is None or vb is None:
        return "ok" if va == vb else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:
        if not same_seed:
            return "unresolved"
        if va == vb:
            return "ok"
        return "worse" if sign * (vb - va) > 0 else "better"
    change = sign * (vb - va) / abs(va) if va else sign * (vb - va)
    if name == "setup_s" and abs(vb - va) <= SETUP_FLOOR_S:
        return "ok"
    if abs(change) <= bound:
        return "ok"
    samples_a, samples_b = a.get("samples"), b.get("samples")
    if not (samples_a and samples_b):
        return "unresolved"  # one reading a side: its spread is unknown
    if spread(samples_a) > bound and not (
        all(sign * (y - x) < 0 for x in samples_a for y in samples_b)
        or all(sign * (y - x) > 0 for x in samples_a for y in samples_b)
    ):
        return "unresolved"
    return "worse" if change > 0 else "better"


def rows(
    a: Dict[Tuple[str, bool], Dict[str, Any]], b: Dict[Tuple[str, bool], Dict[str, Any]]
) -> Iterator[List[str]]:
    for key in sorted(a.keys() & b.keys()):
        record_a, record_b = a[key], b[key]
        same_seed = record_a["seed"] == record_b["seed"]
        for name, metric_a in record_a["metrics"].items():
            metric_b = record_b["metrics"].get(name)
            if metric_b is None or name not in RULES:
                continue
            yield [
                key[0],
                name,
                _text(metric_a["value"]),
                _text(metric_b["value"]),
                metric_a["unit"],
                verdict(name, metric_a, metric_b, same_seed),
            ]


def _text(value: Any) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    table = list(rows(load(Path(argv[0])), load(Path(argv[1]))))
    if not table:
        print("no (workload, metric) appears in both records")
        return 2
    widths = [max(len(row[column]) for row in table) for column in range(6)]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    counts: Dict[str, int] = {}
    for row in table:
        counts[row[5]] = counts.get(row[5], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
