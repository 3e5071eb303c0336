#!/usr/bin/env python3
"""Executed bytecodes and Python calls per simulated IO or YCSB op, by function.

::

    python tools/opcount.py fio-read
    python tools/opcount.py kv-rack

Builds a ledger workload through ``benchmarks.ledger.workloads.WORKLOADS``
(read, never edited) at the ledger's default seed and counts, under
``sys.settrace`` with opcode events on, every executed bytecode and
every call event per function (a generator resumption is one call; C
functions have none).  It prints the totals, then one row per function,
most bytecodes first.  The simulation is deterministic, so two runs
print the same counts.

* ``fio-read`` and ``mt-mixed`` run on one ``Testbed``: the tool starts
  the workers, runs ``WINDOW_US`` simulated microseconds untraced so
  every queue fills, traces the next ``WINDOW_US`` and divides by the
  IOs the client sessions completed in the traced window.
* ``kv-rack`` has no such window (``run_population`` churns tenants
  from an empty rack back to an empty one), so the tool traces the
  whole ``run_population`` and divides by the YCSB operations its
  tenants completed (read plus update latency samples).  Slow: every
  bytecode of the run is traced (minutes on a 2-core x86 box).

Wall time follows executed bytecodes (``docs/architecture.md``, "The
per-IO floor"), so a perf change can size a cut here before it spends
ledger pairs on it.  ``suite-replay`` runs ``run_suite`` and the result
cache, not one simulation, so the tool refuses it.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
for _path in (SRC, ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.ledger.workloads import WORKLOADS, FioWorkload, KvRackWorkload  # noqa: E402

#: ``benchmarks/ledger/run.py``'s default ``--seed``.
SEED = 42

#: Simulated microseconds run untraced, then traced.  Per-IO averages
#: depend on the window, so every recorded figure uses this one.
WINDOW_US = 2000.0


def _label(code) -> str:
    path = Path(code.co_filename)
    for base in (SRC, ROOT):
        if path.is_relative_to(base):
            path = path.relative_to(base)
            break
    # ``co_qualname`` is new in Python 3.11.
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def _traced(run) -> Dict[str, Tuple[int, int]]:
    """Run ``run()`` under the tracer: ``{function: (bytecodes, calls)}``."""
    ops: Counter = Counter()
    calls: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        calls[frame.f_code] += 1
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)

    by_function: Dict[str, List[int]] = {}
    for code in ops.keys() | calls.keys():
        row = by_function.setdefault(_label(code), [0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
    return {name: (row[0], row[1]) for name, row in by_function.items()}


def count_window(workload: FioWorkload) -> Tuple[int, Dict[str, Tuple[int, int]]]:
    """IOs completed in the traced window, and ``{function: (bytecodes, calls)}``."""
    with tempfile.TemporaryDirectory() as scratch:
        testbed = workload.build(SEED, Path(scratch))
    sessions = [worker.session for worker in testbed.workers]
    for worker in testbed.workers:
        worker.start()
    sim = testbed.sim
    sim.run(until_us=WINDOW_US)
    done_before = sum(session.completed for session in sessions)
    by_function = _traced(lambda: sim.run(until_us=2 * WINDOW_US))
    ios = sum(session.completed for session in sessions) - done_before
    return ios, by_function


def count_population(workload: KvRackWorkload) -> Tuple[int, Dict[str, Tuple[int, int]]]:
    """YCSB ops the tenants completed, and ``{function: (bytecodes, calls)}``."""
    with tempfile.TemporaryDirectory() as scratch:
        cluster, specs = workload.build(SEED, Path(scratch))
    result: Dict[str, object] = {}
    by_function = _traced(lambda: result.update(cluster.run_population(specs)))
    ops = sum(
        int(tenant["read_latency"]["count"] + tenant["update_latency"]["count"])
        for tenant in result["tenants"]
    )
    return ops, by_function


def render(
    header: str, unit: str, units: int, by_function: Dict[str, Tuple[int, int]]
) -> str:
    total_ops = sum(ops for ops, _ in by_function.values())
    total_calls = sum(calls for _, calls in by_function.values())
    per = max(units, 1)
    lines = [
        header,
        f"total: {total_ops / per:.1f} bytecodes/{unit}, {total_calls / per:.2f} calls/{unit}"
        f" ({total_ops:,} bytecodes, {total_calls:,} calls)",
        f"{'bytecodes/' + unit:>12}  {'calls/' + unit:>8}  {'share':>6}  function",
    ]
    rows = sorted(by_function.items(), key=lambda item: (-item[1][0], item[0]))
    for function, (ops, calls) in rows:
        share = 100.0 * ops / total_ops if total_ops else 0.0
        lines.append(f"{ops / per:12.1f}  {calls / per:8.2f}  {share:5.1f}%  {function}")
    return "\n".join(lines)


def main(argv=None) -> int:
    traceable = [
        name
        for name, each in WORKLOADS.items()
        if isinstance(each, (FioWorkload, KvRackWorkload))
    ]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=traceable)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if isinstance(workload, KvRackWorkload):
        ops, by_function = count_population(workload)
        header = f"{args.workload}: {ops} YCSB ops in one traced run_population"
        print(render(header, "op", ops, by_function))
        return 0
    ios, by_function = count_window(workload)
    header = (
        f"{args.workload}: {ios} IOs in {WINDOW_US:g} us traced after {WINDOW_US:g} us untraced"
    )
    print(render(header, "IO", ios, by_function))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
