#!/usr/bin/env python3
"""Executed bytecodes and Python calls per simulated IO, by function.

::

    python tools/opcount.py fio-read

Builds a ledger workload through ``benchmarks.ledger.workloads.WORKLOADS``
(read, never edited) at the ledger's default seed, starts its workers,
runs ``WINDOW_US`` simulated microseconds untraced so every queue
fills, then runs the next ``WINDOW_US`` under ``sys.settrace`` with
opcode events on.  Per function it counts every executed bytecode and every call
event (a generator resumption is one call; C functions have none), and
divides both by the IOs the workload's client sessions completed in
the traced window.  It prints the totals, then one row per function,
most bytecodes first.  The simulation is deterministic, so two runs
print the same counts.

Wall time follows executed bytecodes (``docs/architecture.md``, "The
per-IO floor"), so a perf change can size a cut here before it spends
ledger pairs on it.  Only the workloads that run on one ``Testbed``
(``fio-read``, ``mt-mixed``) have a simulated-time window to trace;
``kv-rack`` and ``suite-replay`` run whole (``run_population``,
``run_suite``), so the tool refuses them.  Stdlib only.
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

from benchmarks.ledger.workloads import WORKLOADS, FioWorkload  # noqa: E402

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


def count(workload: FioWorkload) -> Tuple[int, Dict[str, Tuple[int, int]]]:
    """IOs completed in the traced window, and ``{function: (bytecodes, calls)}``."""
    with tempfile.TemporaryDirectory() as scratch:
        testbed = workload.build(SEED, Path(scratch))
    sessions = [worker.session for worker in testbed.workers]
    for worker in testbed.workers:
        worker.start()
    sim = testbed.sim
    sim.run(until_us=WINDOW_US)
    done_before = sum(session.completed for session in sessions)

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
        sim.run(until_us=2 * WINDOW_US)
    finally:
        sys.settrace(None)
    ios = sum(session.completed for session in sessions) - done_before

    by_function: Dict[str, List[int]] = {}
    for code in ops.keys() | calls.keys():
        row = by_function.setdefault(_label(code), [0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
    return ios, {name: (row[0], row[1]) for name, row in by_function.items()}


def render(name: str, ios: int, by_function: Dict[str, Tuple[int, int]]) -> str:
    total_ops = sum(ops for ops, _ in by_function.values())
    total_calls = sum(calls for _, calls in by_function.values())
    per = max(ios, 1)
    lines = [
        f"{name}: {ios} IOs in {WINDOW_US:g} us traced after {WINDOW_US:g} us untraced",
        f"total: {total_ops / per:.1f} bytecodes/IO, {total_calls / per:.2f} calls/IO",
        f"{'bytecodes/IO':>12}  {'calls/IO':>8}  {'share':>6}  function",
    ]
    rows = sorted(by_function.items(), key=lambda item: (-item[1][0], item[0]))
    for function, (ops, calls) in rows:
        share = 100.0 * ops / total_ops if total_ops else 0.0
        lines.append(f"{ops / per:12.1f}  {calls / per:8.2f}  {share:5.1f}%  {function}")
    return "\n".join(lines)


def main(argv=None) -> int:
    windowed = [name for name, each in WORKLOADS.items() if isinstance(each, FioWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=windowed)
    args = parser.parse_args(argv)
    ios, by_function = count(WORKLOADS[args.workload])
    print(render(args.workload, ios, by_function))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
