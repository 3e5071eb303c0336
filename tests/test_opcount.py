"""``tools/opcount.py``: bytecode and call counts per simulated IO or YCSB op.

``kv-rack`` traces a whole ``run_population`` (minutes), so only its
argument parsing is exercised here, through the refusal of the one
workload the tool cannot trace.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opcount.py"


def run_tool(*args: str) -> str:
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout


def test_two_runs_print_identical_counts():
    first = run_tool("fio-read")
    assert first == run_tool("fio-read")
    lines = first.splitlines()
    assert lines[0].startswith("fio-read: ") and " IOs in 2000 us traced" in lines[0]
    assert lines[1].startswith("total: ") and "bytecodes/IO" in lines[1]
    # Every IO completes through the fio worker's callback exactly once.
    (on_complete,) = [line for line in lines if line.endswith(":FioWorker._on_complete")]
    assert on_complete.split()[1] == "1.00"


def test_workloads_without_a_window_are_refused():
    child = subprocess.run(
        [sys.executable, str(TOOL), "suite-replay"], capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 2
    assert "invalid choice" in child.stderr
    # The choices are the three workloads that run one simulation.
    assert "'fio-read', 'mt-mixed', 'kv-rack'" in child.stderr
