#!/usr/bin/env python3
"""Alternating parent/change pairs of the perf ledger, and the verdict.

::

    python tools/ledger_pairs.py PARENT_TREE CHANGE_TREE --workload mt-mixed \\
        [--workload ...] [--seed 42] [--pairs 10] [--seconds 10]

Runs ``benchmarks/ledger/run.py`` in the two checkouts in turn (the
parent first in odd pairs, the change first in even ones, each run in
its own tree with its own ``--out``), one invocation per workload: a
worker's ``ru_maxrss`` starts at its parent's high-water mark (Linux
keeps it across fork and exec), so a workload that followed another in
one ``run.py`` would read ``run.py``'s grown footprint as its own
``peak_rss_mb``.  It prints for every workload each reading of
``norm_wall``, ``setup_s`` and ``peak_rss_mb`` and, for each of the
three, both medians, the parent's quartiles, the pairs won and the
verdict of ``benchmarks/ledger/README.md``: a gain is claimed when the change wins
at least nine tenths of the pairs (ties count for neither side) and the
medians are apart by more than the parent's own quartile spread.  It
also prints each side's median ``setup_s`` and ``peak_rss_mb`` and
whether the change is ``within bound`` or ``OVER`` the share of the
parent's median that the change tree's ``BENCHMARK.json`` allows (read,
never written), so a run the pipeline would refuse for set-up time or
memory says so here.

A host-only change must leave the simulation alone, so the exit code is
1 when a simulated metric, ``failed_share`` or ``sim_drift`` differs
between any two runs (both sides use one seed); the verdict itself is
information, not an exit code.  Stdlib only; nothing is imported from
either tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Deterministic per seed: one run that disagrees with another is drift.
EXACT = (
    "sim_ops_per_s",
    "sim_read_tail_us",
    "sim_fairness",
    "anchor_err_pct",
    "failed_share",
    "sim_drift",
)
#: Lower-is-better host metrics, each judged by the claim rule.
JUDGED = ("norm_wall", "setup_s", "peak_rss_mb")
#: Host metrics reported against their contract bound.
BOUNDED = ("setup_s", "peak_rss_mb")


def judge(parent: Sequence[float], change: Sequence[float]) -> Dict[str, float]:
    """The claim rule over paired readings of a lower-is-better metric."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of readings per side")
    wins = sum(1 for p, c in zip(parent, change) if c < p)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gain = parent_median - change_median
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "gain_pct": 100.0 * gain / parent_median,
        # Fewer than ten pairs cannot carry a claim, whatever they read.
        "claimed": len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > q3 - q1,
    }


def over_bound(parent_median: float, change_median: float, spec: dict) -> bool:
    """Is the change worse than the parent by more than ``spec``'s bound
    (a share of the parent's median, in the metric's ``better`` sense)?"""
    worse_by = change_median - parent_median
    if spec["better"] == "higher":
        worse_by = -worse_by
    return worse_by > spec["bound"] * abs(parent_median)


def read_bounds(tree: Path) -> Dict[str, dict]:
    """``BENCHMARK.json``'s end-to-end entries by metric name."""
    contract = json.loads((tree / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in contract["end_to_end"]}


def run_ledger(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` invocation in ``tree`` for one workload; the record it wrote."""
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as out:
        command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--out", out]
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"run.py failed in {tree} (exit {done.returncode})")
        return json.loads((Path(out) / f"{workload}.json").read_text())


def report(
    workload: str, seed: int, readings: Dict[Tuple[str, str], List[float]], bounds: Dict[str, dict]
) -> List[str]:
    """One workload's verdict lines: each ``JUDGED`` metric under
    :func:`judge`, then each ``BOUNDED`` one against its bound.
    ``readings`` maps (metric, side) to that side's readings in pair
    order."""
    lines = []
    for name in JUDGED:
        verdict = judge(readings[name, "parent"], readings[name, "change"])
        lines.append(
            f"{workload} {name} seed {seed}: parent median "
            f"{verdict['parent_median']:.4g} (quartiles {verdict['parent_q1']:.4g}-"
            f"{verdict['parent_q3']:.4g}), change median {verdict['change_median']:.4g} "
            f"{bounds[name]['unit']}, {verdict['gain_pct']:+.1f} % gain, "
            f"{verdict['wins']}/{verdict['pairs']} wins: "
            f"{'gain claimed' if verdict['claimed'] else 'no claim'}"
        )
    for name in BOUNDED:
        parent_median = statistics.median(readings[name, "parent"])
        change_median = statistics.median(readings[name, "change"])
        spec = bounds[name]
        lines.append(
            f"{workload} {name}: parent median {parent_median:.3f}, change median "
            f"{change_median:.3f} {spec['unit']}: "
            f"{'OVER' if over_bound(parent_median, change_median, spec) else 'within'}"
            f" bound ({spec['bound']:.0%} of the parent's median)"
        )
    return lines


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = read_bounds(sides["change"])
    readings: Dict[str, Dict[Tuple[str, str], List[float]]] = {}
    exact: Dict[Tuple[str, str], set] = {}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            for workload in args.workload:
                metrics = run_ledger(sides[side], workload, args.seed, args.seconds)["metrics"]
                for name in set(JUDGED + BOUNDED):
                    readings.setdefault(workload, {}).setdefault((name, side), []).append(
                        metrics[name]["value"]
                    )
                for name in EXACT:
                    exact.setdefault((workload, name), set()).add((side, metrics[name]["value"]))
        for workload in args.workload:
            for name in JUDGED:
                parent = readings[workload][name, "parent"][-1]
                change = readings[workload][name, "change"][-1]
                print(
                    f"pair {pair:2d} ({order[0]} first) {workload} {name}: "
                    f"parent {parent:.4g} change {change:.4g} {bounds[name]['unit']}"
                    f"{'  win' if change < parent else ''}",
                    flush=True,
                )

    drifted = False
    for workload in args.workload:
        for line in report(workload, args.seed, readings[workload], bounds):
            print(line)
        for name in EXACT:
            values = {value for _, value in exact[workload, name]}
            if len(values) > 1:
                drifted = True
                seen = sorted(exact[workload, name], key=repr)
                print(f"{workload} {name} DIFFERS between runs: {seen}")
    if not drifted:
        print(f"simulated metrics, failed_share and sim_drift identical in all {2 * args.pairs} runs")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
