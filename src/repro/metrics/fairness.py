"""Fairness metrics from the paper's evaluation.

Section 5.1 defines *fair utilisation* (f-Util): a worker's achieved
bandwidth divided by its fair share of its own standalone maximum.
An ideal multi-tenancy mechanism drives every worker's f-Util to 1.
Jain's index is included as the standard cross-check.
"""

from __future__ import annotations

from typing import Sequence


def f_util(per_worker_bw: float, standalone_max_bw: float, total_workers: int) -> float:
    """Fair utilisation of one worker (paper Section 5.1).

    ``standalone_max_bw`` is the bandwidth the worker achieves running
    alone on the device; with ``total_workers`` co-located workers its
    fair share is ``standalone_max_bw / total_workers``.
    """
    if standalone_max_bw <= 0:
        raise ValueError("standalone bandwidth must be positive")
    if total_workers <= 0:
        raise ValueError("worker count must be positive")
    fair_share = standalone_max_bw / total_workers
    return per_worker_bw / fair_share


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index over a set of allocations.

    1.0 means perfectly equal; 1/n means one worker holds everything.
    """
    values = list(allocations)
    if not values:
        raise ValueError("no allocations")
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = sum(values)
    square_sum = sum(v * v for v in values)
    if total == 0 or square_sum == 0.0:
        # All-zero, or denormals whose squares underflow to zero:
        # treat as equal shares.
        return 1.0
    # Squares of denormals (around 1e-159) lose bits, which can push the
    # quotient a few 1e-7 outside the index's range; in-range values
    # pass through the clamp untouched.
    count = len(values)
    return min(1.0, max(1.0 / count, total * total / (count * square_sum)))
