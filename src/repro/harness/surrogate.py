"""``flatten_numeric``: the numeric leaves of a JSON-shaped result.

Nothing in ``src/repro`` calls it.  It stays, with its signature, its
``FLATTEN_LIMIT`` default and its output unchanged, because the perf
ledger imports it from here (``benchmarks/ledger/run.py``) to digest
every workload's simulated result.
"""

from __future__ import annotations

import math
from typing import Any, Dict

#: Cap on numeric leaves extracted from one result (deterministic:
#: the lexicographically first paths survive).
FLATTEN_LIMIT = 80


def flatten_numeric(
    value: Any, prefix: str = "", limit: int = FLATTEN_LIMIT
) -> Dict[str, float]:
    """Flatten a JSON-shaped result into ``{dotted.path: float}``.

    Only finite ints/floats survive (bools are control flags, not
    metrics).  Paths sort lexicographically and the first ``limit``
    are kept, so the extraction is deterministic regardless of dict
    iteration order or result size.
    """
    flat: Dict[str, float] = {}

    def visit(node: Any, path: str) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            if math.isfinite(node):
                flat[path] = float(node)
            return
        if isinstance(node, dict):
            for key in node:
                if isinstance(key, str):
                    visit(node[key], f"{path}.{key}" if path else key)
            return
        if isinstance(node, (list, tuple)):
            for index, item in enumerate(node):
                visit(item, f"{path}.{index}" if path else str(index))

    visit(value, prefix)
    if len(flat) <= limit:
        return dict(sorted(flat.items()))
    return dict(sorted(flat.items())[:limit])
