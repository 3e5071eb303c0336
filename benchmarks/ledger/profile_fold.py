"""Fold a cProfile run into self time per ``repro`` module.

The profile pass records function-call spans from outside the program:
``cProfile`` wraps the run, and its caller graph says which span caused
which.  A function's *self time* (its span minus the child spans it
covers) is charged to the ``repro.<package>.<module>`` that defines it.
Builtins and standard-library functions have no layer of their own, so
their self time is charged to the innermost ``repro`` function on the
stack: exactly, along the caller edge, when the direct caller is a
``repro`` function; otherwise split over the caller's own callers in
proportion to the cumulative time of each edge (``ast``, ``json`` and
``hashlib`` under ``harness.cache`` are the case that matters).  Only
time whose every caller chain ends outside ``repro`` -- the worker's own
frames -- stays unattributed.

cProfile charges a fixed cost per call, which inflates layers made of
many tiny calls: the fold ranks layers and localises a saving, the claim
itself always rests on the untraced ``norm_wall``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, Optional, Set, Tuple

FuncKey = Tuple[str, int, str]

_REPRO_MARK = f"{os.sep}repro{os.sep}"
UNATTRIBUTED = "(unattributed)"


def repro_module(func: FuncKey) -> Optional[str]:
    """``repro.pkg.module`` for a function defined under ``src/repro``."""
    filename = func[0]
    at = filename.rfind(_REPRO_MARK)
    if at < 0 or not filename.endswith(".py"):
        return None
    dotted = filename[at + 1 : -3].replace(os.sep, ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def fold(profile: cProfile.Profile, top: int = 40) -> Dict[str, Any]:
    """Self seconds and exact call counts per ``repro`` module.

    Returns ``{"total_s", "unattributed_s", "modules": {module:
    {"self_s", "calls", "inclusive_s"}}, "functions": [[name, self_s,
    calls], ...]}``; ``calls`` counts the module's own functions only,
    ``self_s`` includes the builtin/stdlib time charged to it, and
    ``inclusive_s`` is the cumulative time of the module's functions
    when entered from outside it (meaningful for a phase such as
    ``ssd.conditioning``, which never re-enters itself).
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owners_of(func: FuncKey, visiting: Set[FuncKey]) -> Dict[str, float]:
        """Shares (summing to 1) of the modules that pay for ``func``;
        empty when every caller chain ends outside ``repro``."""
        module = repro_module(func)
        if module is not None:
            return {module: 1.0}
        cached = owners.get(func)
        if cached is not None:
            return cached
        callers = stats[func][4] if func in stats else {}
        # Weight caller edges by cumulative time; by calls when the
        # clock saw nothing.
        column = 3 if any(edge[3] > 0 for edge in callers.values()) else 1
        visiting.add(func)
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            if caller in visiting or edge[column] <= 0:
                continue  # a recursion cycle pays for nothing by itself
            for module, share in owners_of(caller, visiting).items():
                shares[module] = shares.get(module, 0.0) + share * edge[column]
        visiting.discard(func)
        total = sum(shares.values())
        if total:
            shares = {module: share / total for module, share in shares.items()}
            owners[func] = shares
        return shares

    modules: Dict[str, Dict[str, float]] = {}

    def row_of(module: str) -> Dict[str, float]:
        return modules.setdefault(module, {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0})

    functions = []
    total_s = 0.0
    for func, (_, ncalls, self_s, cumulative_s, callers) in stats.items():
        total_s += self_s
        module = repro_module(func)
        if module is not None:
            row = row_of(module)
            row["self_s"] += self_s
            row["calls"] += ncalls
            row["inclusive_s"] += (
                sum(edge[3] for caller, edge in callers.items() if repro_module(caller) != module)
                if callers
                else cumulative_s
            )
            functions.append([f"{module}:{func[2]}", self_s, ncalls])
            continue
        functions.append([f"{os.path.basename(func[0])}:{func[2]}", self_s, ncalls])
        # The direct caller edge carries this function's own self time
        # exactly; beyond it the split is proportional.
        edge_self = sum(edge[2] for edge in callers.values())
        if not callers or edge_self <= 0:
            charges = [(self_s, owners_of(func, set()))]
        else:
            charges = [
                (self_s * edge[2] / edge_self, owners_of(caller, {func}))
                for caller, edge in callers.items()
                if edge[2] > 0
            ]
        for seconds, shares in charges:
            for owner, share in (shares or {UNATTRIBUTED: 1.0}).items():
                row_of(owner)["self_s"] += seconds * share
    unattributed = modules.pop(UNATTRIBUTED, {"self_s": 0.0})["self_s"]
    functions.sort(key=lambda item: -item[1])
    return {
        "total_s": total_s,
        "unattributed_s": unattributed,
        "modules": dict(sorted(modules.items())),
        "functions": functions[:top],
    }


def merge(folds) -> Dict[str, Any]:
    """Sum several folds (the phases of one timed region)."""
    out: Dict[str, Any] = {"total_s": 0.0, "unattributed_s": 0.0, "modules": {}}
    for item in folds:
        out["total_s"] += item["total_s"]
        out["unattributed_s"] += item["unattributed_s"]
        for module, row in item["modules"].items():
            into = out["modules"].setdefault(
                module, {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0}
            )
            for key, value in row.items():
                into[key] += value
    return out


def total(folded: Dict[str, Any], prefix: str, column: str = "self_s") -> float:
    """``column`` summed over ``repro.<prefix>`` and everything below it."""
    return sum(
        row[column]
        for module, row in folded["modules"].items()
        if module == f"repro.{prefix}" or module.startswith(f"repro.{prefix}.")
    )
