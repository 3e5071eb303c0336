"""Every function under ``src/repro`` is named somewhere besides its own
``def`` in the program's Python files (``src/``, ``tools/``,
``benchmarks/``, ``examples/``), so no model code lives on for
``tests/`` alone.  Dunder methods are called implicitly and are skipped.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> why it may be named only at its def.
ALLOWED = {"clear_conditioning_cache": "a cache-reset seam"}


def test_every_src_function_is_named_outside_its_def():
    sources = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "tools", "benchmarks", "examples")
        for path in (ROOT / folder).rglob("*.py")
    }
    words = Counter(word for text in sources.values() for word in re.findall(r"\w+", text))
    defs = Counter(
        node.name
        for path, text in sources.items()
        if path.is_relative_to(ROOT / "src" / "repro")
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    unread = {name for name, count in defs.items() if words[name] <= count}
    # Delete a function named here, or move it into a test helper.
    assert unread == set(ALLOWED), f"named only at their def: {sorted(unread ^ set(ALLOWED))}"
