"""The docs name only code that exists.

Every dotted ``repro.*`` name in the prose docs must import as a module
or resolve as an attribute of one, so deleting a module the docs still
describe fails here rather than leaving the docs to rot.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/architecture.md", "docs/reproducing.md", "DESIGN.md", "README.md")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _names(doc: str) -> list:
    return sorted(set(_DOTTED.findall((ROOT / doc).read_text(encoding="utf-8"))))


def _resolves(name: str) -> bool:
    """``name`` is a module, or an attribute chain under the longest
    importable module prefix."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_repro_name_resolves(doc):
    names = _names(doc)
    assert names, f"{doc} names no repro.* module: is the pattern still right?"
    missing = [name for name in names if not _resolves(name)]
    assert not missing, f"{doc} names code that does not exist: {missing}"
