"""The docs name only code that exists.

Every dotted ``repro.*`` name in the prose docs must import as a module
or resolve as an attribute of one, and every ``tests/...py`` or
``tools/...py`` path they name must be a file, so deleting a module or
a test the docs still describe fails here rather than leaving the docs
to rot.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/architecture.md", "docs/reproducing.md", "DESIGN.md", "README.md")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_SCRIPT = re.compile(r"(?<![\w/.-])(?:tests|tools)/[\w/]+\.py\b")


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


def test_every_named_test_or_tool_file_exists():
    named = {
        path: doc
        for doc in DOCS
        for path in _SCRIPT.findall((ROOT / doc).read_text(encoding="utf-8"))
    }
    assert "tests/golden/records.py" in named, "is the pattern still right?"
    missing = sorted(f"{doc}: {path}" for path, doc in named.items() if not (ROOT / path).is_file())
    assert not missing, f"the docs name files that do not exist: {missing}"
