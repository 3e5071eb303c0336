"""The CI workflow names only tests that exist.

``.github/workflows/ci.yml`` runs some tests by pytest node id
(``tests/x.py::Class::test``) so that a collection change cannot drop
them silently.  A node id that no longer resolves would make that step
fail only in CI; this checks every one of them here, by parsing the
named module's source -- nothing is imported or run.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
_NODE_ID = re.compile(r"\b(tests/[\w/]+\.py)((?:::\w+)+)")
_TEST_FILE = re.compile(r"\btests/[\w/]+\.py\b")


def _defines(body, name):
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _resolves(path: str, chain: str) -> bool:
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in chain.strip(":").split("::"):
        node = _defines(scope, name)
        if node is None:
            return False
        scope = node.body
    return True


def test_every_node_id_in_the_workflow_resolves():
    text = WORKFLOW.read_text(encoding="utf-8")
    node_ids = _NODE_ID.findall(text)
    assert node_ids, "ci.yml names no node id: is the pattern still right?"
    files = set(_TEST_FILE.findall(text))
    missing_files = sorted(path for path in files if not (ROOT / path).is_file())
    assert not missing_files, f"ci.yml names test files that do not exist: {missing_files}"
    missing = [path + chain for path, chain in node_ids if not _resolves(path, chain)]
    assert not missing, f"ci.yml names tests that do not exist: {missing}"
