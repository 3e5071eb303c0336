"""The CI workflow names only tests that exist.

``.github/workflows/ci.yml`` runs some tests by pytest node id
(``tests/x.py::Class::test``) so that a collection change cannot drop
them silently.  A node id that no longer resolves would make that step
fail only in CI; this checks every one of them here, by parsing the
named module's source -- nothing is imported or run.  A bracketed
parameter id must be one the test is collected with: for
``tests/golden/test_records.py::test_record_matches_frozen``, a literal
key of ``RECORDS`` in ``tests/golden/records.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
_NODE_ID = re.compile(r"\b(tests/[\w/]+\.py)((?:::\w+)+)(?:\[([^\]\s]*)\])?")
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


def _parameter_ids(node_id: str) -> set:
    if node_id != "tests/golden/test_records.py::test_record_matches_frozen":
        return set()
    module = ast.parse((ROOT / "tests/golden/records.py").read_text(encoding="utf-8"))
    (records,) = [
        node.value for node in module.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RECORDS"
    ]
    return {key.value for key in records.keys}


def _unresolved(text: str) -> list:
    return [
        f"{path}{chain}[{parameter}]" if parameter else path + chain
        for path, chain, parameter in _NODE_ID.findall(text)
        if not _resolves(path, chain) or parameter and parameter not in _parameter_ids(path + chain)
    ]


def test_every_node_id_in_the_workflow_resolves():
    text = WORKFLOW.read_text(encoding="utf-8")
    node_ids = _NODE_ID.findall(text)
    assert node_ids, "ci.yml names no node id: is the pattern still right?"
    files = set(_TEST_FILE.findall(text))
    missing_files = sorted(path for path in files if not (ROOT / path).is_file())
    assert not missing_files, f"ci.yml names test files that do not exist: {missing_files}"
    missing = _unresolved(text)
    assert not missing, f"ci.yml names tests that do not exist: {missing}"


def test_a_bracketed_id_must_be_a_parameter_of_its_test():
    record = "tests/golden/test_records.py::test_record_matches_frozen"
    assert _unresolved(f"{record}[kv_identity]") == []
    assert _unresolved(f"{record}[kv_identiy]") == [f"{record}[kv_identiy]"]
    assert _unresolved("tests/test_docs.py::test_every_named_test_or_tool_file_exists[x]")
