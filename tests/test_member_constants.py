"""No function body under ``src/repro`` reads an op or state member
through its enum class.

``IoOp.READ`` falls back to the enum metaclass's ``__getattr__`` on
CPython 3.11, about 100 ns against about 14 ns for a module global, and
the switch, the KV client and the YCSB generator test an op or a
congestion state several times per IO.  So each enum's members are also
module-level constants, and per-IO code compares against those:

===================  ============================  ============
enum                 constants live in             prefix
===================  ============================  ============
``IoOp``             ``repro.ssd.commands``        ``OP_``
``CongestionState``  ``repro.core.congestion``     ``STATE_``
``YcsbOp``           ``repro.workloads.ycsb``      ``YCSB_``
===================  ============================  ============

Module-level statements (the constants' own definitions) may read
through the class; function and lambda bodies may not.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

from repro.core import congestion
from repro.ssd import commands
from repro.workloads import ycsb

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CONSTANTS = {
    "IoOp": (commands.IoOp, commands, "OP_"),
    "CongestionState": (congestion.CongestionState, congestion, "STATE_"),
    "YcsbOp": (ycsb.YcsbOp, ycsb, "YCSB_"),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def class_reads(source: str, filename: str = "<source>") -> List[str]:
    """``file:line Enum.MEMBER`` for each member read through its class
    inside a function or lambda body."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if in_function and isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            entry = CONSTANTS.get(name)
            if entry is not None and node.attr in entry[0].__members__:
                found.append(f"{filename}:{node.lineno} {name}.{node.attr}")
        inside = in_function or isinstance(node, _FUNCTIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source, filename), False)
    return found


def test_the_scan_sees_reads_in_every_kind_of_body():
    source = (
        "OP = IoOp.READ\n"
        "def f(op):\n"
        "    return op is IoOp.WRITE\n"
        "class C:\n"
        "    def m(self):\n"
        "        return commands.IoOp.TRIM, CongestionState.CONGESTED\n"
        "g = lambda op: op is YcsbOp.SCAN\n"
        "def h():\n"
        "    return IoOp.is_read, YcsbOp, other.READ\n"
    )
    assert class_reads(source) == [
        "<source>:3 IoOp.WRITE",
        "<source>:6 IoOp.TRIM",
        "<source>:6 CongestionState.CONGESTED",
        "<source>:7 YcsbOp.SCAN",
    ]


def test_no_function_body_reads_a_member_through_its_class():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50
    found = []
    for path in files:
        found += class_reads(path.read_text(), str(path.relative_to(SRC.parent)))
    assert found == []


@pytest.mark.parametrize("enum_name", sorted(CONSTANTS))
def test_every_member_has_its_constant(enum_name):
    enum_class, module, prefix = CONSTANTS[enum_name]
    for name, member in enum_class.__members__.items():
        assert getattr(module, prefix + name) is member
