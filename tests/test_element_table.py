"""The cell kind is decided once, by table lookup, never by comparison.

A stdlib-ast check over the modules that use the element table: none
compares cell_kind to a string literal, so a new cell kind is one entry of
spaces.ELEMENTS (and mesh.REFERENCE_CELLS), not an edit of every branch.
A second check keeps the volume kernels on one path: assembly and analysis
read every cell through PrimalSpace.basis and PrimalSpace.dof_table, never
through a separate pass over the cells with bubbles.  A third keeps every
ELEMENTS entry data: its basis and bubbles come from one formula over its
node and coordinate tables, not from a function of its own.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from bvcfem.spaces import ELEMENTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bvcfem"
MODULES = ("spaces.py", "assembly.py", "analysis.py")


def _is_cell_kind(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "cell_kind") or (
        isinstance(node, ast.Name) and node.id == "cell_kind"
    )


def _is_literal(node) -> bool:
    """A string literal, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_literal(n) for n in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_comparisons(source: str) -> list:
    """Line numbers where cell_kind is compared to a string literal."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(map(_is_literal, operands)) and any(map(_is_cell_kind, operands)):
            out.append(node.lineno)
    return sorted(out)


def test_checker_flags_kind_branches():
    source = (
        'if mesh.cell_kind == "triangle":\n'
        "    pass\n"
        'x = 3 if "quad" != cell_kind else 4\n'
        "y = ELEMENTS[mesh.cell_kind]\n"
        'z = mesh.cell_kind in ("quad",)\n'
        "v = mesh.cell_kind in ELEMENTS\n"
        'w = kind == "quad"\n'
    )
    assert kind_comparisons(source) == [1, 3, 5]


@pytest.mark.parametrize("name", MODULES)
def test_no_cell_kind_branch(name):
    assert kind_comparisons((PACKAGE / name).read_text()) == []


SECOND_PATH = {"local_basis", "bubble_cells", "nb_std"}


def names(source: str) -> set:
    """Every variable, attribute, definition, import, argument and keyword name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        for attr in ("id", "attr", "name", "arg"):
            value = getattr(node, attr, None)
            if isinstance(value, str):
                out.add(value)
    return out


def test_one_volume_path():
    found = {name: names((PACKAGE / name).read_text()) & SECOND_PATH
             for name in ("assembly.py", "analysis.py")}
    assert found == {"assembly.py": set(), "analysis.py": set()}


@pytest.mark.parametrize("kind", ELEMENTS)
def test_every_element_is_data(kind):
    element = ELEMENTS[kind]
    callable_fields = {f.name for f in fields(element) if callable(getattr(element, f.name))}
    assert callable_fields == {"rule"}
