"""Every public name has a reader outside the tests.

A stdlib-ast guard: each name the bvcfem package exports (its imports plus
the lazily imported _STUDY_NAMES) and each public PrimalSpace member must be
read in src/bvcfem (outside its own definition and the package's
re-exports), demos/ or bench/.  A read is a loaded name or attribute, a
name in a `from ... import`, or a string constant (bench/ wraps functions
by name).  The check goes by name, so a homonym counts as a reader.
ALLOWED lists the exceptions, each with its reason.
"""

import ast
from pathlib import Path

import pytest

import bvcfem
from bvcfem.mesh import build_square_mesh
from bvcfem.spaces import PrimalSpace, build_primal_space

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "bvcfem" / "__init__.py"
READERS = sorted(
    path
    for folder in ("src/bvcfem", "demos", "bench")
    for path in (ROOT / folder).glob("*.py")
    if path != INIT
)
ALLOWED = {
    "build_square_mesh": "patch-test fixture: the exactly meshed unit square",
    "make_square_domain": "patch-test fixture: the unit square with an affine exact solution",
}
PRIMAL_MEMBERS = {
    "mesh", "degree", "enriched", "element", "nb_std", "dof_count", "dof_table", "basis",
}


def read_names(source: str) -> set:
    """The names source reads, each outside a def or class of that name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, defining))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add((node.attr, defining))
        elif isinstance(node, ast.ImportFrom):
            found.update((alias.name, defining) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add((node.value, defining))
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return {name for name, defining in found if name not in defining}


READ = set().union(*(read_names(path.read_text()) for path in READERS))


def exported_names() -> list:
    tree = ast.parse(INIT.read_text())
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(imported | bvcfem._STUDY_NAMES)


def primal_members() -> set:
    V = build_primal_space(build_square_mesh(1, "triangle"), 1, enrich=True)
    names = set(vars(V)) | {name for name in dir(PrimalSpace) if not name.startswith("__")}
    return {name for name in names if not name.startswith("_")}


def test_checker_skips_own_definition_and_stores():
    source = (
        "def helper(x):\n"
        "    return helper(x - 1)\n"
        "class Space:\n"
        "    def __init__(self):\n"
        "        self.table = 1\n"
        "    def basis(self):\n"
        "        return self.table\n"
        "WRAPPED = ('bvcfem.study', 'solve')\n"
    )
    assert read_names(source) == {"x", "self", "table", "bvcfem.study", "solve"}


def test_primal_space_members():
    assert primal_members() == PRIMAL_MEMBERS


@pytest.mark.parametrize("name", exported_names())
def test_export_has_a_reader(name):
    assert name in READ or name in ALLOWED


@pytest.mark.parametrize("name", sorted(primal_members()))
def test_primal_member_has_a_reader(name):
    assert name in READ


def test_allowlist_names_only_unread_exports():
    assert set(ALLOWED) <= set(exported_names())
    assert not set(ALLOWED) & READ
