"""No module of the package raises a value to a literal integer power >= 3.

numpy computes x**2 as x*x, but hands every larger exponent to libm pow,
which costs about 30x more per point than the products it stands for.  A
stdlib-ast check over every module in src/bvcfem: none writes x ** k,
np.power(x, k), np.float_power(x, k), pow(x, k) or x **= k for a literal
whole number k >= 3, unless x is itself a number literal.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bvcfem"
POWER_CALLS = {"power", "float_power", "pow"}


def _whole(node):
    """The value of a whole-number literal, None for anything else."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if float(node.value).is_integer():
            return int(node.value)
    return None


def _power(node):
    """(base, exponent) of a power expression, None for anything else."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return node.left, node.right
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
        return node.target, node.value
    if isinstance(node, ast.Call) and len(node.args) == 2:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in POWER_CALLS:
            return tuple(node.args)
    return None


def high_powers(source: str) -> list:
    """Line numbers where a non-literal is raised to a literal power >= 3."""
    out = []
    for node in ast.walk(ast.parse(source)):
        power = _power(node)
        if power is None or isinstance(power[0], ast.Constant):
            continue
        k = _whole(power[1])
        if k is not None and k >= 3:
            out.append(node.lineno)
    return sorted(out)


def test_checker_flags_high_powers():
    source = (
        "a = x ** 3\n"
        "b = x**2 + y ** -3 + x ** 0.5 + x ** n\n"
        "c = np.power(p[..., 0], 4)\n"
        "d = 2 ** 31 + 10.0 ** 3\n"
        "e = (x + y) ** 3.0\n"
        "y **= 5\n"
        "f = pow(x, 3) + np.power(x, 2)\n"
        "g = np.float_power(x, 3)\n"
    )
    assert high_powers(source) == [1, 3, 5, 6, 7, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_high_power(path):
    assert high_powers(path.read_text()) == []
