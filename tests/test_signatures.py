"""Each input is passed once: a space or field already carries its mesh.

A stdlib-inspect check over the public functions of the assembly and
analysis modules: none takes a mesh (or its facets) beside a space or a
field built on that mesh.
"""

import inspect

import pytest

from bvcfem import analysis, assembly

CARRIERS = {"V", "Lam", "space", "field", "u_field", "lambda_field"}
CARRIED = {"mesh", "facets"}


def public_functions(module):
    return [
        fn
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    ]


def passed_twice(fn) -> list:
    """The parameters of fn that repeat what a space or field parameter carries."""
    params = set(inspect.signature(fn).parameters)
    return sorted(params & CARRIED) if params & CARRIERS else []


def test_checker_flags_mesh_beside_a_space():
    def two_inputs(V, Lam, mesh, domain, facets=None):
        pass

    def one_input(mesh, domain):
        pass

    assert passed_twice(two_inputs) == ["facets", "mesh"]
    assert passed_twice(one_input) == []


@pytest.mark.parametrize(
    "fn",
    [fn for module in (assembly, analysis) for fn in public_functions(module)],
    ids=lambda fn: f"{fn.__module__.split('.')[-1]}.{fn.__name__}",
)
def test_no_input_passed_twice(fn):
    assert passed_twice(fn) == []
