"""Static condensation of the P3 cell-interior dofs in the assembler.

The assembler eliminates each P3 cell's interior dof before the solve, and
solve restores it.  The restored solution must solve the uncondensed system
(oracles.uncondensed_system) and agree with its direct solve; P1, P2 and Q1
have no interior dofs and keep the assembled blocks as they are.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import bvcfem.solver
from bvcfem.assembly import (
    SingularCell,
    assemble_nitsche,
    assemble_saddle,
    condense,
    coupling_matrix,
    load_vector,
    stiffness_matrix,
)
from bvcfem.geometry import make_ellipse_domain, make_ring_domain, make_square_domain
from bvcfem.mesh import (
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    precompute_boundary_geometry,
)
from bvcfem.solver import ZERO_BLOCK, solve, solve_linear
from bvcfem.spaces import build_multiplier_space, build_primal_space
from oracles import uncondensed_system

RING = make_ring_domain()
SQUARE = make_square_domain()
METHODS = ("bvc", "unmodified", "taylor", "nitsche")


def _p3_case(case):
    """(domain, V, Lam): P3 on the ring at ladder level 1, or on the 4x4 square."""
    if case == "ring-level-1":
        domain, mesh = RING, build_annulus_mesh(32, 8)
    else:
        domain, mesh = SQUARE, build_square_mesh(4, "triangle")
    mesh = precompute_boundary_geometry(mesh, domain, 8)
    return domain, build_primal_space(mesh, 3, True), build_multiplier_space(mesh, 2)


@pytest.fixture(scope="module", params=["ring-level-1", "square-4x4"])
def p3_case(request):
    return _p3_case(request.param)


@pytest.mark.parametrize("method", METHODS)
def test_restored_solution_solves_the_uncondensed_system(p3_case, method):
    domain, V, Lam = p3_case
    if method == "nitsche":
        u, lam = solve(assemble_nitsche(V, domain, 90.0))
        A, b = uncondensed_system(V, domain, method, gamma0=90.0)
        z = u.coefficients
    else:
        system = assemble_saddle(V, Lam, domain, method)
        assert system.K.shape[0] == V.dof_count - V.mesh.num_cells
        u, lam = solve(system)
        A, b = uncondensed_system(V, domain, method, Lam=Lam)
        z = np.concatenate([u.coefficients, lam.coefficients])
    assert len(z) == A.shape[0]
    assert np.linalg.norm(A @ z - b) <= 1e-10 * np.linalg.norm(b)
    z_full = solve_linear(A, b)
    assert np.linalg.norm(z - z_full) <= 1e-10 * np.linalg.norm(z_full)


def test_condensed_unmodified_keeps_an_empty_multiplier_block(p3_case, monkeypatch):
    # B's interior columns are dropped, not condensed: they hold roundoff of
    # a trace that vanishes, and condensing them would store entries in the
    # (2,2) block and send the system to partial pivoting.
    domain, V, Lam = p3_case
    system = assemble_saddle(V, Lam, domain, "unmodified")
    nu = system.K.shape[0]
    assert system.full_matrix()[nu:, nu:].nnz == 0
    B = coupling_matrix(V, Lam, False).toarray()
    assert np.array_equal(system.B.toarray(), B[:, system.interior.keep])

    calls = []

    def recording_splu(A, **kwargs):
        calls.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(bvcfem.solver, "splu", recording_splu)
    solve(system)
    assert calls == [bvcfem.solver._SPLU_OPTIONS[ZERO_BLOCK]]


def test_zero_interior_diagonal_names_the_cell():
    domain, V, _ = _p3_case("square-4x4")
    K = stiffness_matrix(V)
    dof = V.interior_dofs.start + 5
    K[dof, dof] = 0.0
    with pytest.raises(SingularCell, match=r"^cell 5: zero diagonal at its interior dof"):
        condense(V, K, load_vector(V, domain.f_rhs))


def _no_interior_case(case):
    if case == "q1":
        domain = make_ellipse_domain()
        mesh, k = build_staircase_mesh(16, domain), 1
    else:
        domain, k = RING, int(case[1])
        mesh = build_annulus_mesh(16, 4)
    mesh = precompute_boundary_geometry(mesh, domain, 2 * k + 2)
    return domain, build_primal_space(mesh, k, True), build_multiplier_space(mesh, k - 1)


@pytest.mark.parametrize("case", ["p1", "p2", "q1"])
def test_no_interior_dofs_keep_the_assembled_blocks(case):
    domain, V, Lam = _no_interior_case(case)
    assert len(V.interior_dofs) == 0
    K, f = stiffness_matrix(V), load_vector(V, domain.f_rhs)
    Kc, fc, _ = condense(V, K, f)
    assert Kc is K and fc is f
    system = assemble_saddle(V, Lam, domain, "taylor")
    for got, want in (
        (system.K, K),
        (system.B, coupling_matrix(V, Lam, False)),
        (system.Bt_corr, coupling_matrix(V, Lam, True)),
    ):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    assert np.array_equal(system.rhs_u, f)
    u, _ = solve(assemble_saddle(V, Lam, domain, "bvc"))
    assert len(u.coefficients) == V.dof_count
