"""Assembly tests: reference-element oracles, symmetry, sign structure.

The single-triangle fixtures are checked against hand quadrature on the
reference element; the patch test verifies that every method reproduces an
affine solution exactly on an exactly-meshed polygon.
"""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp

from bvcfem.analysis import (
    error_report,
    error_triple_norm,
    geometry_report,
    infsup_diagnostic,
    multiplier_error,
)
from bvcfem.assembly import (
    DimensionMismatch,
    Interior,
    assemble_nitsche,
    assemble_primal,
    assemble_saddle,
    boundary_mass_primal,
    _scatter,
    coupling_matrix,
    facet_traces,
    load_vector,
    stiffness_matrix,
)
from bvcfem.geometry import (
    make_ellipse_domain,
    make_polygon_domain,
    make_ring_domain,
    make_square_domain,
)
from bvcfem.mesh import (
    REFERENCE_CELLS,
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    mesh_from_arrays,
    precompute_boundary_geometry,
)
from bvcfem.solver import SolutionField, solve
from bvcfem.spaces import build_multiplier_space, build_primal_space
from bvcfem.study import DOMAINS, StudyConfig, build_level
from oracles import assembled_stiffness, cell_basis, cell_dofs, interpolate

RING = make_ring_domain()
ELLIPSE = make_ellipse_domain()


def unit_triangle_fixture(u_exact=None, grad_u=None, f=None):
    """Single unit right triangle whose level set IS the triangle."""
    zero_s = lambda p: np.zeros(np.shape(p)[:-1])
    zero_v = lambda p: np.zeros(np.shape(p))
    domain = make_polygon_domain(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        u_exact or zero_s,
        grad_u or zero_v,
        f or zero_s,
        delta0=0.2,
        name="unit-triangle",
    )
    mesh = mesh_from_arrays(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], "triangle"
    )
    return domain, precompute_boundary_geometry(mesh, domain, 4)


def with_rho(mesh, rho):
    """A copy of mesh whose facets carry the given rho_h values."""
    return replace(mesh, boundary_facets=replace(mesh.boundary_facets, rho=rho))


class TestReferenceElement:
    def test_p1_stiffness_matrix(self):
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        (K,) = stiffness_matrix(V)  # one cell, local order = dof order
        assert np.array_equal(V.dof_table, [[0, 1, 2]])
        expected = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
        )
        assert np.allclose(K, expected, atol=1e-14)

    def test_facet_hat_integrals(self):
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        system = assemble_saddle(assemble_primal(V, L, domain), "bvc")
        B = system.B.toarray()
        # the facet between vertices 0 and 1 has unit length
        for fidx, endpoints in enumerate(mesh.boundary_facets.endpoints):
            if set(endpoints) == {0, 1}:
                assert np.allclose(B[fidx], [0.5, 0.5, 0.0], atol=1e-14)

    def test_rho_zero_gives_zero_D(self):
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        system = assemble_saddle(assemble_primal(V, L, domain), "bvc")
        assert system.D.nnz == 0 or np.all(system.D.data == 0.0)

    def test_zero_data_zero_solution(self):
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        u, lam = solve(assemble_saddle(assemble_primal(V, L, domain), "bvc"))
        assert np.all(u.coefficients == 0.0)
        assert np.all(lam.coefficients == 0.0)

    def test_taylor_constant_rho_block(self):
        # With rho frozen to a constant c, Bt = B + c * (dn coupling); the
        # oracle evaluates the normal-derivative integrals by hand quadrature.
        domain, mesh = unit_triangle_fixture()
        c = 0.037
        mesh = with_rho(mesh, np.full_like(mesh.boundary_facets.rho, c))
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        system = assemble_saddle(assemble_primal(V, L, domain), "taylor")
        for fidx, endpoints in enumerate(mesh.boundary_facets.endpoints):
            if set(endpoints) == {1, 2}:  # hypotenuse, n = (1,1)/sqrt(2)
                # grads: phi0 (-1,-1), phi1 (1,0), phi2 (0,1); length sqrt(2)
                dn = np.array([-2.0, 1.0, 1.0]) / np.sqrt(2.0)
                base = np.array([0.5, 0.5]) * np.sqrt(2.0)
                expected = np.array(
                    [c * dn[0] * np.sqrt(2.0),
                     base[0] + c * dn[1] * np.sqrt(2.0),
                     base[1] + c * dn[2] * np.sqrt(2.0)]
                )
                assert np.allclose(system.Bt_corr.toarray()[fidx], expected, atol=1e-14)

    def test_ring_zero_dirichlet_rhs(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        L = build_multiplier_space(mesh, 1)
        system = assemble_saddle(assemble_primal(V, L, RING), "bvc")
        # u = (r - 1/4)(3/4 - r) vanishes on both circles, so g~ ~ 0
        assert np.max(np.abs(system.rhs[system.nu :])) <= 1e-12


@pytest.fixture(scope="module")
def ring_setup():
    mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
    V = build_primal_space(mesh, 2, enrich=True)
    L = build_multiplier_space(mesh, 1)
    return mesh, V, L


class TestStructure:

    def test_K_symmetric_and_psd(self, ring_setup):
        mesh, V, L = ring_setup
        K = assembled_stiffness(V)
        asym = abs(K - K.T).max()
        assert asym <= 1e-13 * abs(K).max()
        # kernel = constants: smallest eigenvalues of the dense matrix
        w = np.linalg.eigvalsh(K.toarray())
        assert w[0] >= -1e-12 * w[-1]
        assert w[0] <= 1e-12 * w[-1]  # the constant mode
        assert w[1] > 1e-6  # and nothing else

    def test_bvc_full_matrix_symmetric(self, ring_setup):
        mesh, V, L = ring_setup
        A = assemble_saddle(assemble_primal(V, L, RING), "bvc").A
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()

    def test_unmodified_full_matrix_symmetric(self, ring_setup):
        mesh, V, L = ring_setup
        A = assemble_saddle(assemble_primal(V, L, RING), "unmodified").A
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()

    def test_taylor_asymmetry_localized(self, ring_setup):
        mesh, V, L = ring_setup
        system = assemble_saddle(assemble_primal(V, L, RING), "taylor")
        A = system.A.toarray()
        nu = V.dof_count
        # asymmetry only in the multiplier-primal coupling rows
        assert np.allclose(A[:nu, :nu], A[:nu, :nu].T, atol=1e-13)
        assert not np.allclose(A[nu:, :nu], A[:nu, nu:].T, atol=1e-12)

    def test_methods_agree_when_rho_zeroed(self, ring_setup):
        mesh, _, _ = ring_setup
        mesh = with_rho(mesh, np.zeros_like(mesh.boundary_facets.rho))
        V = build_primal_space(mesh, 2, enrich=True)
        L = build_multiplier_space(mesh, 1)
        primal = assemble_primal(V, L, RING)
        bvc, unmod, taylor = (assemble_saddle(primal, m) for m in ("bvc", "unmodified", "taylor"))
        assert abs(bvc.A - unmod.A).max() <= 1e-14
        assert abs(taylor.A - unmod.A).max() <= 1e-14

    def test_D_positive_semidefinite_on_staircase(self):
        mesh = precompute_boundary_geometry(build_staircase_mesh(16, ELLIPSE), ELLIPSE, 4)
        V = build_primal_space(mesh, 1, enrich=True)
        L = build_multiplier_space(mesh, 0)
        system = assemble_saddle(assemble_primal(V, L, ELLIPSE), "bvc")
        D = system.D.toarray()
        w = np.linalg.eigvalsh(D)
        assert w[0] >= -1e-12 * max(abs(w).max(), 1.0)  # rho > 0 inside

    def test_B_facet_locality(self, ring_setup):
        mesh, V, L = ring_setup
        B = assemble_saddle(assemble_primal(V, L, RING), "bvc").B.tocsr()
        for fidx, c in enumerate(mesh.boundary_facets.cell):
            allowed = set(int(d) for d in cell_dofs(V, c))
            for ldof in L.facet_dofs[fidx]:
                cols = B.indices[B.indptr[ldof] : B.indptr[ldof + 1]]
                assert set(int(c) for c in cols) <= allowed

    def test_mismatched_spaces_rejected(self, ring_setup):
        mesh, V, L = ring_setup
        other = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        V2 = build_primal_space(other, 2, enrich=True)
        with pytest.raises(DimensionMismatch):
            assemble_primal(V2, L, RING)

    def test_unknown_method_rejected(self, ring_setup):
        mesh, V, L = ring_setup
        with pytest.raises(ValueError, match="nitsche"):
            assemble_saddle(assemble_primal(V, L, RING), "nitsche")

    def test_missing_precompute_rejected(self):
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        with pytest.raises(DimensionMismatch):
            assemble_primal(V, L, RING)


class TestNitsche:
    def test_matrix_symmetric(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        system = assemble_nitsche(V, RING, 40.0)
        A = system.A
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()

    def test_coercive_at_default_gamma(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        system = assemble_nitsche(V, RING, 10.0 * 2 * 2)
        w = np.linalg.eigvalsh(system.A.toarray())
        assert w[0] > 0.0

    @pytest.mark.parametrize("gamma0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_gamma0_rejected(self, gamma0):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        with pytest.raises(ValueError, match=f"gamma0 .* got {gamma0!r}"):
            assemble_nitsche(V, RING, gamma0)

    def test_rho_zero_reduces_to_classical_nitsche(self):
        # On the exact polygon rho = 0, so the facet terms must be exactly
        # -(dn u, v) - (u, dn v) + gamma (u, v); checked on one P1 triangle.
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        gamma0 = 10.0
        system = assemble_nitsche(V, domain, gamma0)
        (K,) = stiffness_matrix(V)  # one cell, local order = dof order
        assert np.array_equal(V.dof_table, [[0, 1, 2]])
        gamma = gamma0 / mesh.h
        expected = K.copy()
        s, w = np.polynomial.legendre.leggauss(6)
        s = 0.5 * (s + 1)
        w = 0.5 * w
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        F = mesh.boundary_facets
        for (p, q), n_h, length in zip(mesh.vertices[F.endpoints], F.n_h, F.length):
            pts = p[None, :] + s[:, None] * (q - p)[None, :]
            lam = np.stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
            dn = grads @ n_h
            for i in range(3):
                for j in range(3):
                    expected[i, j] += length * np.sum(
                        w * (-dn[j] * lam[:, i] - lam[:, j] * dn[i]
                             + gamma * lam[:, j] * lam[:, i])
                    )
        assert np.allclose(system.A.toarray(), expected, atol=1e-13)

    def test_zero_data_zero_solution(self):
        domain, mesh = unit_triangle_fixture()
        V = build_primal_space(mesh, 1, enrich=False)
        u, lam = solve(assemble_nitsche(V, domain, 10.0))
        assert lam is None
        assert np.all(u.coefficients == 0.0)


class TestPatch:
    """Affine manufactured solution on exactly-meshed polygons."""

    @pytest.mark.parametrize(
        "kind,k,m",
        [("triangle", 1, 0), ("triangle", 2, 1), ("triangle", 3, 2), ("quad", 1, 0)],
    )
    @pytest.mark.parametrize("method", ["bvc", "unmodified", "taylor"])
    def test_multiplier_methods_exact(self, kind, k, m, method):
        domain = make_square_domain(0.3, 0.7, -0.4)
        mesh = precompute_boundary_geometry(build_square_mesh(3, kind), domain, 2 * k + 2)
        V = build_primal_space(mesh, k, enrich=True)
        L = build_multiplier_space(mesh, m)
        u, lam = solve(assemble_saddle(assemble_primal(V, L, domain), method))
        from bvcfem.analysis import l2_h1_errors, multiplier_error

        _, err_h1 = l2_h1_errors(u, domain)
        assert err_h1 <= 1e-10
        err_lam = multiplier_error(lam, domain)
        assert err_lam <= 1e-10

    @pytest.mark.parametrize("kind,k", [("triangle", 1), ("triangle", 2), ("quad", 1)])
    def test_nitsche_exact(self, kind, k):
        domain = make_square_domain(0.3, 0.7, -0.4)
        mesh = precompute_boundary_geometry(build_square_mesh(3, kind), domain, 2 * k + 2)
        V = build_primal_space(mesh, k, enrich=True)
        u, _ = solve(assemble_nitsche(V, domain, 10.0 * k * k))
        from bvcfem.analysis import l2_h1_errors

        _, err_h1 = l2_h1_errors(u, domain)
        assert err_h1 <= 1e-10


def test_taylor_rows_of_two_bubble_corner_cells():
    # Each corner cell of the Q1 square carries the bubbles of both its
    # boundary facets.  The other facet's bubble vanishes on a facet, but its
    # normal derivative does not, so it enters the taylor row through rho_h.
    # Oracle: per-facet hand quadrature of the full cell basis.
    verts, edges = REFERENCE_CELLS["quad"]
    domain = make_square_domain(0.3, 0.7, -0.4)
    mesh = precompute_boundary_geometry(build_square_mesh(3, "quad"), domain, 4)
    F = mesh.boundary_facets
    mesh = with_rho(mesh, 0.05 * (1.0 + F.s[None, :]) * (1.0 + np.arange(len(F)))[:, None])
    F = mesh.boundary_facets
    V = build_primal_space(mesh, 1, enrich=True)
    L = build_multiplier_space(mesh, 0)
    Bt = assemble_saddle(assemble_primal(V, L, domain), "taylor").Bt_corr.toarray()
    corners = np.flatnonzero(np.bincount(F.cell)[F.cell] == 2)
    assert len(corners) == 8
    for fidx in corners:
        c = F.cell[fidx]
        a, b = edges[F.local_edge[fidx]]
        ref = verts[a] + F.s[:, None] * (verts[b] - verts[a])
        vals, grads = cell_basis(V, c, ref)
        dn = np.einsum("qnd,de->qne", grads, mesh.Jinv[c]) @ F.n_h[fidx]
        assert vals.shape[1] == 6 and np.all(np.max(np.abs(dn[:, 4:]), axis=0) > 0.1)
        expected = np.zeros(V.dof_count)
        expected[cell_dofs(V, c)] = np.einsum(
            "q,qi,qj->ij", F.weights[fidx], L.eval(F.s), vals + F.rho[fidx][:, None] * dn
        )[0]
        assert np.allclose(Bt[L.facet_dofs[fidx][0]], expected, rtol=0.0, atol=1e-14)


# Every public reader of the facet geometry, called on a mesh without it:
# (mesh, V, Lam, u, lam) -> the call.
FACET_READERS = {
    "facet_traces": lambda mesh, V, Lam, u, lam: facet_traces(V),
    "coupling_matrix": lambda mesh, V, Lam, u, lam: coupling_matrix(V, Lam),
    "boundary_mass_primal": lambda mesh, V, Lam, u, lam: boundary_mass_primal(V),
    "infsup_diagnostic": lambda mesh, V, Lam, u, lam: infsup_diagnostic(V, Lam),
    "multiplier_error": lambda mesh, V, Lam, u, lam: multiplier_error(lam, RING),
    "error_triple_norm": lambda mesh, V, Lam, u, lam: error_triple_norm(u, 0.0, RING),
    "geometry_report": lambda mesh, V, Lam, u, lam: geometry_report(mesh, RING),
    "error_report": lambda mesh, V, Lam, u, lam: error_report(u, lam, RING),
}


@pytest.mark.parametrize("reader", sorted(FACET_READERS))
def test_facet_readers_need_facet_geometry(reader):
    mesh = build_annulus_mesh(16, 4)
    V = build_primal_space(mesh, 2, enrich=True)
    Lam = build_multiplier_space(mesh, 1)
    u = SolutionField(V, np.zeros(V.dof_count))
    lam = SolutionField(Lam, np.zeros(Lam.dof_count))
    with pytest.raises(DimensionMismatch, match="precompute_boundary_geometry"):
        FACET_READERS[reader](mesh, V, Lam, u, lam)


@pytest.mark.parametrize(
    "element,where",
    [(e, w) for e in ("p1", "p2", "p3") for w in ("ring", "square")]
    + [("q1", "staircase"), ("q1", "square")],
)
def test_facet_kernel_is_exact_on_affine_fields(element, where):
    # The nodal interpolant of u = a + b.x, bubble coefficients 0, is u on
    # every cell, so at every facet point the kernel's traces sum to u and
    # its normal derivatives to n_h . b.
    a, b = 0.3, np.array([0.7, -0.4])
    if where == "square":
        k = int(element[1])
        domain = make_square_domain(a, *b)
        mesh = build_square_mesh(4, "quad" if element == "q1" else "triangle")
        V = build_primal_space(precompute_boundary_geometry(mesh, domain, 2 * k + 2), k, True)
    else:
        config = StudyConfig(domain="ring" if where == "ring" else "ellipse", element=element)
        V, _ = build_level(config, 0, DOMAINS[config.domain]())
    assert V.enriched
    coeffs = np.append(interpolate(V, lambda x: a + x @ b), 0.0)
    dofs, vals, dn = facet_traces(V)
    F = V.mesh.boundary_facets
    assert vals.shape == dn.shape == (len(F), len(F.s), dofs.shape[1])
    c = coeffs[dofs]
    np.testing.assert_allclose(
        np.einsum("fqn,fn->fq", vals, c), a + F.points @ b, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        np.einsum("fqn,fn->fq", dn, c),
        np.broadcast_to((F.n_h @ b)[:, None], vals.shape[:2]),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("element", ["p1", "p2", "p3", "q1"])
def test_each_system_stores_one_matrix(element):
    # A is the one stored matrix, and the blocks are read from it: sp.bmat
    # of the block views rebuilds it entry for entry.
    config = StudyConfig(domain="ellipse" if element == "q1" else "ring", element=element)
    domain = DOMAINS[config.domain]()
    V, Lam = build_level(config, 0, domain)
    for method in ("bvc", "unmodified", "taylor"):
        system = assemble_saddle(assemble_primal(V, Lam, domain), method)
        A = system.A
        assert A.format == "csc"
        assert [v for v in vars(system).values() if sp.issparse(v)] == [A]
        assert (system.Bt_corr is None) == (method != "taylor")
        row2 = system.B if system.Bt_corr is None else system.Bt_corr
        rebuilt = sp.bmat([[system.K, system.B.T], [row2, -system.D]], format="csc")
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(rebuilt, part), getattr(A, part))
    nitsche = assemble_nitsche(V, domain, 10.0)
    assert nitsche.A.format == "csc"
    assert [v for v in vars(nitsche).values() if sp.issparse(v)] == [nitsche.A]


CSR_PARTS = ("indptr", "indices", "data")


def _arrays(obj, prefix="") -> dict:
    """Every array obj holds, by field name: a sparse matrix as its CSR
    arrays, an Interior's arrays under its own field's name."""
    out = {}
    for name, value in vars(obj).items():
        if sp.issparse(value):
            out.update({f"{prefix}{name}.{p}": getattr(value, p) for p in CSR_PARTS})
        elif isinstance(value, np.ndarray):
            out[prefix + name] = value
        elif isinstance(value, Interior):
            out.update(_arrays(value, f"{prefix}{name}."))
    return out


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("element", ["p2", "p3"])
def test_one_primal_assembly_serves_every_method(element):
    # The methods of a rung share one primal assembly: none changes it, and
    # each system is the one a fresh assembly gives, bit for bit.  P3's
    # taylor eliminates the interior dofs from its facet blocks.
    V, Lam = build_level(StudyConfig(element=element), 1, RING)
    primal = assemble_primal(V, Lam, RING)
    with pytest.raises(FrozenInstanceError):
        primal.K = None
    before = {key: array.copy() for key, array in _arrays(primal).items()}
    assert ("interior.row" in before) == (element == "p3")
    for method in ("bvc", "unmodified", "taylor"):
        shared = assemble_saddle(primal, method)
        fresh = assemble_saddle(assemble_primal(V, Lam, RING), method)
        for part in CSR_PARTS:
            assert _same_bits(getattr(shared.A, part), getattr(fresh.A, part))
        assert _same_bits(shared.rhs, fresh.rhs)
    after = _arrays(primal)
    assert after.keys() == before.keys()
    assert [key for key in before if not _same_bits(after[key], before[key])] == []


def test_boundary_mass_is_facet_length_partition():
    # row sums of the boundary mass against the all-ones vector integrate 1
    # over the boundary: total = perimeter
    domain, mesh = unit_triangle_fixture()
    V = build_primal_space(mesh, 1, enrich=False)
    M = boundary_mass_primal(V)
    ones = np.ones(V.dof_count)
    assert ones @ (M @ ones) == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-14)


def test_scatter_stores_the_entries_inside_its_shape():
    # One rule drops a -1 slot and a dof at or past the shape (a condensed
    # interior dof); every other entry is stored, an exact zero included.
    rows = np.array([[0, -1, 2], [1, 3, 0]])
    cols = np.array([[1, 2], [-1, 0]])
    blocks = np.arange(1.0, 13.0).reshape(2, 3, 2)
    blocks[0, 0, 0] = 0.0
    A = _scatter((3, 2), blocks, rows, cols).tocoo()
    stored = sorted(zip(A.row.tolist(), A.col.tolist(), A.data.tolist()))
    assert stored == [(0, 0, 12.0), (0, 1, 0.0), (1, 0, 8.0), (2, 1, 5.0)]


def test_load_vector_constant_f():
    domain, mesh = unit_triangle_fixture(f=lambda p: np.ones(np.shape(p)[:-1]))
    V = build_primal_space(mesh, 1, enrich=False)
    rhs = load_vector(V, domain.f_rhs)
    # (1, hat_i) over the reference triangle = area/3
    assert np.allclose(rhs, [1.0 / 6.0] * 3, atol=1e-15)


def test_dump_matrix_round_trip(tmp_path):
    from bvcfem.assembly import dump_matrix

    A = sp.csr_matrix(np.array([[1.5, 0.0], [2.25, -3.125]]))
    path = tmp_path / "mat.txt"
    dump_matrix(A, path)
    entries = [line.split() for line in path.read_text().splitlines()]
    rebuilt = np.zeros((2, 2))
    for i, j, v in entries:
        rebuilt[int(i), int(j)] = float(v)
    assert np.array_equal(rebuilt, A.toarray())


def _bubble_path_space(case):
    if case == "ring-p2":
        return build_primal_space(build_annulus_mesh(16, 4), 2, enrich=True)
    if case == "ring-p2-plain":
        return build_primal_space(build_annulus_mesh(16, 4), 2, enrich=False)
    if case == "ring-p3":
        return build_primal_space(build_annulus_mesh(16, 4), 3, enrich=True)
    if case == "staircase-q1":
        return build_primal_space(build_staircase_mesh(16, ELLIPSE), 1, enrich=True)
    return build_primal_space(build_square_mesh(3, "quad"), 1, enrich=True)


@pytest.mark.parametrize(
    "case", ["ring-p2", "ring-p2-plain", "ring-p3", "staircase-q1", "square-q1"]
)
class TestBatchedBubblePath:
    """The shared basis table and padded dof table against a per-cell loop.

    The oracle walks the cells one by one through cell_basis / cell_dofs,
    which keep only the columns a cell has.  The staircase and the square
    quad mesh have corner cells with two bubbles; ring-p2-plain has none.
    """

    def _rule(self, V, degree):
        from bvcfem.spaces import quadrature

        return quadrature(V.mesh.cell_kind, degree)

    def test_local_basis_matches_cell_basis(self, case):
        V = _bubble_path_space(case)
        F = V.mesh.boundary_facets
        n_edges = len(REFERENCE_CELLS[V.mesh.cell_kind][1]) if V.enriched else 0
        dofs = V.dof_table
        assert dofs.shape == (V.mesh.num_cells, V.nb_std + n_edges)
        if V.mesh.cell_kind == "quad":
            assert np.max(np.sum(dofs[:, V.nb_std :] >= 0, axis=1)) == 2  # corner cells
        # -1 exactly where (cell, local edge) is not a boundary facet of an
        # enriched space.
        is_facet = np.zeros((V.mesh.num_cells, n_edges), dtype=bool)
        if V.enriched:
            is_facet[F.cell, F.local_edge] = True
        np.testing.assert_array_equal(dofs[:, V.nb_std :] == -1, ~is_facet)
        assert np.all(dofs[:, : V.nb_std] >= 0)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, size=(V.mesh.num_cells, 5, 2))
        if V.mesh.cell_kind == "triangle":
            x[..., 0] *= 1.0 - x[..., 1]  # inside the reference triangle
        vals, grads = V.basis(x)
        assert vals.shape == dofs.shape[:1] + (5,) + dofs.shape[1:]
        assert grads.shape == vals.shape + (2,)
        for c in range(V.mesh.num_cells):
            on = dofs[c] >= 0
            ref_vals, ref_grads = cell_basis(V, c, x[c])
            np.testing.assert_array_equal(dofs[c, on], cell_dofs(V, c))
            np.testing.assert_allclose(vals[c][:, on], ref_vals, rtol=0, atol=1e-14)
            np.testing.assert_allclose(grads[c][:, on], ref_grads, rtol=0, atol=1e-14)
        # Lagrange columns, then one bubble column per local edge if enriched.
        lagrange = V.element.basis(V.degree, x[0])
        bubbles = V.element.bubble(V.degree, x[0])
        for got, lag, bub in zip(V.basis(x[0]), lagrange, bubbles):
            want = np.concatenate([lag, bub], axis=1) if V.enriched else lag
            np.testing.assert_array_equal(got, want)

    def test_l2_h1_matches_per_cell_loop(self, case):
        from bvcfem.analysis import field_l2_norm, l2_h1_errors
        from bvcfem.solver import SolutionField

        V = _bubble_path_space(case)
        domain = ELLIPSE if V.mesh.cell_kind == "quad" else RING
        rng = np.random.default_rng(12)
        field = SolutionField(V, rng.standard_normal(V.dof_count))
        bubbles = V.dof_table[:, V.nb_std :]
        assert np.all(field.coefficients[bubbles[bubbles >= 0]] != 0.0)
        rule = self._rule(V, 2 * V.degree + 4)
        origins, J, Jinv, detJ = V.mesh.origins, V.mesh.J, V.mesh.Jinv, V.mesh.detJ
        l2_sq = h1_sq = norm_sq = 0.0
        for c in range(V.mesh.num_cells):
            vals, grads = cell_basis(V, c, rule.points)
            coeffs = field.coefficients[cell_dofs(V, c)]
            x = origins[c] + rule.points @ J[c].T
            uh = vals @ coeffs
            guh = np.einsum("qid,i->qd", grads, coeffs) @ Jinv[c]
            w = detJ[c] * rule.weights
            l2_sq += np.sum(w * (uh - domain.u_exact(x)) ** 2)
            h1_sq += np.sum(w[:, None] * (guh - domain.grad_u_exact(x)) ** 2)
            norm_sq += np.sum(w * uh**2)
        err_l2, err_h1 = l2_h1_errors(field, domain)
        assert err_l2 == pytest.approx(np.sqrt(l2_sq), rel=1e-12)
        assert err_h1 == pytest.approx(np.sqrt(h1_sq), rel=1e-12)
        assert field_l2_norm(field) == pytest.approx(np.sqrt(norm_sq), rel=1e-12)

    def test_stiffness_matches_per_cell_loop(self, case):
        V = _bubble_path_space(case)
        rule = self._rule(V, 2 * (V.degree + 1))
        Jinv, detJ = V.mesh.Jinv, V.mesh.detJ
        rows, cols, data = [], [], []
        for c in range(V.mesh.num_cells):
            dofs = cell_dofs(V, c)
            _, grads = cell_basis(V, c, rule.points)
            gp = grads @ Jinv[c]
            Kloc = detJ[c] * np.einsum("q,qia,qja->ij", rule.weights, gp, gp)
            rows.append(np.repeat(dofs, len(dofs)))
            cols.append(np.tile(dofs, len(dofs)))
            data.append(Kloc.ravel())
        n = V.dof_count
        expected = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsr()
        K = _scatter((n, n), stiffness_matrix(V), V.dof_table, V.dof_table)
        # Same stored entries, exact zeros included.
        np.testing.assert_array_equal(K.indptr, expected.indptr)
        np.testing.assert_array_equal(K.indices, expected.indices)
        scale = np.max(np.abs(expected.data))
        assert np.max(np.abs(K.data - expected.data)) <= 1e-14 * scale

    def test_load_matches_per_cell_loop(self, case):
        V = _bubble_path_space(case)
        rule = self._rule(V, 2 * V.degree + 3)
        origins, J, detJ = V.mesh.origins, V.mesh.J, V.mesh.detJ

        def f(p):
            return np.cos(3.0 * p[..., 0]) + p[..., 1] ** 2

        expected = np.zeros(V.dof_count)
        for c in range(V.mesh.num_cells):
            vals, _ = cell_basis(V, c, rule.points)
            fx = f(origins[c] + rule.points @ J[c].T)
            expected[cell_dofs(V, c)] += detJ[c] * np.einsum("q,qi,q->i", rule.weights, vals, fx)
        got = load_vector(V, f)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
