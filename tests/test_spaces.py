"""Function spaces: bases, bubbles, dof maps, multiplier projection, quadrature.

Independent oracles: closed-form monomial integrals for quadrature exactness,
hand-evaluated bubble traces, normal equations for small L2 projections, and
finite differences for basis gradients.
"""

import numpy as np
import pytest

from bvcfem.mesh import (
    REFERENCE_CELLS,
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    gauss_01,
)
from bvcfem.geometry import make_ellipse_domain
from bvcfem.spaces import (
    ELEMENTS,
    UnsupportedDegree,
    UnsupportedOrder,
    build_multiplier_space,
    build_primal_space,
    quadrature,
)
from oracles import cell_basis, cell_dofs, project_to_multiplier

ELLIPSE = make_ellipse_domain()


# Every (kind, k) of the element table; triangle cases are named by k alone.
LAGRANGE_CASES = [
    pytest.param(kind, k, id=str(k) if kind == "triangle" else f"{kind}-{k}")
    for kind, element in ELEMENTS.items()
    for k in element.nodes
]


def inside(kind, n, seed, margin=0.0):
    """n random points of the reference cell of kind: convex combinations of
    its vertices, each weight at least margin / (number of vertices)."""
    verts = REFERENCE_CELLS[kind][0]
    w = np.random.default_rng(seed).dirichlet(np.ones(len(verts)), size=n)
    return (margin / len(verts) + (1.0 - margin) * w) @ verts


def tri_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


class TestQuadrature:
    def test_segment_degree3(self):
        x, w = gauss_01(2)
        val = np.sum(w * x**3)
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_triangle_degree2(self):
        rule = quadrature("triangle", 2)
        val = np.sum(rule.weights * rule.points[:, 0] ** 2)
        assert val == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_quad_degree5(self):
        rule = quadrature("quad", 5)
        assert len(rule.weights) == 9
        val = np.sum(rule.weights * rule.points[:, 0] ** 4 * rule.points[:, 1] ** 4)
        assert val == pytest.approx(1.0 / 25.0, abs=1e-15)

    # One degree per point count n = ceil((degree + 1) / 2) = 1-11, so every
    # row of the Gauss-Jacobi table is checked.
    @pytest.mark.parametrize("degree", [1, 2, 4, 7, 9, 10, 13, 15, 17, 19, 20])
    def test_triangle_exactness_sweep(self, degree):
        rule = quadrature("triangle", degree)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-14)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                assert got == pytest.approx(tri_monomial_integral(a, b), abs=1e-13)

    @pytest.mark.parametrize("degree", [1, 3, 8, 13, 20])
    def test_segment_exactness_sweep(self, degree):
        x, w = gauss_01((degree + 2) // 2)  # n points are exact to degree 2n - 1
        for a in range(degree + 1):
            got = np.sum(w * x**a)
            assert got == pytest.approx(1.0 / (a + 1), abs=1e-13)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegree):
            quadrature("triangle", 21)

    def test_unknown_cell_kind_is_a_bad_value(self):
        message = r"unknown cell kind 'hexagon'; have \('triangle', 'quad'\)"
        with pytest.raises(ValueError, match=message):
            quadrature("hexagon", 2)


class TestPrimalSpace:
    def test_dof_count_annulus_p2_enriched(self):
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, 2, enrich=True)
        # 24 vertices + 56 edges + 16 boundary bubbles
        assert mesh.num_edges == 56
        assert V.dof_count == 24 + 56 + 16

    def test_dof_count_p3(self):
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, 3, enrich=False)
        assert V.dof_count == 24 + 2 * 56 + 32

    def test_p1_nodal_identity(self):
        mesh = build_square_mesh(1, "triangle")
        V = build_primal_space(mesh, 1, enrich=False)
        vals = V.basis(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[0][:, : V.nb_std]
        assert np.allclose(vals, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("kind, k", LAGRANGE_CASES)
    def test_lagrange_nodal_identity(self, kind, k):
        mesh = build_square_mesh(2, kind)
        V = build_primal_space(mesh, k, enrich=False)
        # reference coordinates of a cell's nodes
        nodes = ELEMENTS[kind].nodes[k]
        vals = V.basis(nodes)[0][:, : V.nb_std]
        np.testing.assert_allclose(vals, np.eye(len(nodes)), rtol=0, atol=1e-13)
        # interpolation of each dof's indicator reproduces itself at the nodes
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(V.dof_count)
        field_at_nodes = np.zeros(V.dof_count)
        counts = np.zeros(V.dof_count)
        for c in range(mesh.num_cells):
            dofs = V.dof_table[c, : V.nb_std]
            field_at_nodes[dofs] = vals @ coeffs[dofs]
            counts[dofs] += 1
        assert np.all(counts > 0)
        assert np.allclose(field_at_nodes, coeffs, atol=1e-13)

    @pytest.mark.parametrize("kind, k", LAGRANGE_CASES)
    def test_partition_of_unity(self, kind, k):
        mesh = build_square_mesh(2, kind)
        V = build_primal_space(mesh, k, enrich=False)
        vals = V.basis(inside(kind, 40, seed=1))[0][:, : V.nb_std]
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("kind, k", LAGRANGE_CASES)
    def test_gradients_match_finite_differences(self, kind, k):
        mesh = build_square_mesh(2, kind)
        V = build_primal_space(mesh, k, enrich=True)
        x = inside(kind, 10, seed=3, margin=0.1)
        eps = 1e-5
        c = mesh.boundary_facets.cell[0]
        vals, grads = cell_basis(V, c, x)
        for d, step in ((0, np.array([eps, 0.0])), (1, np.array([0.0, eps]))):
            vp, _ = cell_basis(V, c, x + step)
            vm, _ = cell_basis(V, c, x - step)
            fd = (vp - vm) / (2 * eps)
            assert np.allclose(grads[:, :, d], fd, atol=1e-6)

    def test_bubble_trace_values_p2(self):
        # On its edge the k=2 bubble is lam_a lam_b (lam_b - lam_a):
        # midpoint value 0, value -3/32 at s=1/4.
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, 2, enrich=True)
        verts, edges = REFERENCE_CELLS["triangle"]
        for local_edge in range(3):
            a, b = edges[local_edge]
            for s, expected in ((0.0, 0.0), (0.5, 0.0), (0.25, -3.0 / 32.0), (1.0, 0.0)):
                pt = verts[a] + s * (verts[b] - verts[a])
                vals = V.basis(pt[None, :])[0][:, V.nb_std :]
                assert vals[0, local_edge] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bubble_vanishes_at_vertices_and_other_edges(self, k):
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, k, enrich=True)
        verts, edges = REFERENCE_CELLS["triangle"]
        s = np.linspace(0, 1, 7)
        for local_edge in range(3):
            for other in range(3):
                if other == local_edge:
                    continue
                a, b = edges[other]
                pts = verts[a][None, :] + s[:, None] * (verts[b] - verts[a])[None, :]
                vals = V.basis(pts)[0][:, V.nb_std :]
                assert np.max(np.abs(vals[:, local_edge])) <= 1e-14

    def test_quad_bubble_shape(self):
        mesh = build_staircase_mesh(8, ELLIPSE)
        V = build_primal_space(mesh, 1, enrich=True)
        # edge 0 (bottom): bubble = x(1-x)(1-y)
        pts = np.array([[0.3, 0.0], [0.3, 1.0], [0.0, 0.5], [1.0, 0.5], [0.25, 0.5]])
        vals = V.basis(pts)[0][:, V.nb_std :]
        assert np.allclose(vals[:, 0], [0.21, 0.0, 0.0, 0.0, 0.09375], atol=1e-15)

    @pytest.mark.parametrize(
        "mesh_kind", ["ring", "staircase", "square-quad", "ring-plain", "staircase-plain"]
    )
    def test_edge_bubble_dofs_held_by_local_edge(self, mesh_kind):
        mesh = {
            "ring": lambda: build_annulus_mesh(8, 2),
            "staircase": lambda: build_staircase_mesh(16, ELLIPSE),
            "square-quad": lambda: build_square_mesh(3, "quad"),
        }[mesh_kind.removesuffix("-plain")]()
        enrich = not mesh_kind.endswith("-plain")
        V = build_primal_space(mesh, 1, enrich=enrich)
        F = mesh.boundary_facets
        n_bubbles = len(REFERENCE_CELLS[mesh.cell_kind][1]) if enrich else 0
        expected = np.full((mesh.num_cells, n_bubbles), -1)
        if enrich:
            # P1 / Q1: the Lagrange dofs are the mesh vertices.
            expected[F.cell, F.local_edge] = mesh.nno + np.arange(len(F))
        np.testing.assert_array_equal(V.dof_table[:, V.nb_std :], expected)
        np.testing.assert_array_equal(V.dof_table[:, : V.nb_std], mesh.cells)
        assert V.dof_count == mesh.nno + enrich * len(F)

    @pytest.mark.parametrize("k", [2, 3])
    def test_conformity_across_interior_edges(self, k):
        # A global enriched function must be single-valued across edges.
        mesh = build_annulus_mesh(8, 2)
        V = build_primal_space(mesh, k, enrich=True)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(V.dof_count)
        verts, edges = REFERENCE_CELLS["triangle"]
        shared = {}
        for c in range(mesh.num_cells):
            cell = mesh.cells[c]
            for e, (a, b) in enumerate(edges):
                key = (min(cell[a], cell[b]), max(cell[a], cell[b]))
                shared.setdefault(key, []).append((c, e, cell[a] > cell[b]))
        s = np.linspace(0.0, 1.0, 5)
        for key, occ in shared.items():
            if len(occ) != 2:
                continue
            traces = []
            for c, e, flipped in occ:
                a, b = edges[e]
                ss = 1.0 - s if flipped else s
                pts = verts[a][None, :] + ss[:, None] * (verts[b] - verts[a])[None, :]
                vals, _ = cell_basis(V, c, pts)
                traces.append(vals @ coeffs[cell_dofs(V, c)])
            assert np.allclose(traces[0], traces[1], atol=1e-12)

    @pytest.mark.parametrize(
        "mesh_kind, k",
        [("ring", 2), ("ring", 3), ("square", 1), ("square", 2), ("square", 3), ("staircase", 1)],
    )
    def test_nodes_sit_at_mapped_reference_nodes(self, mesh_kind, k):
        # The dofs are numbered vertices, edge nodes, bubbles, cell interiors.
        # Every cell that refers to a Lagrange dof maps its local node to the
        # same physical point, a vertex dof to its mesh vertex; so neighbours
        # agree on their shared edge nodes.
        mesh = {
            "ring": lambda: build_annulus_mesh(16, 4),
            "square": lambda: build_square_mesh(3),
            "staircase": lambda: build_staircase_mesh(16, ELLIPSE),
        }[mesh_kind]()
        V = build_primal_space(mesh, k, enrich=True)
        origins, J = mesh.origins, mesh.J
        nodes = ELEMENTS[mesh.cell_kind].nodes[k]
        mapped = origins[:, None, :] + np.einsum("cab,nb->cna", J, nodes)
        dofs = V.dof_table[:, : V.nb_std]
        bubbles = V.dof_table[:, V.nb_std :]
        n_boundary = mesh.nno + (k - 1) * mesh.num_edges
        n_bubbles = len(mesh.boundary_facets)
        I = V.interior_dofs
        assert (I.start, I.stop) == (n_boundary + n_bubbles, V.dof_count)
        assert np.array_equal(np.unique(dofs), np.r_[:n_boundary, I.start : I.stop])
        assert np.array_equal(np.unique(bubbles[bubbles >= 0]), np.arange(n_boundary, I.start))
        point = np.empty((V.dof_count, 2))
        point[dofs] = mapped  # one of the cells that refer to each dof
        np.testing.assert_allclose(mapped, point[dofs], rtol=0, atol=1e-14)
        np.testing.assert_allclose(point[: mesh.nno], mesh.vertices, rtol=0, atol=1e-14)

    def test_unsupported_orders(self):
        mesh = build_annulus_mesh(8, 2)
        with pytest.raises(UnsupportedOrder, match=r"triangle degree 4 not supported; have 1, 2, 3$"):
            build_primal_space(mesh, 4, enrich=False)
        qmesh = build_staircase_mesh(8, ELLIPSE)
        with pytest.raises(UnsupportedOrder, match=r"quad degree 2 not supported; have 1$"):
            build_primal_space(qmesh, 2, enrich=False)


@pytest.mark.parametrize(
    "kind, k", [(kind, k) for kind, element in ELEMENTS.items() for k in element.nodes]
)
class TestEdgeBubbleTable:
    """Column e of ELEMENTS[kind].bubble is the bubble of local edge e.

    On edge a -> b of REFERENCE_CELLS, at s from a, it is s (1 - s) L with
    L the Legendre polynomial P_{k-1}(2s - 1); it vanishes at the vertices
    and on every other local edge.
    """

    def test_edge_traces(self, kind, k):
        verts, edges = REFERENCE_CELLS[kind]
        s = np.linspace(0.0, 1.0, 9)
        L = np.polynomial.legendre.legval(2.0 * s - 1.0, [0.0] * (k - 1) + [1.0])
        for e, (a, b) in enumerate(edges):
            pts = verts[a] + s[:, None] * (verts[b] - verts[a])
            vals, grads = ELEMENTS[kind].bubble(k, pts)
            assert vals.shape == (len(s), len(edges))
            assert grads.shape == (len(s), len(edges), 2)
            expected = np.zeros((len(s), len(edges)))
            expected[:, e] = s * (1.0 - s) * L
            np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-15)

    def test_gradients_match_finite_differences(self, kind, k):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.1, 0.4, size=(10, 2))  # inside both reference cells
        eps = 1e-6
        _, grads = ELEMENTS[kind].bubble(k, x)
        for d in range(2):
            step = eps * np.eye(2)[d]
            vp, _ = ELEMENTS[kind].bubble(k, x + step)
            vm, _ = ELEMENTS[kind].bubble(k, x - step)
            np.testing.assert_allclose(grads[..., d], (vp - vm) / (2 * eps), rtol=0, atol=1e-8)


# P_{k-1}(t) and its derivative, written out as legval evaluates them.
LEGENDRE = {
    1: (lambda t: np.ones_like(t), lambda t: np.zeros_like(t)),
    2: (lambda t: t, lambda t: np.ones_like(t)),
    3: (lambda t: 1.5 * t * t - 0.5, lambda t: 3.0 * t),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("degree", range(14))
def test_triangle_bubbles_are_the_closed_form_to_the_bit(k, degree):
    # lam_a lam_b L_{k-1}(lam_b - lam_a) with its product-rule gradient, in
    # this grouping; the P3 ring's error budget absorbs no reordering.
    pts = quadrature("triangle", degree).points
    x, y = pts[:, 0], pts[:, 1]
    lam = [1.0 - x - y, x, y]
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    P, dP = LEGENDRE[k]
    vals, grads = [], []
    for a, b in REFERENCE_CELLS["triangle"][1]:
        la, lb = lam[a], lam[b]
        L, dL = P(lb - la), dP(lb - la)
        vals.append(la * lb * L)
        grads.append(
            (lb * L)[:, None] * dlam[a]
            + (la * L)[:, None] * dlam[b]
            + (la * lb * dL)[:, None] * (dlam[b] - dlam[a])
        )
    got_vals, got_grads = ELEMENTS["triangle"].bubble(k, pts)
    assert np.array_equal(got_vals, np.stack(vals, axis=1))
    assert np.array_equal(got_grads, np.stack(grads, axis=1))


class TestMultiplierSpace:
    def test_dof_counts(self):
        qmesh = build_staircase_mesh(8, ELLIPSE)
        L0 = build_multiplier_space(qmesh, 0)
        assert L0.dof_count == len(qmesh.boundary_facets)
        mesh = build_annulus_mesh(8, 2)
        L1 = build_multiplier_space(mesh, 1)
        assert L1.dof_count == 32

    def test_facet_mass_diagonal(self):
        mesh = build_annulus_mesh(8, 2)
        L = build_multiplier_space(mesh, 2)
        rule_s, rule_w = np.polynomial.legendre.leggauss(6)
        s = 0.5 * (rule_s + 1)
        w = 0.5 * rule_w
        psi = L.eval(s)
        for fidx, length in enumerate(mesh.boundary_facets.length):
            mass = length * np.einsum("q,qi,qj->ij", w, psi, psi)
            expected = np.diag(length / (2.0 * np.arange(3) + 1.0))
            assert np.allclose(mass, expected, atol=1e-15)
            got = L.mass_matrix_diagonal()[L.facet_dofs[fidx]]
            assert np.allclose(np.diag(mass), got, atol=1e-15)

    def test_projection_reproduces_members(self):
        mesh = build_annulus_mesh(8, 2)
        L = build_multiplier_space(mesh, 2)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(L.dof_count)

        def trace(s, x, n_h):
            return coeffs[L.facet_dofs] @ L.eval(s).T

        got = project_to_multiplier(L, trace)
        assert np.allclose(got, coeffs, atol=1e-13)

    def test_projection_mean_value(self):
        mesh = build_square_mesh(1, "quad")
        L = build_multiplier_space(mesh, 0)
        got = project_to_multiplier(L, lambda s, x, n_h: s)
        assert np.allclose(got, 0.5, atol=1e-14)

    def test_projection_best_affine_fit(self):
        # L2-best affine fit to s^2 on a unit facet is s - 1/6
        # (normal equations: int (s^2 - a - b s) {1, s} ds = 0).
        mesh = build_square_mesh(1, "quad")
        L = build_multiplier_space(mesh, 1)
        got = project_to_multiplier(L, lambda s, x, n_h: s**2)
        s = np.linspace(0, 1, 9)
        psi = L.eval(s)
        for fidx in range(len(mesh.boundary_facets)):
            recon = psi @ got[L.facet_dofs[fidx]]
            assert np.allclose(recon, s - 1.0 / 6.0, atol=1e-14)

    def test_projection_residual_orthogonal(self):
        mesh = build_annulus_mesh(8, 2)
        L = build_multiplier_space(mesh, 1)
        trace = lambda s, x, n_h: np.sin(3.0 * s) + x[..., 0]
        coeffs = project_to_multiplier(L, trace)
        sq, wq = np.polynomial.legendre.leggauss(12)
        sq = 0.5 * (sq + 1)
        wq = 0.5 * wq
        psi = L.eval(sq)
        verts = mesh.vertices
        F = mesh.boundary_facets
        for fidx, ((p, q), n_h, length) in enumerate(zip(verts[F.endpoints], F.n_h, F.length)):
            x = p[None, :] + sq[:, None] * (q - p)[None, :]
            resid = trace(sq, x, n_h) - psi @ coeffs[L.facet_dofs[fidx]]
            for j in range(2):
                ip = length * np.sum(wq * resid * psi[:, j])
                assert abs(ip) <= 1e-12 * max(length, 1.0)
