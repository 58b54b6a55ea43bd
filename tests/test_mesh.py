"""Mesh construction, facet extraction and boundary geometry precompute."""

import dataclasses

import numpy as np
import pytest

from bvcfem.geometry import make_ellipse_domain, make_ring_domain
from bvcfem.mesh import (
    EmptyMesh,
    InvalidResolution,
    MeshError,
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    mesh_from_arrays,
    precompute_boundary_geometry,
)
from bvcfem.study import StudyConfig, build_level

RING = make_ring_domain()
ELLIPSE = make_ellipse_domain()


def euler_characteristic(mesh):
    """V - E + F: 1 for a mesh of a disk, 0 for a mesh of an annulus."""
    return mesh.nno - mesh.num_edges + mesh.num_cells


def boundary_length(mesh):
    return float(np.sum(mesh.boundary_facets.length))


class TestAnnulus:
    def test_counts_8_2(self):
        m = build_annulus_mesh(8, 2)
        assert m.nno == 24
        assert m.num_cells == 32
        assert len(m.boundary_facets) == 16

    def test_h_definition(self):
        m = build_annulus_mesh(8, 2)
        assert m.h == 1.0 / np.sqrt(24)

    def test_boundary_vertices_on_circles(self):
        m = build_annulus_mesh(16, 4)
        for v in m.boundary_facets.endpoints.ravel():
            r = np.hypot(*m.vertices[v])
            assert min(abs(r - 0.25), abs(r - 0.75)) <= 1e-14

    def test_positive_orientation(self):
        m = build_annulus_mesh(16, 4)
        assert np.all(m.detJ > 0)

    def test_facet_outwardness(self):
        m = build_annulus_mesh(16, 4)
        F = m.boundary_facets
        for c, (p, q), n_h in zip(F.cell, F.endpoints, F.n_h):
            centroid = m.vertices[m.cells[c]].mean(axis=0)
            midpoint = 0.5 * (m.vertices[p] + m.vertices[q])
            assert n_h @ (midpoint - centroid) > 0
            edge = m.vertices[q] - m.vertices[p]
            assert abs(n_h @ edge) <= 1e-14 * np.hypot(*edge)
            assert np.hypot(*n_h) == pytest.approx(1.0, abs=1e-14)

    def test_interior_edges_shared_by_two(self):
        m = build_annulus_mesh(8, 2)
        counts = {}
        for cell in m.cells:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = (min(cell[a], cell[b]), max(cell[a], cell[b]))
                counts[key] = counts.get(key, 0) + 1
        boundary_keys = {(min(p, q), max(p, q)) for p, q in m.boundary_facets.endpoints.tolist()}
        for key, c in counts.items():
            assert c == (1 if key in boundary_keys else 2)

    def test_sagitta_bound_64_16(self):
        m = precompute_boundary_geometry(build_annulus_mesh(64, 16), RING, 6)
        max_rho = np.max(np.abs(m.boundary_facets.rho))
        assert max_rho <= 0.75 * (1.0 - np.cos(np.pi / 64)) * 1.01

    def test_rho_signs(self):
        m = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        F = m.boundary_facets
        for (p, q), rho in zip(F.endpoints, F.rho):
            r_mid = np.hypot(*(0.5 * (m.vertices[p] + m.vertices[q])))
            if r_mid > 0.5:  # outer circle: chord inside the domain
                assert np.all(rho > 0)
            else:  # inner circle: chord bulges outside the annulus
                assert np.all(rho < 0)

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            build_annulus_mesh(4, 2)
        with pytest.raises(InvalidResolution):
            build_annulus_mesh(8, 1)

    def test_euler_characteristic_zero(self):
        for m in (build_annulus_mesh(8, 2), build_annulus_mesh(16, 4)):
            assert euler_characteristic(m) == 0

    def test_perimeter_converges(self):
        exact = 2.0 * np.pi * (0.25 + 0.75)
        lengths = [boundary_length(build_annulus_mesh(16 * 2**l, 4 * 2**l)) for l in range(3)]
        errs = [exact - L for L in lengths]
        assert all(e > 0 for e in errs)  # inscribed polygons
        assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.02)
        assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.02)


class TestStaircase:
    def test_vertex_ids_in_first_use_order(self):
        m = build_staircase_mesh(32, ELLIPSE)
        _, first = np.unique(m.cells.ravel(), return_index=True)
        assert np.all(np.diff(first) > 0)

    def test_cells_strictly_inside(self):
        m = build_staircase_mesh(8, ELLIPSE)
        corners = m.vertices[m.cells].reshape(-1, 2)
        assert np.all(ELLIPSE.level_set(corners) < 0)

    def test_axis_aligned_normals(self):
        m = build_staircase_mesh(16, ELLIPSE)
        axes = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        for n_h in m.boundary_facets.n_h:
            assert (n_h[0], n_h[1]) in axes

    def test_rho_against_brute_force_n32(self):
        # Oracle: brentq on the raw level set along each facet ray.  Note the
        # max is NOT O(cell size): vertical facets near the flat poles of the
        # ellipse see a nearly tangent boundary, so the worst ray distance
        # scales like sqrt(cell size).
        from scipy.optimize import brentq

        m = precompute_boundary_geometry(build_staircase_mesh(32, ELLIPSE), ELLIPSE, 4)
        F = m.boundary_facets
        oracle_max = 0.0
        for points, n_h, rho in zip(F.points, F.n_h, F.rho):
            for q in range(len(F.s)):
                x = points[q]
                g = lambda t: float(ELLIPSE.level_set(x + t * n_h))
                lo = 1e-12
                hi = 0.5
                root = brentq(g, lo, hi, xtol=1e-14) if g(lo) * g(hi) < 0 else 0.0
                assert rho[q] == pytest.approx(root, abs=1e-10)
                oracle_max = max(oracle_max, root)
        max_rho = np.max(np.abs(F.rho))
        assert max_rho == pytest.approx(oracle_max, abs=1e-10)
        assert max_rho <= ELLIPSE.delta0

    def test_rho_positive(self):
        # Strictly-inside retention gives Omega_h inside Omega, so rho_h > 0.
        m = precompute_boundary_geometry(build_staircase_mesh(16, ELLIPSE), ELLIPSE, 4)
        assert np.all(m.boundary_facets.rho > 0)

    def test_euler_characteristic_one(self):
        for n in (16, 32):
            assert euler_characteristic(build_staircase_mesh(n, ELLIPSE)) == 1

    def test_empty_mesh(self):
        from bvcfem.geometry import make_polygon_domain

        tiny = make_polygon_domain(
            [(0.001, 0.001), (0.002, 0.001), (0.002, 0.002), (0.001, 0.002)],
            u_exact=lambda p: np.zeros(np.shape(p)[:-1]),
            grad_u_exact=lambda p: np.zeros(np.shape(p)),
            f_rhs=lambda p: np.zeros(np.shape(p)[:-1]),
            delta0=0.0005,
        )
        with pytest.raises(EmptyMesh):
            build_staircase_mesh(8, tiny)

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            build_staircase_mesh(7, ELLIPSE)


class TestPrecompute:
    def test_pullback_on_boundary(self):
        m = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        F = m.boundary_facets
        assert np.all(np.abs(RING.level_set(F.pullback)) <= 1e-12)
        # stored rho reproduces the pullback point
        rebuilt = F.points + F.rho[:, :, None] * F.n_h[:, None, :]
        assert np.allclose(rebuilt, F.pullback, atol=1e-15)

    def test_weights_sum_to_length(self):
        m = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 4)
        F = m.boundary_facets
        for weights, length in zip(F.weights, F.length):
            assert np.sum(weights) == pytest.approx(length, rel=1e-14)

    def test_second_precompute_leaves_the_first_intact(self):
        # Each call returns a new mesh; the input and earlier results keep
        # their geometry, so spaces built on one cannot meet another's facets.
        from bvcfem.assembly import DimensionMismatch, assemble_primal
        from bvcfem.spaces import build_multiplier_space, build_primal_space

        mesh = build_annulus_mesh(8, 2)
        m4 = precompute_boundary_geometry(mesh, RING, 4)
        m6 = precompute_boundary_geometry(mesh, RING, 6)
        assert m4 is not m6
        assert m4.boundary_facets.weights.shape[1] == 4
        assert m6.boundary_facets.weights.shape[1] == 6
        assert mesh.boundary_facets.s is None
        V = build_primal_space(m4, 2, enrich=True)
        L = build_multiplier_space(m6, 1)
        with pytest.raises(DimensionMismatch):
            assemble_primal(V, L, RING)

    def test_mesh_is_frozen_and_keeps_its_maps(self):
        # The maps are computed once, when the mesh is built: a precompute
        # shares them, and no field can be reassigned afterwards.
        mesh = build_annulus_mesh(8, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.J = np.zeros_like(mesh.J)
        m4 = precompute_boundary_geometry(mesh, RING, 4)
        assert m4.J is mesh.J and m4.Jinv is mesh.Jinv and m4.detJ is mesh.detJ

    def test_small_rho_near_endpoints(self):
        m = precompute_boundary_geometry(build_annulus_mesh(64, 16), RING, 8)
        sagitta = 0.75 * (1.0 - np.cos(np.pi / 64))
        for rho in m.boundary_facets.rho[:20]:
            assert np.max(np.abs(rho)) <= sagitta * 1.01


class TestSequence:
    """The study's refinement ladder, as built by its level recipe."""

    @staticmethod
    def ladder(domain, element, levels):
        config = StudyConfig(domain=domain, element=element)
        dom = RING if domain == "ring" else ELLIPSE
        return [build_level(config, level, dom)[0].mesh for level in range(levels)]

    def test_annulus_ladder_counts(self):
        ms = self.ladder("ring", "p1", 3)
        assert [m.nno for m in ms] == [80, 288, 1088]

    def test_h_ratio(self):
        ms = self.ladder("ring", "p1", 4)
        hs = [m.h for m in ms]
        for a, b in zip(hs, hs[1:]):
            assert 1.8 <= a / b <= 2.1
        ms = self.ladder("ellipse", "q1", 3)
        hs = [m.h for m in ms]
        for a, b in zip(hs, hs[1:]):
            assert 1.8 <= a / b <= 2.1

    def test_staircase_level0(self):
        ms = self.ladder("ellipse", "q1", 3)
        side = np.max(ms[0].vertices[ms[0].cells[0]], axis=0) - np.min(
            ms[0].vertices[ms[0].cells[0]], axis=0
        )
        assert np.allclose(side, 4.0 / 16.0)


class TestGeometricAssumptionTrends:
    def test_annulus_delta_h_is_h_squared(self):
        ratios = []
        for lvl in range(3):
            m = precompute_boundary_geometry(build_annulus_mesh(16 * 2**lvl, 4 * 2**lvl), RING, 6)
            delta = np.max(np.abs(m.boundary_facets.rho))
            ratios.append(delta / m.h**2)
        assert max(ratios) / min(ratios) < 1.2

    def test_staircase_delta_h_scales_like_sqrt_h(self):
        # The pole facets keep delta_h from being O(h); the observed scaling
        # on this grid family is ~sqrt(h).
        ratios = []
        for lvl in range(4):
            m = precompute_boundary_geometry(build_staircase_mesh(16 * 2**lvl, ELLIPSE), ELLIPSE, 4)
            delta = np.max(np.abs(m.boundary_facets.rho))
            ratios.append(delta / np.sqrt(m.h))
        assert max(ratios) / min(ratios) < 2.0


def test_square_fixture_mesh():
    m = build_square_mesh(2, "triangle")
    assert m.nno == 9
    assert m.num_cells == 8
    assert len(m.boundary_facets) == 8
    q = build_square_mesh(2, "quad")
    assert q.num_cells == 4
    assert euler_characteristic(q) == 1


def test_mesh_from_arrays_rejects_clockwise():
    from bvcfem.mesh import MeshError

    with pytest.raises(MeshError):
        mesh_from_arrays(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 2, 1)], "triangle"
        )


def test_mesh_from_arrays_rejects_unknown_cell_kind():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    with pytest.raises(MeshError, match="'quadrilateral'"):
        mesh_from_arrays(square, [(0, 1, 2, 3)], "quadrilateral")


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


@pytest.mark.parametrize(
    "vertices, cells, kind, message",
    [
        (_SQUARE, [(0, 1, 2), (1, 3, -1)], "triangle", r"cell 1 has vertex ids \[1, 3, -1\]"),
        (_SQUARE, [(0, 1, 2), (1, 3, 4)], "triangle", r"cell 1 .* not all in \[0, 4\)"),
        (_SQUARE, [(0, 1, 2, 3)], "triangle", r"cell 0: a triangle has 3 vertices"),
        (_SQUARE, [(0, 1, 3)], "quad", r"cell 0: a quad has 4 vertices"),
        ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2)], "triangle",
         r"vertices must have shape \(nno, 2\), got \(3, 3\)"),
        ([(0.0, 0.0), (np.nan, 0.0), (0.0, 1.0)], [(0, 1, 2)], "triangle",
         r"vertex 1 is \[nan, 0.0\], not finite"),
        (_SQUARE, [(0, 1, 2), (1, 3, 2), (0, 1.7, 2)], "triangle",
         r"cell 2 has vertex ids \[0.0, 1.7, 2.0\], not all integers"),
    ],
    ids=["negative-id", "id-past-nno", "triangle-with-4", "quad-with-3", "3d-vertices",
         "nan-vertex", "fractional-id"],
)
def test_mesh_from_arrays_rejects_bad_arrays(vertices, cells, kind, message):
    with pytest.raises(MeshError, match=message):
        mesh_from_arrays(vertices, cells, kind)


@pytest.mark.parametrize(
    "cells, kind",
    [(np.zeros((0, 3), int), "triangle"), (np.zeros((0, 4), int), "quad"), ([], "triangle")],
    ids=["triangle", "quad", "empty-list"],
)
def test_mesh_from_arrays_rejects_zero_cells(cells, kind):
    # A mesh of no cells would fail only later, in Mesh.num_edges, with
    # numpy's bare zero-size reduction error.
    with pytest.raises(EmptyMesh, match=r"cells is empty: shape \(0,"):
        mesh_from_arrays(np.zeros((3, 2)), cells, kind)


# One mesh from each builder: annulus triangles, staircase quads, square quads.
EVERY_BUILDER = pytest.mark.parametrize(
    "mesh",
    [build_annulus_mesh(16, 4), build_staircase_mesh(16, ELLIPSE), build_square_mesh(3, "quad")],
    ids=["annulus", "staircase", "square-quad"],
)


@EVERY_BUILDER
def test_to_physical_matches_per_cell_map(mesh):
    xi = np.random.default_rng(3).uniform(0.0, 1.0, size=(7, 2))
    got = mesh.to_physical(xi)
    assert got.shape == (mesh.num_cells, 7, 2)
    for c in range(mesh.num_cells):
        want = [mesh.origins[c] + mesh.J[c] @ p for p in xi]
        np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-15)


@EVERY_BUILDER
class TestCellEdges:
    def test_ids_follow_first_use_of_vertex_pairs(self, mesh):
        # Oracle: a dict filled in cell-major, local-edge order.
        table = {}
        nloc = mesh.cells.shape[1]
        for c, cell in enumerate(mesh.cells.tolist()):
            for e in range(nloc):
                a, b = cell[e], cell[(e + 1) % nloc]
                eid = table.setdefault((min(a, b), max(a, b)), len(table))
                assert mesh.cell_edges[c, e] == eid
        assert mesh.num_edges == len(table)

    def test_interior_edges_two_cells_boundary_facets_one(self, mesh):
        uses = np.bincount(mesh.cell_edges.ravel())
        F = mesh.boundary_facets
        on_boundary = np.zeros(mesh.num_edges, dtype=bool)
        on_boundary[mesh.cell_edges[F.cell, F.local_edge]] = True
        assert np.sum(on_boundary) == len(F)
        assert np.all(uses[on_boundary] == 1)
        assert np.all(uses[~on_boundary] == 2)
