"""Error norms, triple norm, rate fitting, inf-sup diagnostic, geometry report.

Oracles: analytic integrals cross-checked by Monte Carlo, the projection
residual from project_to_multiplier, dense SVD for the inf-sup constant, and
the chord sagitta bound for delta_h.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bvcfem import analysis
from bvcfem.analysis import (
    DegenerateFit,
    TooLarge,
    error_triple_norm,
    field_l2_norm,
    fit_rates,
    geometry_report,
    infsup_diagnostic,
    l2_h1_errors,
    multiplier_error,
    pairwise_rate,
    ErrorReport,
    exact_data,
)
from bvcfem.geometry import make_ellipse_domain, make_polygon_domain, make_ring_domain, make_square_domain
from bvcfem.mesh import (
    build_annulus_mesh,
    build_square_mesh,
    build_staircase_mesh,
    mesh_from_arrays,
    precompute_boundary_geometry,
)
from bvcfem.solver import SolutionField
from bvcfem.spaces import build_multiplier_space, build_primal_space, quadrature
from bvcfem.study import StudyConfig, build_level
from oracles import (
    assembled_stiffness,
    cell_basis,
    cell_dofs,
    elevated_l2_h1_errors,
    interpolate,
    project_to_multiplier,
    whole_mesh_l2_h1_errors,
)

RING = make_ring_domain()
ELLIPSE = make_ellipse_domain()


def triangle_fixture(u, grad_u, f):
    domain = make_polygon_domain(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], u, grad_u, f, delta0=0.2
    )
    mesh = mesh_from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], "triangle")
    return domain, precompute_boundary_geometry(mesh, domain, 4)


class TestL2H1:
    def test_interpolant_of_member_is_exact(self):
        domain = make_square_domain()
        mesh = precompute_boundary_geometry(build_square_mesh(3, "triangle"), domain, 4)
        V = build_primal_space(mesh, 1, enrich=False)
        field = SolutionField(V, interpolate(V, domain.u_exact))
        err_l2, err_h1 = l2_h1_errors(field, domain)
        assert err_l2 <= 1e-12
        assert err_h1 <= 1e-12

    def test_constant_mismatch(self):
        # u_h = 0, u = 1 on the unit square: L2 error 1, H1 seminorm error 0
        one = lambda p: np.ones(np.shape(p)[:-1])
        zerov = lambda p: np.zeros(np.shape(p))
        domain = make_polygon_domain(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], one, zerov, one, delta0=0.2
        )
        mesh = precompute_boundary_geometry(build_square_mesh(2, "quad"), domain, 4)
        V = build_primal_space(mesh, 1, enrich=False)
        field = SolutionField(V, np.zeros(V.dof_count))
        err_l2, err_h1 = l2_h1_errors(field, domain)
        assert err_l2 == pytest.approx(1.0, abs=1e-14)
        assert err_h1 == pytest.approx(0.0, abs=1e-14)

    def test_p1_interpolant_of_x_squared(self):
        # Interpolant of x^2 on the reference triangle is x, so the H1 error
        # is sqrt(int |2x - 1|^2) = sqrt(1/6); L2 error from the same oracle.
        u = lambda p: np.asarray(p)[..., 0] ** 2
        gu = lambda p: np.stack(
            [2.0 * np.asarray(p)[..., 0], np.zeros(np.shape(p)[:-1])], axis=-1
        )
        f = lambda p: np.full(np.shape(p)[:-1], -2.0)
        domain, mesh = triangle_fixture(u, gu, f)
        V = build_primal_space(mesh, 1, enrich=False)
        field = SolutionField(V, interpolate(V, u))
        err_l2, err_h1 = l2_h1_errors(field, domain)
        assert err_h1 == pytest.approx(np.sqrt(1.0 / 6.0), abs=1e-14)
        # Monte Carlo cross-check of both integrals
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, size=(2_000_000, 2))
        pts = a[a.sum(axis=1) <= 1.0]
        vals = (pts[:, 0] ** 2 - pts[:, 0]) ** 2
        mc_l2 = np.sqrt(vals.mean() * 0.5)
        assert err_l2 == pytest.approx(mc_l2, rel=5e-3)
        grads = (2.0 * pts[:, 0] - 1.0) ** 2
        mc_h1 = np.sqrt(grads.mean() * 0.5)
        assert err_h1 == pytest.approx(mc_h1, rel=5e-3)

    def test_quadrature_saturation(self):
        # Elevating the quadrature order shifts the error by far less than 1%.
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        field = SolutionField(V, interpolate(V, RING.u_exact))
        e1 = l2_h1_errors(field, RING)
        e2 = elevated_l2_h1_errors(field, RING)
        assert abs(e1[0] - e2[0]) < 0.01 * e1[0]
        assert abs(e1[1] - e2[1]) < 0.01 * e1[1]

    def test_absolute_homogeneity(self):
        zero = lambda p: np.zeros(np.shape(p)[:-1])
        zerov = lambda p: np.zeros(np.shape(p))
        domain, mesh = triangle_fixture(zero, zerov, zero)
        V = build_primal_space(mesh, 2, enrich=False)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(V.dof_count)
        base = l2_h1_errors(SolutionField(V, coeffs), domain)
        scaled = l2_h1_errors(SolutionField(V, -2.5 * coeffs), domain)
        assert scaled[0] == pytest.approx(2.5 * base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(2.5 * base[1], rel=1e-12)


# (degree, enrich, domain) of every primal element, and per domain a mesh
# of more than one block whose cell count is not a multiple of the block
# size, and one mesh smaller than a block.
BLOCKED_FIELDS = [
    (1, False, "ring"), (2, True, "ring"), (2, False, "ring"), (3, True, "ring"), (1, True, "ellipse"),
]
BLOCKED_MESHES = {
    "ring": (lambda: build_annulus_mesh(80, 20), lambda: build_annulus_mesh(16, 4)),
    "ellipse": (
        lambda: build_staircase_mesh(128, ELLIPSE), lambda: build_staircase_mesh(16, ELLIPSE)
    ),
}


class TestBlockedNorms:
    """l2_h1_errors and field_l2_norm sum over blocks of cells; the oracle
    sums whole-mesh tables."""

    @pytest.mark.parametrize("size", ["blocks", "one-block"])
    @pytest.mark.parametrize("k,enrich,name", BLOCKED_FIELDS)
    def test_blocked_sums_match_whole_mesh(self, k, enrich, name, size):
        domain = RING if name == "ring" else ELLIPSE
        mesh = BLOCKED_MESHES[name][size == "one-block"]()
        ncells = len(mesh.cells)
        if size == "blocks":
            assert ncells > analysis._BLOCK and ncells % analysis._BLOCK
        else:
            assert ncells < analysis._BLOCK
        V = build_primal_space(precompute_boundary_geometry(mesh, domain, 2 * k + 2), k, enrich)
        rng = np.random.default_rng(k)
        coeffs = interpolate(V, domain.u_exact) + 1e-3 * rng.standard_normal(V.dof_count)
        field = SolutionField(V, coeffs)
        want = whole_mesh_l2_h1_errors(field, domain, 2 * k + 4)
        assert l2_h1_errors(field, domain) == pytest.approx(want, rel=1e-12, abs=0)
        zero = whole_mesh_l2_h1_errors(field, make_square_domain(0.0, 0.0, 0.0), 2 * k + 4)
        assert field_l2_norm(field) == pytest.approx(zero[0], rel=1e-12, abs=0)

    def test_warm_call_allocates_less_than_one_table(self):
        # P3 at level 4: one (cells, nq) float64 table is 9 MiB; a warm call
        # (exact data and basis tables already made) stays below it.
        V, _ = build_level(StudyConfig(domain="ring", element="p3", method="bvc"), 4, RING)
        field = SolutionField(V, interpolate(V, RING.u_exact))
        l2_h1_errors(field, RING)
        table = exact_data(V, RING)[0].nbytes
        tracemalloc.start()
        try:
            l2_h1_errors(field, RING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table


class TestMultiplierError:
    def test_zero_target_zero_field(self):
        domain = make_square_domain(0.0, 0.0, 0.0)
        mesh = precompute_boundary_geometry(build_square_mesh(2, "quad"), domain, 4)
        L = build_multiplier_space(mesh, 0)
        field = SolutionField(L, np.zeros(L.dof_count))
        assert multiplier_error(field, domain) == 0.0

    def test_projection_gives_projection_residual(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        L = build_multiplier_space(mesh, 1)
        target = lambda s, x, n_h: -np.sum(RING.grad_u_exact(x) * n_h[..., None, :], axis=-1)
        coeffs = project_to_multiplier(L, target)
        err = multiplier_error(SolutionField(L, coeffs), RING)
        # oracle: facet-wise residual norm of the same projection
        sq, wq = np.polynomial.legendre.leggauss(12)
        sq, wq = 0.5 * (sq + 1), 0.5 * wq
        psi = L.eval(sq)
        total = 0.0
        F = mesh.boundary_facets
        ends = mesh.vertices[F.endpoints]
        for fidx, ((p, q), n_h, length) in enumerate(zip(ends, F.n_h, F.length)):
            x = p[None, :] + sq[:, None] * (q - p)[None, :]
            resid = target(sq, x, n_h) - psi @ coeffs[L.facet_dofs[fidx]]
            total += length * np.sum(wq * resid**2)
        assert err == pytest.approx(np.sqrt(total), rel=1e-6)


class TestTripleNorm:
    def test_error_triple_norm_composition(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        L = build_multiplier_space(mesh, 1)
        u = SolutionField(V, interpolate(V, RING.u_exact))
        lam_target = lambda s, x, n_h: -np.sum(RING.grad_u_exact(x) * n_h[..., None, :], axis=-1)
        lam = SolutionField(L, project_to_multiplier(L, lam_target))
        total = error_triple_norm(u, multiplier_error(lam, RING), RING)
        _, err_h1 = l2_h1_errors(u, RING)
        assert total >= err_h1
        assert np.isfinite(total)

        # Zero discrete fields: each piece is a quadrature of the exact
        # solution alone, computed here from the mesh and the rules.
        zero_u = SolutionField(V, np.zeros(V.dof_count))
        zero_lam = SolutionField(L, np.zeros(L.dof_count))
        rule = quadrature("triangle", 2 * 2 + 4)  # l2_h1_errors' rule for k = 2
        origins, J, detJ = mesh.origins, mesh.J, mesh.detJ
        X = origins[:, None, :] + np.einsum("cab,qb->cqa", J, rule.points)
        grad_sq = np.sum(RING.grad_u_exact(X) ** 2, axis=-1)
        h1 = np.sqrt(np.sum(rule.weights[None, :] * detJ[:, None] * grad_sq))
        F = mesh.boundary_facets
        bnd = np.sqrt(np.sum(F.weights * RING.u_exact(F.points) ** 2) / mesh.h)
        flux = np.sum(RING.grad_u_exact(F.points) * F.n_h[:, None, :], axis=-1)
        lam_err = np.sqrt(np.sum(F.weights * flux**2))
        expected = h1 + bnd + np.sqrt(mesh.h) * lam_err
        got = error_triple_norm(zero_u, multiplier_error(zero_lam, RING), RING)
        assert got == pytest.approx(expected, rel=1e-12)
        # Without a multiplier (Nitsche) the last term drops out.
        got = error_triple_norm(zero_u, None, RING)
        assert got == pytest.approx(h1 + bnd, rel=1e-12)

    @pytest.mark.parametrize("enrich", [True, False], ids=["enriched", "plain"])
    def test_boundary_term_matches_per_facet_loop(self, enrich):
        # A random field traced facet by facet through cell_basis / cell_dofs;
        # without bubbles every facet's own edge is a -1 column of the table.
        from bvcfem.mesh import REFERENCE_CELLS

        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich)
        u = SolutionField(V, np.random.default_rng(7).standard_normal(V.dof_count))
        F = mesh.boundary_facets
        verts, edges = REFERENCE_CELLS["triangle"]
        bnd_sq = 0.0
        for f in range(len(F)):
            a, b = edges[F.local_edge[f]]
            pts = verts[a] + F.s[:, None] * (verts[b] - verts[a])
            vals, _ = cell_basis(V, F.cell[f], pts)
            uh = vals @ u.coefficients[cell_dofs(V, F.cell[f])]
            bnd_sq += np.sum(F.weights[f] * (RING.u_exact(F.points[f]) - uh) ** 2)
        _, err_h1 = l2_h1_errors(u, RING)
        got = error_triple_norm(u, None, RING) - err_h1
        assert got == pytest.approx(np.sqrt(bnd_sq / mesh.h), rel=1e-10)

    def test_error_report_computes_the_multiplier_norm_once(self, monkeypatch):
        from bvcfem import analysis

        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        L = build_multiplier_space(mesh, 1)
        u = SolutionField(V, interpolate(V, RING.u_exact))
        lam = SolutionField(L, np.zeros(L.dof_count))
        calls = []
        real = analysis.multiplier_error

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "multiplier_error", counted)
        report = analysis.error_report(u, lam, RING)
        assert len(calls) == 1
        assert report.triple == error_triple_norm(u, report.err_lambda, RING)


class TestExactData:
    """exact_data is evaluated once per space and domain, kept as long as
    the space, and read-only."""

    def test_entry_goes_with_its_space(self):
        V, _ = build_level(StudyConfig(element="p2"), 0, RING)
        u, _ = exact_data(V, RING)
        table = weakref.ref(u)
        del u, V
        gc.collect()
        assert table() is None

    def test_tables_are_read_only(self):
        V, _ = build_level(StudyConfig(element="p2"), 0, RING)
        for table in exact_data(V, RING):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_one_evaluation_per_level(self, monkeypatch):
        # Two methods and four l2_h1_errors calls per level read one table.
        from bvcfem import analysis, study

        sizes, norm_calls = [], []

        def counted_u(points):
            sizes.append(len(points))
            return ELLIPSE.u_exact(points)

        def counted_norms(*args, **kwargs):
            norm_calls.append(None)
            return l2_h1_errors(*args, **kwargs)

        domain = replace(ELLIPSE, u_exact=counted_u)
        monkeypatch.setitem(study.DOMAINS, "ellipse", lambda: domain)
        monkeypatch.setattr(analysis, "l2_h1_errors", counted_norms)
        study.run_preset("q1-ellipse", levels=2)
        assert len(norm_calls) == 8
        nq = len(quadrature("quad", 2 * 1 + 4).weights)
        for level in range(2):
            V, _ = build_level(study.PRESETS["q1-ellipse"].config, level, ELLIPSE)
            assert sizes.count(V.mesh.num_cells * nq) == 1


class TestFitRates:
    def _reports(self, hs, errs):
        return [
            ErrorReport(
                h=h, nno=1, dofs_u=1, dofs_lambda=1, err_l2=e, err_h1=e,
                err_lambda=e, triple=e, delta_h=0.0, normal_dev=0.0,
            )
            for h, e in zip(hs, errs)
        ]

    def test_slope_three(self):
        reports = self._reports([1.0, 0.5, 0.25], [1.0, 1 / 8, 1 / 64])
        rates = fit_rates(reports)
        assert rates["l2"].last3 == pytest.approx(3.0, abs=1e-12)
        pairwise = [pairwise_rate(a, b, "err_l2") for a, b in zip(reports, reports[1:])]
        assert pairwise == pytest.approx([3.0, 3.0], abs=1e-12)

    def test_slope_one(self):
        rates = fit_rates(self._reports([1.0, 0.5, 0.25], [1.0, 0.5, 0.25]))
        assert rates["h1"].last3 == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance(self):
        r1 = fit_rates(self._reports([1.0, 0.5, 0.25, 0.125], [1, 0.3, 0.07, 0.02]))
        r2 = fit_rates(
            self._reports([1.0, 0.5, 0.25, 0.125], [7e3, 0.3 * 7e3, 0.07 * 7e3, 0.02 * 7e3])
        )
        assert r1["l2"].last3 == pytest.approx(r2["l2"].last3, rel=1e-12)

    def test_degenerate_exact_reproduction(self):
        with pytest.raises(DegenerateFit):
            fit_rates(self._reports([1.0, 0.5, 0.25], [1e-2, 1e-8, 1e-16]))

    def test_too_few_levels(self):
        with pytest.raises(DegenerateFit):
            fit_rates(self._reports([1.0, 0.5], [1.0, 0.5]))

    def test_non_monotone_h(self):
        with pytest.raises(DegenerateFit):
            fit_rates(self._reports([1.0, 0.5, 0.7], [1.0, 0.5, 0.7]))


class TestInfSup:
    def test_single_cell_constant_multiplier(self):
        # dense oracle: sigma_min from the SVD of M^{-1/2} B N^{-1/2}
        zero = lambda p: np.zeros(np.shape(p)[:-1])
        zerov = lambda p: np.zeros(np.shape(p))
        domain, mesh = triangle_fixture(zero, zerov, zero)
        V = build_primal_space(mesh, 1, enrich=False)
        L = build_multiplier_space(mesh, 0)
        kernel, sigma = infsup_diagnostic(V, L)
        assert kernel == 0
        assert sigma > 0.0

        from bvcfem.assembly import boundary_mass_primal
        from bvcfem.mesh import REFERENCE_CELLS

        verts, edges = REFERENCE_CELLS["triangle"]

        B = np.zeros((L.dof_count, V.dof_count))
        F = mesh.boundary_facets
        psi = L.eval(F.s)
        for fidx, (c, e) in enumerate(zip(F.cell, F.local_edge)):
            a, b = edges[e]
            ref = verts[a] + F.s[:, None] * (verts[b] - verts[a])
            vals, _ = cell_basis(V, c, ref)
            B[np.ix_(L.facet_dofs[fidx], cell_dofs(V, c))] += np.einsum(
                "q,qi,qj->ij", F.weights[fidx], psi, vals
            )
        N = (assembled_stiffness(V) + boundary_mass_primal(V) / mesh.h).toarray()
        M = mesh.h * np.diag(L.mass_matrix_diagonal())
        Nc = np.linalg.cholesky(N)
        Mc = np.linalg.cholesky(M)
        T = np.linalg.solve(Mc, B) @ np.linalg.inv(Nc).T
        svals = np.linalg.svd(T, compute_uv=False)
        assert sigma == pytest.approx(svals[-1], rel=1e-10)

    @staticmethod
    def _ring_p2(lvl, enrich, m):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16 * 2**lvl, 4 * 2**lvl), RING, 6)
        return build_primal_space(mesh, 2, enrich=enrich), build_multiplier_space(mesh, m)

    @pytest.mark.parametrize(
        "enrich, m, kernels",
        [(True, 1, (0, 0)), (False, 2, (32, 64)), (False, 1, (2, 2))],
        ids=["P2+bubbles-P1", "P2-P2", "P2-P1"],
    )
    def test_kernel_count(self, enrich, m, kernels):
        # Levels 0 and 1: the kernel counts the eigenvalues at most 1e-10
        # times the largest, and sigma is the first value above them.
        for lvl, expected in enumerate(kernels):
            kernel, sigma = infsup_diagnostic(*self._ring_p2(lvl, enrich, m))
            assert kernel == expected
            assert sigma > 0.0

    def test_stable_pairing_bounded_below(self):
        sigmas = []
        for lvl in range(2):
            kernel, sigma = infsup_diagnostic(*self._ring_p2(lvl, True, 1))
            assert kernel == 0
            sigmas.append(sigma)
        assert sigmas[0] > 0.05
        assert 0.5 <= sigmas[1] / sigmas[0] <= 2.0

    def test_unstable_pairing_collapses(self):
        # One kernel vector per boundary facet: 2 trace dofs against 3
        # multipliers on each.
        for lvl in range(2):
            V, L = self._ring_p2(lvl, False, 2)
            kernel, _ = infsup_diagnostic(V, L)
            assert kernel == len(V.mesh.boundary_facets)

    def test_size_guard(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(64, 16), RING, 6)
        V = build_primal_space(mesh, 3, enrich=True)
        L = build_multiplier_space(mesh, 2)
        with pytest.raises(TooLarge):
            infsup_diagnostic(V, L)


class TestGeometryReport:
    def test_exact_polygon_zeroes(self):
        domain = make_square_domain()
        mesh = precompute_boundary_geometry(build_square_mesh(2, "quad"), domain, 4)
        delta_h, normal_dev = geometry_report(mesh, domain)
        assert delta_h == 0.0
        assert normal_dev <= 1e-12

    def test_annulus_sagitta_scaling(self):
        vals = []
        for lvl in range(3):
            mesh = precompute_boundary_geometry(
                build_annulus_mesh(16 * 2**lvl, 4 * 2**lvl), RING, 6
            )
            delta_h, normal_dev = geometry_report(mesh, RING)
            vals.append((mesh.h, delta_h, normal_dev))
            assert delta_h <= 0.75 * (1.0 - np.cos(np.pi / (16 * 2**lvl))) * 1.01
        ratios = [d / h**2 for h, d, _ in vals]
        assert max(ratios) / min(ratios) < 1.2
        # normals converge on the annulus
        assert vals[2][2] < vals[0][2]

    def test_staircase_normals_do_not_converge(self):
        devs = []
        for lvl in range(2):
            mesh = precompute_boundary_geometry(
                build_staircase_mesh(16 * 2**lvl, ELLIPSE), ELLIPSE, 4
            )
            _, normal_dev = geometry_report(mesh, ELLIPSE)
            devs.append(normal_dev)
        assert all(d > 0.5 for d in devs)  # axis normals vs curved boundary


def test_field_l2_norm_matches_l2_error_of_zero_target():
    domain = make_square_domain(0.0, 0.0, 0.0)
    mesh = precompute_boundary_geometry(build_square_mesh(3, "triangle"), domain, 4)
    V = build_primal_space(mesh, 2, enrich=True)
    rng = np.random.default_rng(9)
    field = SolutionField(V, rng.standard_normal(V.dof_count))
    err_l2, _ = l2_h1_errors(field, domain)
    assert field_l2_norm(field) == pytest.approx(err_l2, rel=1e-12)
