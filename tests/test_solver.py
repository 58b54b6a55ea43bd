"""Solver contract: residuals, linearity, singularity detection, paths, fields."""

import functools
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

import bvcfem.solver
from bvcfem.geometry import make_ring_domain, make_square_domain
from bvcfem.mesh import build_annulus_mesh, build_square_mesh, precompute_boundary_geometry
from bvcfem.solver import (
    ColumnOrder,
    SingularSystem,
    SolutionField,
    SolverError,
    solve,
    solve_linear,
)
from bvcfem.spaces import build_multiplier_space, build_primal_space
from bvcfem.analysis import _field_blocks
from bvcfem.assembly import System, assemble_nitsche, assemble_saddle
from bvcfem.study import ASSEMBLERS, DOMAINS, StudyConfig, build_level
from oracles import interpolate, lagrange_points, zero_block_order

RING = make_ring_domain()
DIAGONAL_PIVOT_KWARGS = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
)
ZERO_BLOCK_KWARGS = dict(
    permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
)


class TestSolveLinear:
    def test_identity(self):
        A = sp.eye(5, format="csc")
        b = np.zeros(5)
        b[0] = 1.0
        assert np.array_equal(solve_linear(A, b), b)

    def test_saddle_fixture_3x3(self):
        # Hand elimination: symmetry forces x1 = x2, the constraint row gives
        # x1 + x2 = 1, so x = (1/2, 1/2) and the multiplier vanishes.
        A = sp.csc_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]]))
        b = np.array([1.0, 1.0, 1.0])
        z = solve_linear(A, b)
        assert np.allclose(z, [0.5, 0.5, 0.0], atol=1e-14)
        assert np.linalg.norm(A @ z - b) <= 1e-12

    def test_zero_rhs_returns_zero(self):
        A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        z = solve_linear(A, np.zeros(2))
        assert np.array_equal(z, np.zeros(2))

    def test_zero_rhs_still_checks_singularity(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularSystem):
            solve_linear(A, np.zeros(2))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        A = sp.csc_matrix(rng.standard_normal((12, 12)) + 12 * np.eye(12))
        b = rng.standard_normal(12)
        z1 = solve_linear(A, b)
        z2 = solve_linear(A, 3.5 * b)
        assert np.allclose(z2, 3.5 * z1, rtol=1e-12, atol=1e-14)

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        n = 200
        A = sp.random(n, n, density=0.05, random_state=2, format="csc") + 10 * sp.eye(n)
        b = rng.standard_normal(n)
        z = solve_linear(A.tocsc(), b)
        assert np.linalg.norm(A @ z - b) / np.linalg.norm(b) <= 1e-10

    def test_singular_matrix_detected(self):
        A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SingularSystem):
            solve_linear(A, np.array([1.0, 1.0, 1.0]))

    def test_singular_reports_dof(self):
        A = sp.csc_matrix(np.diag([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(SingularSystem) as err:
            solve_linear(A, np.ones(4))
        assert err.value.dof_index in (-1, 2)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("k", [3, 17, 29])
    def test_near_zero_pivot_reports_its_dof(self, k, symmetric):
        # periodic tridiagonal with row and column k replaced by a tiny pivot;
        # both variants pass the diagonal-pivot gate and fall back
        n = 40
        A = sp.diags([-1.0, 2.0, -1.0 if symmetric else -0.5], [-1, 0, 1], shape=(n, n)).tolil()
        A[0, n - 1] = A[n - 1, 0] = -1.0
        A[k, :] = 0.0
        A[:, k] = 0.0
        A[k, k] = 1e-20
        with pytest.raises(SingularSystem) as err:
            solve_linear(A.tocsc(), np.ones(n))
        assert err.value.dof_index == k

    def test_non_square_rejected(self):
        with pytest.raises(SolverError):
            solve_linear(sp.csc_matrix(np.ones((2, 3))), np.ones(2))

    def test_rhs_length_checked(self):
        with pytest.raises(SolverError):
            solve_linear(sp.eye(3, format="csc"), np.ones(2))

    @pytest.mark.parametrize(
        "where, value, named",
        [
            ("b", np.nan, "index 1"),
            ("b", -np.inf, "index 1"),
            ("A", np.nan, "row 0, column 1"),
            ("A", np.inf, "row 0, column 1"),
        ],
    )
    def test_non_finite_input_rejected_before_factoring(self, splu_calls, where, value, named):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 2.0])
        if where == "A":
            A[1, 0] = A[0, 1] = value
        else:
            b[1] = value
        with pytest.raises(SolverError) as err:
            solve_linear(sp.csc_matrix(A), b)
        assert type(err.value) is SolverError
        assert "non-finite" in str(err.value) and named in str(err.value)
        assert splu_calls == []

    @pytest.mark.parametrize(
        "preorder, named",
        [
            ([2, 0, 1, 3], "shape (4,) and dtype"),
            ([2, 0, 2], "repeats index 2 at position 2"),
            ([0, 3, 1], "entry 3 at position 1 is not a row"),
        ],
        ids=["length", "repeat", "range"],
    )
    def test_bad_preorder_rejected_before_factoring(self, splu_calls, preorder, named):
        A = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(SolverError) as err:
            solve_linear(A, np.ones(3), preorder=np.array(preorder))
        assert type(err.value) is SolverError and named in str(err.value)
        assert splu_calls == []


def _ring_spaces(n_theta=8, n_r=2, degree=2):
    mesh = precompute_boundary_geometry(
        build_annulus_mesh(n_theta, n_r), RING, 2 * degree + 2
    )
    V = build_primal_space(mesh, degree, enrich=True)
    return V, build_multiplier_space(mesh, degree - 1)


class _Calls(list):
    """Keyword arguments of each factorization; `factored` holds (matrix, lu)."""

    def __init__(self):
        super().__init__()
        self.factored = []


@pytest.fixture
def splu_calls(monkeypatch):
    """Keyword arguments of every SuperLU factorization the solver makes."""
    calls = _Calls()

    def recording_splu(A, **kwargs):
        calls.append(kwargs)
        lu = splu(A, **kwargs)
        calls.factored.append((A, lu))
        return lu

    monkeypatch.setattr(bvcfem.solver, "splu", recording_splu)
    return calls


class _OffsetLU:
    """A factorization whose first `bad` solves come back offset by 1e-3."""

    def __init__(self, lu, bad):
        self.lu, self.bad = lu, bad

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, b):
        self.bad -= 1
        return self.lu.solve(b) + (1e-3 if self.bad >= 0 else 0.0)


class TestRefinement:
    """A solve that misses the residual contract gets one refinement step."""

    @staticmethod
    def offset_solves(monkeypatch, bad):
        recording = bvcfem.solver.splu
        monkeypatch.setattr(
            bvcfem.solver, "splu", lambda A, **kwargs: _OffsetLU(recording(A, **kwargs), bad)
        )
        M = np.random.default_rng(6).standard_normal((12, 12))
        return sp.csc_matrix(M + M.T + 24.0 * np.eye(12)), np.linspace(1.0, 2.0, 12)

    def test_one_step_restores_the_contract(self, splu_calls, monkeypatch, caplog):
        A, b = self.offset_solves(monkeypatch, bad=1)
        with caplog.at_level(logging.DEBUG, logger="bvcfem"):
            z = solve_linear(A, b)
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS]
        assert np.linalg.norm(A @ z - b) / np.linalg.norm(b) <= 1e-10
        (record,) = caplog.records
        assert "refined=True" in record.getMessage()

    def test_a_step_that_does_not_help_raises(self, splu_calls, monkeypatch):
        # Partial pivoting, the fallback, misses the contract too.
        A, b = self.offset_solves(monkeypatch, bad=2)
        with pytest.raises(SolverError, match=r"^residual contract violated: relres="):
            solve_linear(A, b)
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS, {}]


class TestSolverPath:
    @pytest.mark.parametrize(
        "assemble, kwargs",
        [
            (functools.partial(assemble_saddle, method="bvc"), DIAGONAL_PIVOT_KWARGS),
            (functools.partial(assemble_saddle, method="unmodified"), ZERO_BLOCK_KWARGS),
            (functools.partial(assemble_saddle, method="taylor"), ZERO_BLOCK_KWARGS),
            (lambda V, Lam, domain: assemble_nitsche(V, domain, 40.0), DIAGONAL_PIVOT_KWARGS),
        ],
        ids=["bvc", "unmodified", "taylor", "nitsche"],
    )
    def test_path_follows_matrix(self, splu_calls, assemble, kwargs):
        V, L = _ring_spaces()
        solve(assemble(V, L, RING))
        assert splu_calls == [kwargs]

    def test_stored_pattern_asymmetry_keeps_diagonal_pivoting(self, splu_calls):
        # A symmetric matrix that stores one exact zero without its mirror has
        # an asymmetric pattern; a gate that read the pattern would send it
        # to partial pivoting.
        dense = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        A = sp.csc_matrix(
            (np.array([4.0, 1.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0]),
             np.array([0, 1, 0, 1, 2, 0, 1, 2]),
             np.array([0, 2, 5, 8])),
            shape=(3, 3),
        )
        assert np.array_equal(A.toarray(), dense)
        P = sp.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
        assert (P - P.T).count_nonzero() > 0
        b = np.array([1.0, 2.0, 3.0])
        z = solve_linear(A, b)
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS]
        assert np.linalg.norm(A @ z - b) <= 1e-12 * np.linalg.norm(b)
        # Nitsche's facet blocks are summed into the cell blocks before one
        # scatter, which prunes no exact cancellation: on P2 (32x8 ring) the
        # stored pattern is symmetric.
        V, _ = build_level(StudyConfig(element="p2", method="nitsche"), 1, RING)
        A = assemble_nitsche(V, RING, 40.0).A
        P = sp.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
        assert (P - P.T).count_nonzero() == 0

    def test_tiny_diagonal_falls_back_and_meets_contract(self, splu_calls, caplog):
        # symmetric, then non-symmetric values: the gate reads neither
        for matrix in ([[1e-20, 1.0], [1.0, 1e-20]], [[1e-20, 2.0], [1.0, 1e-20]]):
            splu_calls.clear()
            caplog.clear()
            A = sp.csc_matrix(np.array(matrix))
            b = np.array([1.0, 2.0])
            with caplog.at_level(logging.DEBUG, logger="bvcfem"):
                z = solve_linear(A, b)
            assert splu_calls == [DIAGONAL_PIVOT_KWARGS, {}]
            assert np.linalg.norm(A @ z - b) / np.linalg.norm(b) <= 1e-10
            warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
            assert len(warnings) == 1
            assert warnings[0].name == "bvcfem.solver"
            assert "falling back to partial pivoting" in warnings[0].getMessage()
            debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
            assert len(debug) == 1 and "path=partial-pivot" in debug[0]

    def test_symmetric_singular_still_raises(self, splu_calls):
        # and a non-symmetric one: partial pivoting decides both
        for matrix in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [1.0, 2.0]]):
            splu_calls.clear()
            with pytest.raises(SingularSystem):
                solve_linear(sp.csc_matrix(np.array(matrix)), np.array([1.0, 2.0]))
            assert splu_calls == [DIAGONAL_PIVOT_KWARGS, {}]

    def test_debug_record_per_solve(self, caplog):
        V, L = _ring_spaces()
        system = assemble_saddle(V, L, RING, "bvc")
        with caplog.at_level(logging.DEBUG, logger="bvcfem"):
            solve(system)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "bvcfem.solver"
        message = record.getMessage()
        n = V.dof_count + L.dof_count
        assert f"path=diagonal-pivot n={n} nnz(A)={system.A.nnz}" in message
        for field in ("nnz(L+U)=", "min_pivot_ratio=", "relres=", "refined=False"):
            assert field in message

    @pytest.mark.parametrize("bare", [False, True], ids=["system", "bare-matrix"])
    def test_debug_record_names_the_preorder(self, splu_calls, caplog, bare):
        # A bare matrix has no mesh: it keeps RCM of A, factored as before.
        V, L = _ring_spaces()
        system = assemble_saddle(V, L, RING, "bvc")
        A = system.A
        with caplog.at_level(logging.DEBUG, logger="bvcfem"):
            if bare:
                solve_linear(A, system.rhs)
            else:
                solve(system)
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"solve order={'rcm' if bare else 'mesh'} step=mmd path=diagonal-pivot "
        )
        if bare:
            perm = reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True)
        else:
            perm = bvcfem.solver._mesh_order(system)
        ((got, _),) = splu_calls.factored
        assert (got != A[perm, :][:, perm]).nnz == 0

    def test_debug_record_names_the_step(self, splu_calls, caplog):
        # A companion given the corrected system's orders reuses its step.
        V, L = _ring_spaces()
        order = ColumnOrder()
        with caplog.at_level(logging.DEBUG, logger="bvcfem"):
            for method in ("bvc", "unmodified", "unmodified"):
                solve(assemble_saddle(V, L, RING, method), order if method == "bvc" else None)
            solve(assemble_saddle(V, L, RING, "unmodified"), order)
        assert [r.getMessage().split(" n=")[0] for r in caplog.records] == [
            "solve order=mesh step=mmd path=diagonal-pivot",
            "solve order=mesh step=mmd path=zero-block",
            "solve order=mesh step=mmd path=zero-block",
            "solve order=mesh step=reused path=zero-block",
        ]
        # The fallback names COLAMD, partial pivoting's column order.
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bvcfem"):
            solve_linear(sp.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]])), np.ones(2))
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == [debug[0]] and debug[0].startswith(
            "solve order=rcm step=colamd path=partial-pivot "
        )

    def test_package_logger_silent_by_default(self):
        handlers = logging.getLogger("bvcfem").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_diagonal_pivot_matches_partial_pivot_p3(self, splu_calls):
        # P3 level 2 of the bvc ring ladder
        V, L = _ring_spaces(64, 16, degree=3)
        system = assemble_saddle(V, L, RING, "bvc")
        A, b = system.A, system.rhs
        z = solve_linear(A, b)
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS]
        z_ref = splu(A).solve(b)
        assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)


@pytest.fixture(scope="module")
def ring_level3_spaces():
    """P2 and P3 level 3 of the ring ladder, by degree."""
    return {k: _ring_spaces(128, 32, degree=k) for k in (2, 3)}


@pytest.mark.parametrize("method", ["bvc", "unmodified", "nitsche"])
@pytest.mark.parametrize("degree", [2, 3])
def test_mesh_order_fills_less_than_rcm(splu_calls, ring_level3_spaces, degree, method):
    # Exact counts: the mesh pre-order gives SuperLU less fill than RCM of
    # the same matrix (P3 bvc: 1.89M against 1.99M entries of L + U).
    V, L = ring_level3_spaces[degree]
    if method == "nitsche":
        system = assemble_nitsche(V, RING, 10.0 * degree**2)
    else:
        system = assemble_saddle(V, L, RING, method)
    solve(system)
    solve_linear(system.A, system.rhs)
    (_, mesh), (_, rcm) = splu_calls.factored
    assert mesh.nnz < rcm.nnz


@pytest.fixture(scope="module")
def p3_level2_spaces():
    """P3 level 2 of the ring ladder."""
    return _ring_spaces(64, 16, degree=3)


class TestZeroBlockPath:
    @pytest.mark.parametrize("element", ["p2", "p3", "q1"])
    def test_multipliers_follow_their_neighbours(self, splu_calls, element):
        config = StudyConfig(
            domain="ellipse" if element == "q1" else "ring", element=element,
            method="unmodified",
        )
        domain = DOMAINS[config.domain]()
        solve(ASSEMBLERS["unmodified"](*build_level(config, 1, domain), domain))
        assert splu_calls == [ZERO_BLOCK_KWARGS]
        ((Aq, lu),) = splu_calls.factored
        n = Aq.shape[0]
        zero = np.flatnonzero(Aq.diagonal() == 0)
        assert zero.size
        pattern = (abs(Aq) + abs(Aq).T).tocsc()
        for j in zero:
            assert pattern[:, j].indices.max() < j
        assert np.array_equal(lu.perm_r, np.arange(n))

    def test_matches_partial_pivot_p3(self, splu_calls, p3_level2_spaces):
        for method in ("unmodified", "taylor"):
            splu_calls.clear()
            system = assemble_saddle(*p3_level2_spaces, RING, method)
            A, b = system.A, system.rhs
            z = solve_linear(A, b)
            assert splu_calls == [ZERO_BLOCK_KWARGS]
            z_ref = splu(A).solve(b)
            assert np.linalg.norm(z - z_ref) <= 1e-9 * np.linalg.norm(z_ref)

    def test_fill_stays_near_bvc_p3(self, splu_calls, p3_level2_spaces):
        # exact counts, not timings: a return to row-swapping fill (2.6x the
        # bvc factor here) fails
        for method in ("bvc", "unmodified", "taylor"):
            solve(assemble_saddle(*p3_level2_spaces, RING, method))
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS, ZERO_BLOCK_KWARGS, ZERO_BLOCK_KWARGS]
        (_, lu_bvc), (_, lu_unmodified), (_, lu_taylor) = splu_calls.factored
        assert lu_unmodified.nnz <= 1.5 * lu_bvc.nnz
        assert lu_taylor.nnz <= 1.5 * lu_bvc.nnz

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_unstable_pairing_raises_on_the_new_path(
        self, splu_calls, caplog, monkeypatch, level
    ):
        config = StudyConfig(
            element="p2", method="unmodified", multiplier_degree=2, enrich=False
        )
        system = ASSEMBLERS["unmodified"](*build_level(config, level, RING), RING)
        with caplog.at_level(logging.WARNING, logger="bvcfem"), pytest.raises(
            SingularSystem
        ) as err:
            solve(system)
        assert splu_calls == [ZERO_BLOCK_KWARGS, {}]
        (warning,) = caplog.records
        assert "zero-block solve rejected (SingularSystem:" in warning.getMessage()

        # partial pivoting on its own reports the same dof
        monkeypatch.setattr(bvcfem.solver, "_diagonal_pivot_gate", lambda Ap, zero: False)
        with pytest.raises(SingularSystem) as alone:
            solve(system)
        assert splu_calls[2:] == [{}]
        assert err.value.dof_index == alone.value.dof_index >= 0

    @pytest.mark.parametrize(
        "element, method, levels",
        [
            ("p3", "unmodified", (0, 1, 2)),
            ("p3", "taylor", (0, 1, 2)),
            ("q1", "unmodified", (0, 1, 2)),
            ("q1", "taylor", (0, 1, 2)),
            ("unstable", "unmodified", (0,)),
        ],
    )
    def test_order_from_the_pattern_alone(self, element, method, levels):
        # The order read from the upper triangle of the permuted pattern is
        # the one read from a permuted copy of A and its full pattern, from
        # the mesh pre-order of a system and from RCM of a bare matrix, with
        # and without the multiplier blocks filled in.
        if element == "unstable":
            config = StudyConfig(element="p2", multiplier_degree=2, enrich=False)
        else:
            config = StudyConfig(domain="ellipse" if element == "q1" else "ring", element=element)
        domain = DOMAINS[config.domain]()
        for level in levels:
            system = ASSEMBLERS[method](*build_level(config, level, domain), domain)
            A = system.A
            zero = np.flatnonzero(A.diagonal() == 0)
            assert zero.size and bvcfem.solver._diagonal_pivot_gate(A, zero)
            for perm in (
                bvcfem.solver._mesh_order(system),
                reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True),
            ):
                for blocks in (system.nu + system.Lam.facet_dofs, None):
                    step = bvcfem.solver._mmd_step(A, perm, blocks)
                    assert np.array_equal(
                        bvcfem.solver._zero_block_order(A, perm, zero, step),
                        zero_block_order(A, perm, blocks),
                    )

    @pytest.mark.parametrize("element", ["p1", "p2", "p3", "q1"])
    def test_step_is_the_corrected_systems_column_order(self, splu_calls, element):
        # The companion's standalone step, minimum degree of its pattern with
        # the multiplier blocks filled in, is the bvc factor's perm_c: so a
        # shared rung may hand it over and stay exact.
        config = StudyConfig(domain="ellipse" if element == "q1" else "ring", element=element)
        domain = DOMAINS[config.domain]()
        for level in (0, 1, 2):
            V, L = build_level(config, level, domain)
            order = ColumnOrder()
            solve(ASSEMBLERS["bvc"](V, L, domain), order)
            (_, lu), = splu_calls.factored
            splu_calls.factored.clear()
            unmodified = ASSEMBLERS["unmodified"](V, L, domain)
            perm = bvcfem.solver._mesh_order(unmodified)
            assert np.array_equal(perm, order.preorder)
            step = bvcfem.solver._mmd_step(unmodified.A, perm, unmodified.nu + L.facet_dofs)
            assert np.array_equal(lu.perm_c, step) and np.array_equal(order.step, step)

    @pytest.mark.parametrize(
        "step, named",
        [
            (lambda n: np.arange(n - 1), "column order of shape"),
            (lambda n: np.r_[np.arange(n - 1), 0], "column order repeats index 0 at position"),
            (lambda n: np.r_[np.arange(n - 1), n], "is not a row"),
        ],
        ids=["length", "repeat", "range"],
    )
    def test_bad_reused_step_rejected_before_factoring(
        self, splu_calls, monkeypatch, step, named
    ):
        spilu_calls = []
        monkeypatch.setattr(bvcfem.solver, "spilu", lambda *a, **k: spilu_calls.append(a))
        V, L = _ring_spaces()
        system = assemble_saddle(V, L, RING, "unmodified")
        n = system.A.shape[0]
        order = ColumnOrder(bvcfem.solver._mesh_order(system), step(n))
        with pytest.raises(SolverError) as err:
            solve(system, order)
        assert type(err.value) is SolverError and named in str(err.value)
        assert splu_calls == [] and spilu_calls == []

    def test_poor_reused_step_meets_the_contract(self, splu_calls, caplog):
        # A valid step is trusted only as far as the pivot check and the
        # residual contract.  Reversed, it fills many times more than the
        # corrected system's step, and the solve still meets the contract.
        for element, level in (("p2", 1), ("p3", 1), ("q1", 2)):
            config = StudyConfig(domain="ellipse" if element == "q1" else "ring", element=element)
            domain = DOMAINS[config.domain]()
            V, L = build_level(config, level, domain)
            system = ASSEMBLERS["unmodified"](V, L, domain)
            order = ColumnOrder()
            solve(ASSEMBLERS["bvc"](V, L, domain), order)
            solve(system, ColumnOrder(order.preorder, order.step))
            order.step = order.step[::-1].copy()
            with caplog.at_level(logging.WARNING, logger="bvcfem"):
                u, lam = solve(system, order)
            assert caplog.records == []
            assert splu_calls[1:] == [ZERO_BLOCK_KWARGS] * 2
            (_, good), (_, poor) = splu_calls.factored[1:]
            assert poor.nnz > 5 * good.nnz
            z = np.concatenate([u.coefficients[: system.nu], lam.coefficients])
            assert np.linalg.norm(system.A @ z - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)
            splu_calls.clear()
            splu_calls.factored.clear()

    def test_reused_step_falls_back_with_the_warning(self, splu_calls, caplog):
        # The unstable pairing's companion, given bvc's step, hits a zero
        # pivot on the zero-block path; partial pivoting then finds the
        # dof it finds on its own.
        config = StudyConfig(element="p2", multiplier_degree=2, enrich=False)
        V, L = build_level(config, 0, RING)
        order = ColumnOrder()
        solve(ASSEMBLERS["bvc"](V, L, RING), order)
        system = ASSEMBLERS["unmodified"](V, L, RING)
        with caplog.at_level(logging.WARNING, logger="bvcfem"), pytest.raises(
            SingularSystem
        ) as err:
            solve(system, order)
        assert splu_calls == [DIAGONAL_PIVOT_KWARGS, ZERO_BLOCK_KWARGS, {}]
        (warning,) = caplog.records
        assert "zero-block solve rejected (SingularSystem:" in warning.getMessage()
        with pytest.raises(SingularSystem) as alone:
            solve(system)
        assert err.value.dof_index == alone.value.dof_index >= 0

    def test_coupled_zero_diagonal_goes_to_partial_pivoting(self, splu_calls):
        A = sp.csc_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 3.0]]))
        b = np.array([1.0, 2.0, 3.0])
        z = solve_linear(A, b)
        assert splu_calls == [{}]
        assert np.linalg.norm(A @ z - b) <= 1e-12 * np.linalg.norm(b)


CSC = ("indptr", "indices", "data")


class _ReleasedLU:
    """A factorization whose U read asserts that the matrix it was factored
    from, and its data array, are gone."""

    def __init__(self, lu, refs):
        self.lu, self.refs = lu, refs
        self.u_reads = 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    @property
    def U(self):
        assert [ref() for ref in self.refs] == [None, None], "the factored copy outlived splu"
        self.u_reads += 1
        return self.lu.U


@pytest.fixture
def released_splu(monkeypatch):
    """splu that keeps only weak references to the matrix it factors; each
    call is recorded as (kwargs, copies of its CSC arrays, lu proxy)."""
    calls = []

    def weak_splu(A, **kwargs):
        arrays = tuple(getattr(A, part).copy() for part in CSC)
        lu = _ReleasedLU(splu(A, **kwargs), (weakref.ref(A), weakref.ref(A.data)))
        calls.append((kwargs, arrays, lu))
        return lu

    monkeypatch.setattr(bvcfem.solver, "splu", weak_splu)
    return calls


class TestReleasedCopy:
    """No permuted copy of A is alive when the solver reads lu.U."""

    @pytest.mark.parametrize(
        "method, kwargs",
        [("bvc", DIAGONAL_PIVOT_KWARGS), ("unmodified", ZERO_BLOCK_KWARGS)],
        ids=["bvc", "unmodified"],
    )
    def test_p3_ring_level_1(self, released_splu, method, kwargs):
        config = StudyConfig(element="p3", method=method)
        solve(ASSEMBLERS[method](*build_level(config, 1, RING), RING))
        ((got, _, lu),) = released_splu
        assert got == kwargs and lu.u_reads == 1

    def test_unstable_pairing_fallback(self, released_splu):
        # The fallback factors A in the system's mesh pre-order.
        config = StudyConfig(
            element="p2", method="unmodified", multiplier_degree=2, enrich=False
        )
        system = ASSEMBLERS["unmodified"](*build_level(config, 0, RING), RING)
        with pytest.raises(SingularSystem):
            solve(system)
        assert [kwargs for kwargs, _, _ in released_splu] == [ZERO_BLOCK_KWARGS, {}]
        _, arrays, lu = released_splu[1]
        assert lu.u_reads == 1
        A = system.A
        perm = bvcfem.solver._mesh_order(system)
        want = A[perm, :][:, perm]
        for part, got in zip(CSC, arrays):
            assert np.array_equal(got, getattr(want, part))


class TestSolveSystems:
    def test_patch_system_exact(self):
        # enrichment matters even here: P1 against facet constants on an even
        # closed facet loop has a checkerboard multiplier in ker(B^T)
        domain = make_square_domain()
        mesh = precompute_boundary_geometry(build_square_mesh(2, "triangle"), domain, 4)
        V = build_primal_space(mesh, 1, enrich=True)
        L = build_multiplier_space(mesh, 0)
        system = assemble_saddle(V, L, domain, "bvc")
        u, lam = solve(system)
        points = lagrange_points(V)
        bubble = np.isnan(points[:, 0])
        exact = domain.u_exact(points[~bubble])
        assert np.max(np.abs(u.coefficients[~bubble] - exact)) <= 1e-12
        assert np.max(np.abs(u.coefficients[bubble])) <= 1e-12
        z = np.concatenate([u.coefficients, lam.coefficients])
        assert np.linalg.norm(system.A @ z - system.rhs) <= 1e-12

    def test_unstable_pairing_is_singular(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=False)
        L = build_multiplier_space(mesh, 2)  # richer than the boundary trace
        with pytest.raises(SingularSystem):
            solve(assemble_saddle(V, L, RING, "unmodified"))

    @pytest.mark.parametrize("method", ["bvc", "unmodified", "taylor", "nitsche"])
    def test_one_record_one_solve_path(self, method):
        # P3 condenses its cell-interior dofs, so u spans V only once restored.
        config = StudyConfig(element="p3")
        domain = DOMAINS[config.domain]()
        V, Lam = build_level(config, 0, domain)
        if method == "nitsche":
            system = assemble_nitsche(V, domain, 90.0)
        else:
            system = ASSEMBLERS[method](V, Lam, domain)
        assert type(system) is System
        u, lam = solve(system)
        assert (lam is None) == (system.Lam is None) == (method == "nitsche")
        assert len(u.coefficients) == V.dof_count

    def test_rejects_what_is_not_a_system(self):
        with pytest.raises(SolverError, match="cannot solve a object"):
            solve(object())

    def test_bvc_heals_unstable_pairing(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), RING, 6)
        V = build_primal_space(mesh, 2, enrich=False)
        L = build_multiplier_space(mesh, 2)
        u, lam = solve(assemble_saddle(V, L, RING, "bvc"))
        assert np.all(np.isfinite(u.coefficients))


class TestSolutionField:
    def test_coefficient_length_checked(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        V = build_primal_space(mesh, 1, enrich=False)
        with pytest.raises(SolverError):
            SolutionField(V, np.zeros(V.dof_count + 1))

    def test_nodal_evaluation_reproduces_coefficients(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        V = build_primal_space(mesh, 2, enrich=True)
        rng = np.random.default_rng(4)
        field = SolutionField(V, rng.standard_normal(V.dof_count))
        # evaluate at the vertex reference positions of a few cells
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        (_, uh, _), = _field_blocks(field, ref)
        for c in (0, 5, 17):
            vals = uh[c]
            dofs = mesh.cells[c]
            assert np.allclose(vals, field.coefficients[dofs], atol=1e-13)

    def test_gradient_of_interpolated_affine(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        V = build_primal_space(mesh, 2, enrich=False)
        field = SolutionField(V, interpolate(V, lambda p: 2.0 * p[..., 0] - 3.0 * p[..., 1]))
        ref = np.array([[0.25, 0.25], [0.1, 0.6]])
        (_, _, guh), = _field_blocks(field, ref)
        g = guh[3]
        assert np.allclose(g, [[2.0, -3.0]] * 2, atol=1e-12)

    def test_multiplier_facet_evaluation(self):
        mesh = precompute_boundary_geometry(build_annulus_mesh(8, 2), RING, 6)
        L = build_multiplier_space(mesh, 1)
        coeffs = np.zeros(L.dof_count)
        coeffs[L.facet_dofs[3]] = [1.0, 2.0]  # 1 + 2 P1(2s-1)
        field = SolutionField(L, coeffs)
        s = np.array([0.0, 0.5, 1.0])
        assert np.allclose(field.evaluate_on_facet(3, s), [-1.0, 1.0, 3.0], atol=1e-14)
        assert np.allclose(field.evaluate_on_facet(2, s), 0.0, atol=1e-15)
        every = field.evaluate_on_facet(slice(None), s)
        assert np.allclose(every[[2, 3]], [[0.0, 0.0, 0.0], [-1.0, 1.0, 3.0]], atol=1e-14)
