"""Direct sparse solution of the assembled systems.

Every system is pre-ordered by reverse Cuthill-McKee and factored by SuperLU
along one of two paths, chosen from the matrix:

- diagonal pivoting: a minimum-degree ordering of A + A^T, pivots taken from
  the diagonal.  Gate: max|A - A^T| <= SYMMETRY_RTOL * |A|max, and the
  zeros on the diagonal span a principal block with no stored entry.
  The corrected multiplier and Nitsche systems have no zero on the diagonal
  and let SuperLU order them (`MMD_AT_PLUS_A`).  The zero-block
  `unmodified` saddle systems take the same minimum-degree order, read from
  a drop-everything incomplete factorization of their pattern, with each
  zero-diagonal dof moved to just after its last neighbour, and are factored
  in that order: its neighbours' fill makes its pivot nonzero by the time it
  is eliminated, so no row is swapped.
- partial pivoting: COLAMD with SuperLU's default threshold pivoting, for
  everything else (the non-symmetric `taylor` systems).

Both paths enforce the near-zero-pivot check (`SingularSystem`) and the
relative residual contract ||Az - b|| / ||b|| <= 1e-10, with a single
iterative-refinement step as backup.  The gate does not make diagonal
pivoting stable (the -D block takes both signs, a zero block is indefinite),
so any `SolverError` on that path falls back, with a warning, to partial
pivoting, which alone decides whether a system is singular.  A non-finite
entry in A or b is rejected before any ordering.  Each solve emits one DEBUG
record on the `bvcfem.solver` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import spilu, splu

from .assembly import NitscheSystem, SaddleSystem

logger = logging.getLogger(__name__)


class SolverError(Exception):
    pass


class SingularSystem(SolverError):
    """Factorization hit a (near-)zero pivot; dof_index = -1 when unknown."""

    def __init__(self, message, dof_index=-1):
        super().__init__(message)
        self.dof_index = dof_index


PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-10
# Assembled blocks are symmetric only to a few ulps (einsum contraction order).
SYMMETRY_RTOL = 1e-12

DIAGONAL_PIVOT = "diagonal-pivot"
ZERO_BLOCK = "zero-block"  # diagonal pivoting in a precomputed order
PARTIAL_PIVOT = "partial-pivot"
_SPLU_OPTIONS = {
    DIAGONAL_PIVOT: dict(
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ),
    ZERO_BLOCK: dict(
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ),
    PARTIAL_PIVOT: {},
}


@dataclass
class SolutionField:
    """Coefficients in a primal or multiplier space, with point evaluation."""

    space: object
    coefficients: np.ndarray

    def __post_init__(self):
        if len(self.coefficients) != self.space.dof_count:
            raise SolverError(
                f"coefficient vector length {len(self.coefficients)} does not "
                f"match dof count {self.space.dof_count}"
            )

    def evaluate_on_facet(self, fidx, s):
        """Multiplier values at facet parameters s on facet(s) fidx.

        fidx is a facet index (values (nq,)) or an index array or slice over
        the facets (values (nf, nq)).
        """
        return self.coefficients[self.space.facet_dofs[fidx]] @ self.space.eval(np.asarray(s)).T

    def vertex_values(self):
        """Values at mesh vertices (vertex dofs lead the Lagrange numbering)."""
        return self.coefficients[: self.space.mesh.nno]


def solve_linear(A, b) -> np.ndarray:
    """Solve A z = b by RCM + sparse LU, enforcing the residual contract."""
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise SolverError(f"matrix is not square: {A.shape}")
    if A.shape[0] != b.shape[0]:
        raise SolverError(f"rhs length {b.shape[0]} does not match {A.shape}")
    _check_finite(A, b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)

    perm = reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True)
    Ap = A[perm, :][:, perm].tocsc()
    anorm = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    if _diagonal_pivot_gate(A, anorm):
        zero = np.flatnonzero(Ap.diagonal() == 0)
        path = ZERO_BLOCK if zero.size else DIAGONAL_PIVOT
        try:
            if path == ZERO_BLOCK:
                q = _zero_block_order(Ap, zero)
                return _factor_and_solve(A, Ap[q, :][:, q], perm[q], b, bnorm, anorm, path)
            return _factor_and_solve(A, Ap, perm, b, bnorm, anorm, path)
        except SolverError as exc:
            logger.warning(
                "%s solve rejected (%s: %s); falling back to partial pivoting",
                path, type(exc).__name__, exc,
            )
    return _factor_and_solve(A, Ap, perm, b, bnorm, anorm, PARTIAL_PIVOT)


def _check_finite(A, b) -> None:
    """SolverError naming the first non-finite entry of A (row-major), then b."""
    if not np.all(np.isfinite(A.data)):
        R = A.tocsr()
        k = int(np.flatnonzero(~np.isfinite(R.data))[0])
        row = int(np.searchsorted(R.indptr, k, side="right")) - 1
        raise SolverError(
            f"non-finite matrix entry {R.data[k]} at row {row}, column {R.indices[k]}"
        )
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise SolverError(f"non-finite rhs entry {b[bad[0]]} at index {bad[0]}")


def _diagonal_pivot_gate(A, anorm) -> bool:
    """The zero-diagonal dofs span a principal block with no stored entry
    (checked first), and max|A - A^T| <= SYMMETRY_RTOL * |A|max."""
    zero = np.flatnonzero(A.diagonal() == 0)
    if zero.size and A[zero, :][:, zero].nnz:
        return False
    return abs(A - A.T).max() <= SYMMETRY_RTOL * anorm


def _zero_block_order(Ap, zero) -> np.ndarray:
    """Column order of Ap: SuperLU's minimum degree, with each zero-diagonal
    dof (`zero`) moved to just after its last neighbour, the last-eliminated
    stored row of its column.

    SuperLU computes its `MMD_AT_PLUS_A` order only inside a factorization,
    so it is read from an incomplete factorization of Ap's pattern under a
    dominant diagonal, which drops all it can of the off-diagonal entries.
    """
    n = Ap.shape[0]
    P = sp.csc_matrix((np.ones(Ap.nnz), Ap.indices, Ap.indptr), shape=Ap.shape)
    M = (P + P.T + n * sp.eye(n)).tocsc()
    step = spilu(M, drop_tol=1.0, fill_factor=1.0, **_SPLU_OPTIONS[DIAGONAL_PIVOT]).perm_c
    # Sort key 2 * step, and 2 * (last neighbour's step) + 1 for a
    # zero-diagonal dof; several that follow one dof keep their mutual order.
    cols = Ap[:, zero]
    key = 2 * step
    key[zero] = -1
    np.maximum.at(key, np.repeat(zero, np.diff(cols.indptr)), 2 * step[cols.indices] + 1)
    return np.lexsort((step, key))


def _factor_and_solve(A, Ap, perm, b, bnorm, anorm, path) -> np.ndarray:
    """Factor Ap = A[perm][:, perm] along `path` and solve under the contract."""
    try:
        lu = splu(Ap, **_SPLU_OPTIONS[path])
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystem(f"factorization failed: {exc}") from exc

    udiag = np.abs(lu.U.diagonal())
    j = int(np.argmin(udiag))
    if udiag[j] < PIVOT_RTOL * anorm:
        # Column j of U is column i of Ap where perm_c[i] == j.
        dof = int(perm[np.flatnonzero(lu.perm_c == j)[0]])
        raise SingularSystem(
            f"near-zero pivot {udiag[j]:.3e} (|A|max={anorm:.3e}) at dof {dof}",
            dof_index=dof,
        )

    z = np.empty_like(b)
    z[perm] = lu.solve(b[perm])
    resid = b - A @ z
    relres = float(np.linalg.norm(resid)) / bnorm
    refined = not relres <= RESIDUAL_RTOL
    if refined:
        z[perm] += lu.solve(resid[perm])
        relres = float(np.linalg.norm(b - A @ z)) / bnorm
        if not relres <= RESIDUAL_RTOL:
            raise SolverError(f"residual contract violated: relres={relres:.3e}")
    logger.debug(
        "solve path=%s n=%d nnz(A)=%d nnz(L+U)=%d min_pivot_ratio=%.3e "
        "relres=%.3e refined=%s",
        path, A.shape[0], A.nnz, lu.nnz, udiag[j] / anorm, relres, refined,
    )
    return z


def solve(system):
    """Solve an assembled system.

    Returns (u_field, lambda_field) over every dof of the spaces;
    lambda_field is None for Nitsche.  solve_linear factors the condensed
    matrix the assembler built, and its residual contract holds on that
    matrix; the cell-interior dofs are then restored from
    system.interior.  Keeping the uncondensed matrix alive through the
    factorization for a second residual check would cost the memory the
    condensation saves.
    """
    if not isinstance(system, (NitscheSystem, SaddleSystem)):
        raise SolverError(f"cannot solve a {type(system).__name__}")
    z = solve_linear(system.full_matrix(), system.full_rhs())
    if isinstance(system, NitscheSystem):
        return SolutionField(system.V, system.interior.restore(z)), None
    nu = system.K.shape[0]
    return (
        SolutionField(system.V, system.interior.restore(z[:nu])),
        SolutionField(system.Lam, z[nu:]),
    )
