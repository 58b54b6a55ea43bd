"""Direct sparse solution of the assembled systems.

`solve` pre-orders a system's dofs from its mesh (`_mesh_order`: reverse
Cuthill-McKee of the vertex graph, carried to the dofs through their cells),
`solve_linear` on a bare matrix by reverse Cuthill-McKee of the matrix; a
given pre-order that is not a permutation of the rows is rejected.  The
system is then factored by SuperLU along one of two paths, chosen from the
matrix structure, each starting from that pre-order:

- diagonal pivoting: a minimum-degree ordering of A + A^T, pivots taken from
  the diagonal.  Gate: the zeros on the diagonal span a principal block with
  no stored entry; the values are not read.  The corrected multiplier and
  Nitsche systems have no zero on the diagonal and let SuperLU order them
  (`MMD_AT_PLUS_A`).  The zero-block `unmodified` and `taylor` saddle
  systems are factored in a precomputed order.  Its step is the same
  minimum-degree order, taken of the corrected pattern: `solve` fills in
  each facet's multiplier block, the one the corrected system's -D block
  occupies, so the step equals the corrected system's column order on the
  same dofs (a bare matrix keeps its own pattern).  The step is read from a
  drop-everything incomplete factorization of that pattern, or reused from
  a `ColumnOrder`.  Each zero-diagonal dof is then moved to just after its
  last neighbour: its neighbours' fill makes its pivot nonzero by the time
  it is eliminated, so no row is swapped.
- partial pivoting: COLAMD with SuperLU's default threshold pivoting, for a
  matrix whose zero-diagonal block holds entries, and as the fallback below.

A `ColumnOrder` carries one solve's orders to the next solve on the same
mesh and dofs (a companion method on a shared rung): the mesh pre-order,
and the column order of a successful diagonal-pivot factorization, which
the companion takes as its step without the pattern build and the
incomplete factorization.  A reused step that is not a permutation of the
rows is rejected before any factorization; a poor one is caught like any
other order, by the checks below.

Both paths enforce the near-zero-pivot check (`SingularSystem`) and the
relative residual contract ||Az - b|| <= 1e-10 ||b||, with a single
iterative-refinement step as backup; a zero b is ordered, factored and
checked like any other.  The gate does not make diagonal
pivoting stable (the -D block takes both signs, a zero block is indefinite,
`taylor` is not symmetric), so any `SolverError` on that path falls back,
with a warning, to partial pivoting, which alone decides whether a system
is singular.  A non-finite entry in A or b is rejected before any ordering.
Each solve emits one DEBUG record on the `bvcfem.solver` logger, naming its
pre-order (`order=mesh` or `order=rcm`), the source of its column step
(`step=mmd`, `step=reused` or, on partial pivoting, `step=colamd`) and its
path.

The permuted copy of A is built inside the splu call and nothing keeps it,
so while the pivot check reads the factors (lu.U copies L and U) only A
and SuperLU's factors are alive; the residual is taken on A.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import spilu, splu

from .assembly import System

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


@dataclass
class ColumnOrder:
    """The orders one solve hands to a later solve on the same mesh and dofs.

    preorder is the system's mesh pre-order.  step is the column order of
    the last successful diagonal-pivot factorization, a permutation of the
    pre-ordered positions: SuperLU's `perm_c` on the diagonal-pivot path,
    the minimum-degree step on the zero-block path.  Both are plain arrays
    (`perm_c` is copied: SuperLU's array keeps its factorization alive).
    """

    preorder: np.ndarray | None = None
    step: np.ndarray | None = None


def solve_linear(A, b, preorder=None, blocks=None, order=None) -> np.ndarray:
    """Solve A z = b by sparse LU, enforcing the residual contract.

    preorder, a permutation of A's rows, is the mesh pre-order `solve`
    reads from a system; without it (a bare matrix) the pre-order is RCM of
    A.  Both factorization paths refine it.  blocks, rows of dof indices,
    fill their principal blocks into the pattern of the zero-block path's
    minimum-degree step.  order, a ColumnOrder shared by solves on the same
    dofs and pre-order, gives its step in place of that pass and receives
    the column order of a successful diagonal-pivot factorization.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise SolverError(f"matrix is not square: {A.shape}")
    if A.shape[0] != b.shape[0]:
        raise SolverError(f"rhs length {b.shape[0]} does not match {A.shape}")
    if preorder is not None:
        _check_permutation(preorder, A.shape[0])
    step = None if order is None else order.step
    if step is not None:
        _check_permutation(step, A.shape[0], "column order")
    _check_finite(A, b)
    bnorm = float(np.linalg.norm(b))
    if preorder is None:
        perm, source = reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True), "rcm"
    else:
        perm, source = np.asarray(preorder), "mesh"
    anorm = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    zero = np.flatnonzero(A.diagonal() == 0)
    if _diagonal_pivot_gate(A, zero):
        path = ZERO_BLOCK if zero.size else DIAGONAL_PIVOT
        try:
            if zero.size:
                label = f"order={source} step={'mmd' if step is None else 'reused'}"
                if step is None:
                    step = _mmd_step(A, perm, blocks)
                columns = _zero_block_order(A, perm, zero, step)
                z, _ = _factor_and_solve(A, columns, b, bnorm, anorm, path, label)
            else:
                # Allocated before the factorization: an array that outlives
                # the factors but is allocated while they are alive lies
                # above them in the heap, and the companion's factorization
                # then fits less well into the memory they free.
                step = None if order is None else np.empty(A.shape[0], dtype=np.int32)
                label = f"order={source} step=mmd"
                z, lu = _factor_and_solve(A, perm, b, bnorm, anorm, path, label)
                if step is not None:
                    step[:] = lu.perm_c
            if order is not None:
                order.step = step
            return z
        except SolverError as exc:
            # The text only: a handler that keeps its records would keep
            # exc, and with it the frames of the whole solve, alive.
            logger.warning(
                "%s solve rejected (%s: %s); falling back to partial pivoting",
                path, type(exc).__name__, str(exc),
            )
    label = f"order={source} step=colamd"
    return _factor_and_solve(A, perm, b, bnorm, anorm, PARTIAL_PIVOT, label)[0]


def _permuted(A, perm) -> sp.csc_matrix:
    """A[perm][:, perm], a new CSC matrix."""
    return A[perm, :][:, perm].tocsc()


def _check_permutation(perm, n, what="pre-order") -> None:
    """SolverError unless perm, the named order, is a permutation of
    0..n-1, naming its wrong length, its first entry out of range or its
    first repeated index."""
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
        raise SolverError(
            f"{what} of shape {perm.shape} and dtype {perm.dtype} is not a "
            f"permutation of {n} rows"
        )
    bad = np.flatnonzero((perm < 0) | (perm >= n))
    if bad.size:
        raise SolverError(f"{what} entry {perm[bad[0]]} at position {bad[0]} is not a row")
    _, first = np.unique(perm, return_index=True)
    if first.size < n:
        again = np.ones(n, dtype=bool)
        again[first] = False
        k = int(np.flatnonzero(again)[0])
        raise SolverError(f"{what} repeats index {perm[k]} at position {k}")


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


def _diagonal_pivot_gate(A, zero) -> bool:
    """The zero-diagonal dofs `zero` of A span a principal block with no
    stored entry."""
    return not (zero.size and A[zero, :][:, zero].nnz)


def _mmd_step(A, perm, blocks=None) -> np.ndarray:
    """SuperLU's minimum-degree order of A[perm][:, perm], its pattern
    with the principal block of each row of `blocks` (dof indices) filled
    in: a permutation of the pre-ordered positions.

    SuperLU computes its `MMD_AT_PLUS_A` order only inside a factorization,
    so it is read from an incomplete factorization of the permuted pattern
    under a dominant diagonal.  That order is fixed from the pattern of
    P + P^T before the factorization starts, so the factorization is given
    the upper triangle alone, one column per panel.
    """
    n = A.shape[0]
    at = np.empty_like(perm)
    at[perm] = np.arange(n)
    rows, cols = A.indices, np.repeat(np.arange(n), np.diff(A.indptr))
    if blocks is not None:
        m = blocks.shape[1]
        rows = np.concatenate([rows, np.repeat(blocks, m, axis=1).ravel()])
        cols = np.concatenate([cols, np.tile(blocks, m).ravel()])
    rows, cols = at[rows], at[cols]
    M = sp.csc_matrix(
        (np.ones(rows.size), (np.minimum(rows, cols), np.maximum(rows, cols))), shape=A.shape
    ) + n * sp.eye(n, format="csc")
    return np.array(spilu(
        M, drop_tol=1.0, fill_factor=1.0, panel_size=1, relax=1,
        **_SPLU_OPTIONS[DIAGONAL_PIVOT],
    ).perm_c)


def _zero_block_order(A, perm, zero, step) -> np.ndarray:
    """Column order of A, refining its pre-order perm by the step (a
    permutation of the pre-ordered positions), with each zero-diagonal dof
    (`zero`) moved to just after its last neighbour, the last-eliminated
    stored row of its column."""
    at = np.empty_like(perm)
    at[perm] = np.arange(A.shape[0])
    # Sort key 2 * step, and 2 * (last neighbour's step) + 1 for a
    # zero-diagonal dof; several that follow one dof keep their mutual order.
    nbrs, zero = A[:, zero], at[zero]
    key = 2 * step
    key[zero] = -1
    np.maximum.at(key, np.repeat(zero, np.diff(nbrs.indptr)), 2 * step[at[nbrs.indices]] + 1)
    return perm[np.lexsort((step, key))]


def _factor_and_solve(A, perm, b, bnorm, anorm, path, label):
    """Factor A[perm][:, perm] along `path` and solve under the contract;
    returns z and the factorization.  `label` names the orders in the
    DEBUG record."""
    try:
        lu = splu(_permuted(A, perm), **_SPLU_OPTIONS[path])
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystem(f"factorization failed: {exc}") from exc

    udiag = np.abs(lu.U.diagonal())
    j = int(np.argmin(udiag))
    if udiag[j] < PIVOT_RTOL * anorm:
        # Column j of U is column i of A[perm][:, perm] where perm_c[i] == j.
        dof = int(perm[np.flatnonzero(lu.perm_c == j)[0]])
        raise SingularSystem(
            f"near-zero pivot {udiag[j]:.3e} (|A|max={anorm:.3e}) at dof {dof}",
            dof_index=dof,
        )

    z = np.empty_like(b)
    z[perm] = lu.solve(b[perm])
    resid = b - A @ z
    rnorm = float(np.linalg.norm(resid))
    refined = not rnorm <= RESIDUAL_RTOL * bnorm
    if refined:
        z[perm] += lu.solve(resid[perm])
        rnorm = float(np.linalg.norm(b - A @ z))
    relres = rnorm / bnorm if bnorm else np.inf if rnorm else 0.0
    if not rnorm <= RESIDUAL_RTOL * bnorm:
        raise SolverError(f"residual contract violated: relres={relres:.3e}")
    logger.debug(
        "solve %s path=%s n=%d nnz(A)=%d nnz(L+U)=%d min_pivot_ratio=%.3e "
        "relres=%.3e refined=%s",
        label, path, A.shape[0], A.nnz, lu.nnz, udiag[j] / anorm, relres, refined,
    )
    return z, lu


def _mesh_order(system) -> np.ndarray:
    """A pre-order of system.A's dofs read from the mesh.

    The vertices are ranked by RCM of the vertex graph (vertices that share
    a cell), each cell is keyed by the mean rank of its vertices, each
    retained primal dof by the smallest key among the cells whose
    V.dof_table row holds it and each multiplier dof by its facet's cell;
    a stable argsort of the keys is the order.  SuperLU's minimum degree
    breaks its ties by its input order, and this one gives it less fill
    than RCM of A on the P2, P3 and Q1 systems of the ladders from level 3
    on (level 4, P3 ring bvc: 8.81M entries of L + U against 9.55M).
    """
    V, nu = system.V, system.nu
    cells, nno = V.mesh.cells, V.mesh.nno
    nv = cells.shape[1]
    rows, cols = np.repeat(cells, nv, axis=1).ravel(), np.tile(cells, nv).ravel()
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nno, nno))
    rank = np.empty(nno)
    rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(nno)
    cell_key = rank[cells].mean(axis=1)
    key = np.full(system.A.shape[0], np.inf)
    kept = (V.dof_table >= 0) & (V.dof_table < nu)
    np.minimum.at(key, V.dof_table[kept], np.broadcast_to(cell_key[:, None], kept.shape)[kept])
    if system.Lam is not None:
        key[nu + system.Lam.facet_dofs] = cell_key[V.mesh.boundary_facets.cell, None]
    return np.argsort(key, kind="stable")


def solve(system, order=None):
    """Solve an assembled system.

    Returns (u_field, lambda_field) over every dof of the spaces;
    lambda_field is None when the system has no multiplier space (Nitsche).
    solve_linear factors the one matrix the system stores, system.A, and its
    residual contract holds on that condensed matrix; the cell-interior dofs
    are then restored from system.interior, cell by cell.  Keeping the
    uncondensed matrix alive through the factorization for a second
    residual check would cost the memory the condensation saves.

    order, a ColumnOrder shared with other solves on the same mesh and
    dofs, supplies the orders it holds and receives the ones this solve
    finds: the mesh pre-order, and the column order of a successful
    diagonal-pivot factorization.
    """
    if not isinstance(system, System):
        raise SolverError(f"cannot solve a {type(system).__name__}")
    if order is None:
        preorder = _mesh_order(system)
    else:
        if order.preorder is None:
            order.preorder = _mesh_order(system)
        preorder = order.preorder
    nu = system.nu
    blocks = None if system.Lam is None else nu + system.Lam.facet_dofs
    z = solve_linear(system.A, system.rhs, preorder, blocks, order)
    u = SolutionField(system.V, system.interior.restore(z[:nu]))
    return u, None if system.Lam is None else SolutionField(system.Lam, z[nu:])
