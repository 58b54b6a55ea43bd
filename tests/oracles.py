"""Per-cell oracles of the batched primal space, for tests only.

The library evaluates every cell at once through PrimalSpace.basis and the
-1-padded PrimalSpace.dof_table.  These helpers walk one cell at a time and
keep only the columns a cell has, or build a field from nodal values, so
that the batched kernels can be checked against them.  uncondensed_system
builds a system over every dof, before the assembler condenses the
cell-interior dofs, so that the restored solution can be checked on it;
assembled_stiffness sums the per-cell stiffness blocks into one matrix
without the assembler's scatter, and taylor_coupling sums the Taylor row.
zero_block_order builds the solver's zero-block order from a permuted copy
of the whole matrix, with the multiplier blocks filled in one by one.
whole_mesh_l2_h1_errors evaluates l2_h1_errors' two
sums as one np.sum each over whole-mesh (cells, nq) tables, on the rule of
a given degree, so that the blocked sums can be checked against it;
elevated_l2_h1_errors is that oracle on the rule two degrees above the
library's, for the quadrature-saturation checks.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu

from bvcfem.analysis import _field_blocks
from bvcfem.assembly import (
    _coupling_blocks,
    _scatter,
    coupling_matrix,
    facet_traces,
    load_vector,
    stiffness_matrix,
)
from bvcfem.geometry import at_points
from bvcfem.mesh import gauss_01
from bvcfem.spaces import quadrature


def cell_dofs(V, c):
    """Global dofs of cell c: Lagrange dofs then its bubbles by local edge."""
    dofs = V.dof_table[c]
    return dofs[dofs >= 0]


def cell_basis(V, c, pts):
    """Values/gradients of every basis function of cell c (bubbles last)."""
    vals, grads = V.basis(np.atleast_2d(pts))
    on = V.dof_table[c] >= 0
    return vals[:, on], grads[:, on]


def lagrange_points(V):
    """Physical point of every dof of V (dof_count, 2), NaN at a bubble dof.

    Every cell writes its mapped reference nodes through V.dof_table; the
    vertex rows are the mesh vertices themselves.
    """
    points = np.full((V.dof_count, 2), np.nan)
    points[V.dof_table[:, : V.nb_std]] = V.mesh.to_physical(V.element.nodes[V.degree])
    points[: V.mesh.nno] = V.mesh.vertices
    return points


def interpolate(V, fn):
    """Coefficients of the Lagrange interpolant (bubble dofs set to 0)."""
    points = lagrange_points(V)
    lagrange = ~np.isnan(points[:, 0])
    coeffs = np.zeros(V.dof_count)
    coeffs[lagrange] = np.asarray(fn(points[lagrange]), dtype=float)
    return coeffs


def project_to_multiplier(space, trace):
    """Facet-wise L2 projection of a boundary trace onto the multiplier space.

    trace(s, x, n_h) must return values (nf, nq) at the facet parameters s
    (nq,) in [0, 1], given the physical points x (nf, nq, 2) and the facet
    normals n_h (nf, 2).
    """
    m = space.degree
    nq = max(2 * m + 2, 10)  # generous so smooth traces project to roundoff
    s, w = gauss_01(nq)
    psi = space.eval(s)  # (nq, m+1)
    scale = 2.0 * np.arange(m + 1) + 1.0
    facets = space.mesh.boundary_facets
    x = space.mesh.facet_points(s)
    t = np.broadcast_to(np.asarray(trace(s, x, facets.n_h), dtype=float), x.shape[:2])
    coeffs = np.empty(space.dof_count)
    coeffs[space.facet_dofs] = scale * ((w * t) @ psi)
    return coeffs


def _summed(shape, blocks, rows, cols):
    """Sparse CSR sum of blocks (n, a, b) at rows (n, a), cols (n, b); entries
    in a -1 row or column are left out."""
    rows = np.broadcast_to(rows[:, :, None], blocks.shape)
    cols = np.broadcast_to(cols[:, None, :], blocks.shape)
    on = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((blocks[on], (rows[on], cols[on])), shape=shape).tocsr()


def assembled_stiffness(V):
    """The stiffness matrix over every dof of V: the stiffness_matrix blocks
    summed at V.dof_table."""
    n, dofs = V.dof_count, V.dof_table
    return _summed((n, n), stiffness_matrix(V), dofs, dofs)


def taylor_coupling(V, Lam):
    """Taylor's second row over every dof of V: the coupling blocks of the
    corrected trace (phi_j + rho_h dn phi_j, psi_i) summed as coupling_matrix
    sums B's."""
    dofs, blocks = _coupling_blocks(V, Lam, True)
    return _scatter((Lam.dof_count, V.dof_count), blocks, Lam.facet_dofs, dofs)


def whole_mesh_l2_h1_errors(u_field, domain, degree):
    """||u - u_h|| and |u - u_h|_H1 on the rule of the given degree, each sum
    one np.sum over (cells, nq) tables of the whole mesh."""
    V = u_field.space
    rule = quadrature(V.mesh.cell_kind, degree)
    X = V.mesh.to_physical(rule.points)
    ue, ge = at_points(domain.u_exact, X), at_points(domain.grad_u_exact, X)
    blocks = list(_field_blocks(u_field, rule.points))
    uh = np.concatenate([b[1] for b in blocks])
    guh = np.concatenate([b[2] for b in blocks])
    wd = rule.weights[None, :] * V.mesh.detJ[:, None]
    err_l2 = np.sqrt(np.sum(wd * (uh - ue) ** 2))
    err_h1 = np.sqrt(np.sum(wd[:, :, None] * (guh - ge) ** 2))
    return float(err_l2), float(err_h1)


def elevated_l2_h1_errors(u_field, domain):
    """The whole-mesh sums on the rule of degree 2k + 6, two above the
    library's 2k + 4."""
    return whole_mesh_l2_h1_errors(u_field, domain, 2 * u_field.space.degree + 6)


def uncondensed_system(V, domain, method, Lam=None, gamma0=None):
    """(A, b) of a multiplier method (Lam given) or of Nitsche (gamma0 given)
    over every dof of V and Lam, unknowns ordered u then lambda.

    Built from assembled_stiffness, coupling_matrix, taylor_coupling and
    load_vector, with the facet terms of the assemble_saddle and
    assemble_nitsche docstrings written out here; nothing is condensed.
    """
    facets = V.mesh.boundary_facets
    w, rho = facets.weights, facets.rho
    wg = w * at_points(domain.u_exact, facets.pullback)
    K, f = assembled_stiffness(V), load_vector(V, domain.f_rhs)
    if method == "nitsche":
        gamma = gamma0 / V.mesh.h
        dofs, vals, dn = facet_traces(V)
        corr = vals + rho[:, :, None] * dn
        M = (
            -np.einsum("fq,fqj,fqi->fij", w, dn, corr)
            - np.einsum("fq,fqj,fqi->fij", w, corr, dn)
            + np.einsum("fq,fq,fqj,fqi->fij", w, rho, dn, dn)
            + gamma * np.einsum("fq,fqj,fqi->fij", w, corr, corr)
        )
        data = -np.einsum("fqi,fq->fi", dn, wg) + gamma * np.einsum("fqi,fq->fi", corr, wg)
        A = K + _summed(K.shape, M, dofs, dofs)
        np.add.at(f, dofs[dofs >= 0], data[dofs >= 0])
        return A.tocsr(), f
    psi = Lam.eval(facets.s)
    B = coupling_matrix(V, Lam)
    row2 = taylor_coupling(V, Lam) if method == "taylor" else B
    # Facet dofs are contiguous per facet, so D is block diagonal.
    D = sp.block_diag(np.einsum("fq,fq,qi,qj->fij", w, rho, psi, psi))
    g = np.zeros(Lam.dof_count)
    g[Lam.facet_dofs] = wg @ psi
    A = sp.bmat([[K, B.T], [row2, -D if method == "bvc" else None]], format="csr")
    return A, np.concatenate([f, g])


def zero_block_order(A, perm, blocks=None):
    """The zero-block solver's column order of A under the pre-order perm,
    from the permuted copy Ap = A[perm][:, perm]: SuperLU's MMD_AT_PLUS_A
    order, read from a drop-everything incomplete factorization of the full
    pattern P + P^T, with the principal block of each row of `blocks` (dof
    indices of A) set, under a dominant diagonal, with each zero-diagonal
    dof moved to just after its last neighbour."""
    Ap = A[perm, :][:, perm].tocsc()
    n, zero = Ap.shape[0], np.flatnonzero(Ap.diagonal() == 0)
    P = sp.csc_matrix((np.ones(Ap.nnz), Ap.indices, Ap.indptr), shape=Ap.shape)
    if blocks is not None:
        F = sp.lil_matrix(A.shape)
        for row in blocks:
            F[np.ix_(row, row)] = 1.0
        P = P + F.tocsc()[perm, :][:, perm]
    M = (P + P.T + n * sp.eye(n)).tocsc()
    step = spilu(
        M, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
    ).perm_c
    cols = Ap[:, zero]
    key = 2 * step
    key[zero] = -1
    np.maximum.at(key, np.repeat(zero, np.diff(cols.indptr)), 2 * step[cols.indices] + 1)
    return perm[np.lexsort((step, key))]
