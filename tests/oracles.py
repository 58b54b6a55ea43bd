"""Per-cell oracles of the batched primal space, for tests only.

The library evaluates every cell at once through PrimalSpace.basis and the
-1-padded PrimalSpace.dof_table.  These helpers walk one cell at a time and
keep only the columns a cell has, or build a field from nodal values, so
that the batched kernels can be checked against them.  uncondensed_system
builds a system over every dof, before the assembler condenses the
cell-interior dofs, so that the restored solution can be checked on it.
"""

import numpy as np
import scipy.sparse as sp

from bvcfem.assembly import coupling_matrix, facet_traces, load_vector, stiffness_matrix
from bvcfem.geometry import at_points
from bvcfem.mesh import gauss_01


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
    """Physical point of every Lagrange dof (n_lagrange, 2), in dof order.

    Every cell writes its mapped reference nodes; the vertex rows are the
    mesh vertices themselves.
    """
    n_lagrange = V.dof_count - np.count_nonzero(V.dof_table[:, V.nb_std :] >= 0)
    points = np.empty((n_lagrange, 2))
    points[V.dof_table[:, : V.nb_std]] = V.mesh.to_physical(V.element.nodes[V.degree])
    points[: V.mesh.nno] = V.mesh.vertices
    return points


def interpolate(V, fn):
    """Coefficients of the Lagrange interpolant (bubble dofs set to 0)."""
    points = lagrange_points(V)
    coeffs = np.zeros(V.dof_count)
    coeffs[: len(points)] = np.asarray(fn(points), dtype=float)
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


def uncondensed_system(V, domain, method, Lam=None, gamma0=None):
    """(A, b) of a multiplier method (Lam given) or of Nitsche (gamma0 given)
    over every dof of V and Lam, unknowns ordered u then lambda.

    Built from stiffness_matrix, coupling_matrix and load_vector, with the
    facet terms of the assemble_saddle and assemble_nitsche docstrings
    written out here; nothing is condensed.
    """
    facets = V.mesh.boundary_facets
    w, rho = facets.weights, facets.rho
    wg = w * at_points(domain.u_exact, facets.pullback)
    K, f = stiffness_matrix(V), load_vector(V, domain.f_rhs)
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
        rows = np.broadcast_to(dofs[:, :, None], M.shape)
        cols = np.broadcast_to(dofs[:, None, :], M.shape)
        on = (rows >= 0) & (cols >= 0)
        A = K + sp.coo_matrix((M[on], (rows[on], cols[on])), shape=K.shape)
        np.add.at(f, dofs[dofs >= 0], data[dofs >= 0])
        return A.tocsr(), f
    psi = Lam.eval(facets.s)
    B = coupling_matrix(V, Lam, False)
    row2 = coupling_matrix(V, Lam, True) if method == "taylor" else B
    # Facet dofs are contiguous per facet, so D is block diagonal.
    D = sp.block_diag(np.einsum("fq,fq,qi,qj->fij", w, rho, psi, psi))
    g = np.zeros(Lam.dof_count)
    g[Lam.facet_dofs] = wg @ psi
    A = sp.bmat([[K, B.T], [row2, -D if method == "bvc" else None]], format="csr")
    return A, np.concatenate([f, g])
