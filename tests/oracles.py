"""Per-cell oracles of the batched primal space, for tests only.

The library evaluates every cell at once through PrimalSpace.basis and the
-1-padded PrimalSpace.dof_table.  These helpers walk one cell at a time and
keep only the columns a cell has, or build a field from nodal values, so
that the batched kernels can be checked against them.
"""

import numpy as np

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
