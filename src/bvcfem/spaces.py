"""Finite element spaces and quadrature.

Continuous Lagrange P1-P3 on triangles and Q1 on axis-aligned quads, with
optional hierarchical degree-(k+1) edge bubbles on boundary facets, plus
facet-wise discontinuous Legendre multiplier spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .mesh import Mesh, TRI_EDGES, QUAD_EDGES


class UnsupportedOrder(Exception):
    pass


class UnsupportedDegree(Exception):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 1) or (nq, 2) reference coordinates
    weights: np.ndarray  # (nq,), positive, summing to the reference measure


def quadrature(kind: str, degree: int) -> QuadratureRule:
    """Gauss-type rule on the reference segment/triangle/quad, exact to degree.

    Segments and quads use (tensor) Gauss-Legendre; triangles use the conical
    product of Gauss-Jacobi (weight 1-x) and Gauss-Legendre, exact for total
    degree <= 2n-1 in each factor.
    """
    if degree > 20 or degree < 0:
        raise UnsupportedDegree(f"exactness degree {degree} not supported")
    n = max(1, (degree + 2) // 2)  # ceil((degree+1)/2)
    x, w = np.polynomial.legendre.leggauss(n)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    if kind == "segment":
        return QuadratureRule(points=x01[:, None], weights=w01)
    if kind == "quad":
        X, Y = np.meshgrid(x01, x01, indexing="ij")
        W = np.outer(w01, w01)
        return QuadratureRule(
            points=np.stack([X.ravel(), Y.ravel()], axis=-1), weights=W.ravel()
        )
    if kind == "triangle":
        xj, wj = roots_jacobi(n, 1, 0)       # weight (1 - x) on [-1, 1]
        xi = 0.5 * (xj + 1.0)
        wxi = 0.25 * wj                      # includes the (1 - xi) factor
        XI, T = np.meshgrid(xi, x01, indexing="ij")
        W = np.outer(wxi, w01)
        eta = (1.0 - XI) * T
        return QuadratureRule(
            points=np.stack([XI.ravel(), eta.ravel()], axis=-1), weights=W.ravel()
        )
    raise UnsupportedDegree(f"unknown reference cell kind {kind!r}")


# --- reference bases --------------------------------------------------------

TRI_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
QUAD_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

# Lagrange nodes in reference coordinates, in the cell_dofs ordering.
# Triangles: vertices, then (per local edge, endpoint-ordered) edge nodes,
# then the interior node for P3.


def _tri_nodes(k):
    v = TRI_REF_VERTS
    nodes = [v[0], v[1], v[2]]
    if k >= 2:
        for a, b in TRI_EDGES:
            if k == 2:
                nodes.append(0.5 * (v[a] + v[b]))
            else:
                nodes.append((2.0 * v[a] + v[b]) / 3.0)
                nodes.append((v[a] + 2.0 * v[b]) / 3.0)
    if k == 3:
        nodes.append(np.array([1.0, 1.0]) / 3.0)
    return np.array(nodes)


def _tri_basis(k, pts):
    """Values and gradients of the P^k Lagrange basis at reference points."""
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)              # (nq, 3)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # (3, 2)
    nq = len(pts)

    if k == 1:
        vals = lam
        grads = np.broadcast_to(dlam, (nq, 3, 2)).copy()
        return vals, grads

    if k == 2:
        vals = np.empty((nq, 6))
        grads = np.empty((nq, 6, 2))
        for i in range(3):
            vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
        for e, (a, b) in enumerate(TRI_EDGES):
            vals[:, 3 + e] = 4.0 * lam[:, a] * lam[:, b]
            grads[:, 3 + e, :] = 4.0 * (
                lam[:, b][:, None] * dlam[a] + lam[:, a][:, None] * dlam[b]
            )
        return vals, grads

    if k == 3:
        vals = np.empty((nq, 10))
        grads = np.empty((nq, 10, 2))
        for i in range(3):
            li = lam[:, i]
            vals[:, i] = 0.5 * li * (3.0 * li - 1.0) * (3.0 * li - 2.0)
            grads[:, i, :] = (0.5 * (27.0 * li**2 - 18.0 * li + 2.0))[:, None] * dlam[i]
        for e, (a, b) in enumerate(TRI_EDGES):
            la, lb = lam[:, a], lam[:, b]
            vals[:, 3 + 2 * e] = 4.5 * la * lb * (3.0 * la - 1.0)
            grads[:, 3 + 2 * e, :] = 4.5 * (
                (lb * (6.0 * la - 1.0))[:, None] * dlam[a]
                + (la * (3.0 * la - 1.0))[:, None] * dlam[b]
            )
            vals[:, 4 + 2 * e] = 4.5 * la * lb * (3.0 * lb - 1.0)
            grads[:, 4 + 2 * e, :] = 4.5 * (
                (lb * (3.0 * lb - 1.0))[:, None] * dlam[a]
                + (la * (6.0 * lb - 1.0))[:, None] * dlam[b]
            )
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        vals[:, 9] = 27.0 * l0 * l1 * l2
        grads[:, 9, :] = 27.0 * (
            (l1 * l2)[:, None] * dlam[0]
            + (l0 * l2)[:, None] * dlam[1]
            + (l0 * l1)[:, None] * dlam[2]
        )
        return vals, grads

    raise UnsupportedOrder(f"triangle degree {k} not supported")


def _quad_basis(pts):
    """Bilinear Q1 basis on the reference square."""
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    vals = np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y], axis=1)
    grads = np.empty((len(pts), 4, 2))
    grads[:, 0, 0] = -(1 - y)
    grads[:, 0, 1] = -(1 - x)
    grads[:, 1, 0] = 1 - y
    grads[:, 1, 1] = -x
    grads[:, 2, 0] = y
    grads[:, 2, 1] = x
    grads[:, 3, 0] = -y
    grads[:, 3, 1] = 1 - x
    return vals, grads


def _legendre(j, t):
    if j == 0:
        return np.ones_like(t), np.zeros_like(t)
    if j == 1:
        return t, np.ones_like(t)
    if j == 2:
        return 1.5 * t**2 - 0.5, 3.0 * t
    raise UnsupportedOrder(f"Legendre kernel degree {j} not needed here")


def _tri_bubble(k, local_edge, pts):
    """Hierarchical degree-(k+1) edge function lam_a lam_b L_{k-1}(lam_b - lam_a)."""
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    a, b = TRI_EDGES[local_edge]
    la, lb = lam[:, a], lam[:, b]
    L, dL = _legendre(k - 1, lb - la)
    vals = la * lb * L
    grads = (
        (lb * L)[:, None] * dlam[a]
        + (la * L)[:, None] * dlam[b]
        + (la * lb * dL)[:, None] * (dlam[b] - dlam[a])
    )
    return vals, grads


def _quad_bubble(local_edge, pts):
    """Edge bubble s(1-s)(1-t): quadratic along the edge, linear decay inward."""
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    if local_edge == 0:
        s, t = x, y
        ds, dt = (one, zero), (zero, one)
    elif local_edge == 1:
        s, t = y, 1.0 - x
        ds, dt = (zero, one), (-one, zero)
    elif local_edge == 2:
        s, t = 1.0 - x, 1.0 - y
        ds, dt = (-one, zero), (zero, -one)
    else:
        s, t = 1.0 - y, x
        ds, dt = (zero, -one), (one, zero)
    vals = s * (1.0 - s) * (1.0 - t)
    cs = (1.0 - 2.0 * s) * (1.0 - t)
    ct = -s * (1.0 - s)
    grads = np.stack(
        [cs * ds[0] + ct * dt[0], cs * ds[1] + ct * dt[1]], axis=1
    )
    return vals, grads


def legendre_01(m, s):
    """Values of P_0..P_m at 2s - 1 (orthogonal basis on a unit facet)."""
    return np.polynomial.legendre.legvander(2.0 * np.asarray(s) - 1.0, m)


# --- spaces -----------------------------------------------------------------


class PrimalSpace:
    """H1-conforming primal space V_h with optional boundary edge bubbles."""

    kind = "primal"

    def __init__(self, mesh: Mesh, degree: int, enriched: bool):
        self.mesh = mesh
        self.degree = degree
        self.enriched = enriched
        if mesh.cell_kind == "triangle":
            if degree not in (1, 2, 3):
                raise UnsupportedOrder(f"triangle degree {degree} not supported")
            self.nb_std = {1: 3, 2: 6, 3: 10}[degree]
        else:
            if degree != 1:
                raise UnsupportedOrder("quads support Q1 only")
            self.nb_std = 4
        self._build_dofs()

    def _build_dofs(self):
        mesh, k = self.mesh, self.degree
        nv = mesh.nno
        cells = mesh.cells
        nc = len(cells)
        self.cell_dofs_std = np.empty((nc, self.nb_std), dtype=np.int64)
        self.cell_dofs_std[:, : cells.shape[1]] = cells
        ndof = nv

        node_pts = [mesh.vertices.copy()]
        if mesh.cell_kind == "triangle" and k >= 2:
            table = mesh.edge_table()
            per_edge = k - 1
            edge_base = ndof
            ndof += per_edge * len(table)
            edge_nodes = np.empty((per_edge * len(table), 2))
            for c in range(nc):
                cell = cells[c]
                for e, (a, b) in enumerate(TRI_EDGES):
                    ga, gb = int(cell[a]), int(cell[b])
                    eid = table[(min(ga, gb), max(ga, gb))]
                    if k == 2:
                        dof = edge_base + eid
                        self.cell_dofs_std[c, 3 + e] = dof
                        edge_nodes[eid] = 0.5 * (mesh.vertices[ga] + mesh.vertices[gb])
                    else:
                        # Global slots ordered from the smaller vertex id, so
                        # neighboring cells agree on the two shared nodes.
                        d0, d1 = edge_base + 2 * eid, edge_base + 2 * eid + 1
                        if ga < gb:
                            self.cell_dofs_std[c, 3 + 2 * e] = d0
                            self.cell_dofs_std[c, 4 + 2 * e] = d1
                        else:
                            self.cell_dofs_std[c, 3 + 2 * e] = d1
                            self.cell_dofs_std[c, 4 + 2 * e] = d0
                        gmin, gmax = min(ga, gb), max(ga, gb)
                        edge_nodes[2 * eid] = (
                            2.0 * mesh.vertices[gmin] + mesh.vertices[gmax]
                        ) / 3.0
                        edge_nodes[2 * eid + 1] = (
                            mesh.vertices[gmin] + 2.0 * mesh.vertices[gmax]
                        ) / 3.0
            node_pts.append(edge_nodes)
        if mesh.cell_kind == "triangle" and k == 3:
            base = ndof
            self.cell_dofs_std[:, 9] = base + np.arange(nc)
            ndof += nc
            node_pts.append(mesh.vertices[cells].mean(axis=1))

        self.n_lagrange = ndof
        self.dof_points = np.concatenate(node_pts, axis=0)

        # One bubble dof per boundary facet, appended after the Lagrange dofs
        # in facet order (facet f owns dof n_lagrange + f).  cell_bubbles maps
        # a cell to its [local_edge, dof] pairs: one run of the cell-major facets.
        self.cell_bubbles = {}
        if self.enriched:
            facets = mesh.boundary_facets
            pairs = np.stack([facets.local_edge, ndof + np.arange(len(facets))], axis=1)
            cells, first = np.unique(facets.cell, return_index=True)
            runs = np.split(pairs, first[1:])
            self.cell_bubbles = dict(zip(cells.tolist(), (run.tolist() for run in runs)))
            ndof += len(facets)
        self.dof_count = ndof

    def tabulate(self, pts):
        """Standard (Lagrange) basis values and gradients at reference points."""
        if self.mesh.cell_kind == "triangle":
            return _tri_basis(self.degree, pts)
        return _quad_basis(pts)

    def bubble_eval(self, local_edge, pts):
        if self.mesh.cell_kind == "triangle":
            return _tri_bubble(self.degree, local_edge, pts)
        return _quad_bubble(local_edge, pts)

    def cell_dofs(self, c):
        """Global dofs of cell c: Lagrange dofs then this cell's bubbles."""
        std = self.cell_dofs_std[c]
        extra = self.cell_bubbles.get(c)
        if not extra:
            return std
        return np.concatenate([std, [dof for _, dof in extra]])

    def cell_basis(self, c, pts):
        """Values/gradients of every basis function of cell c (bubbles last)."""
        vals, grads = self.tabulate(pts)
        extra = self.cell_bubbles.get(c)
        if not extra:
            return vals, grads
        bv = [vals]
        bg = [grads]
        for local_edge, _ in extra:
            v, g = self.bubble_eval(local_edge, pts)
            bv.append(v[:, None])
            bg.append(g[:, None, :])
        return np.concatenate(bv, axis=1), np.concatenate(bg, axis=1)

    def interpolate(self, fn):
        """Coefficients of the Lagrange interpolant (bubble dofs set to 0)."""
        coeffs = np.zeros(self.dof_count)
        coeffs[: self.n_lagrange] = np.asarray(fn(self.dof_points), dtype=float)
        return coeffs


class MultiplierSpace:
    """Facet-wise discontinuous multipliers, Legendre-orthogonal per facet."""

    kind = "multiplier"

    def __init__(self, mesh: Mesh, degree: int):
        if degree < 0:
            raise UnsupportedOrder(f"multiplier degree {degree} must be >= 0")
        self.mesh = mesh
        self.degree = degree
        nf = len(mesh.boundary_facets)
        self.facet_dofs = np.arange(nf * (degree + 1), dtype=np.int64).reshape(
            nf, degree + 1
        )
        self.dof_count = nf * (degree + 1)

    def eval(self, s):
        """Basis values P_0..P_m at facet parameters s in [0, 1]: (nq, m+1)."""
        return legendre_01(self.degree, s)

    def facet_mass_diagonal(self):
        """Diagonal facet mass entries length/(2j+1), shape (nf, m+1)."""
        scale = 1.0 / (2.0 * np.arange(self.degree + 1) + 1.0)
        return self.mesh.boundary_facets.length[:, None] * scale[None, :]

    def mass_matrix_diagonal(self):
        return self.facet_mass_diagonal().ravel()


def build_primal_space(mesh: Mesh, k: int, enrich: bool = True) -> PrimalSpace:
    """Continuous P^k (triangles) or Q1 (quads), plus boundary bubbles if enrich."""
    return PrimalSpace(mesh, k, enrich)


def build_multiplier_space(mesh: Mesh, m: int) -> MultiplierSpace:
    """Discontinuous degree-m multipliers, m+1 Legendre dofs per boundary facet."""
    return MultiplierSpace(mesh, m)


def project_to_multiplier(space: MultiplierSpace, trace) -> np.ndarray:
    """Facet-wise L2 projection of a boundary trace onto the multiplier space.

    trace(s, x, n_h) must return values (nf, nq) at the facet parameters s
    (nq,) in [0, 1], given the physical points x (nf, nq, 2) and the facet
    normals n_h (nf, 2).
    """
    m = space.degree
    nq = max(2 * m + 2, 10)  # generous so smooth traces project to roundoff
    s, w = np.polynomial.legendre.leggauss(nq)
    s = 0.5 * (s + 1.0)
    w = 0.5 * w
    psi = space.eval(s)  # (nq, m+1)
    scale = 2.0 * np.arange(m + 1) + 1.0
    facets = space.mesh.boundary_facets
    x = facets.points_at(space.mesh.vertices, s)
    t = np.broadcast_to(np.asarray(trace(s, x, facets.n_h), dtype=float), x.shape[:2])
    coeffs = np.empty(space.dof_count)
    coeffs[space.facet_dofs] = scale * ((w * t) @ psi)
    return coeffs
