"""Finite element spaces and quadrature.

Continuous Lagrange P1-P3 on triangles and Q1 on axis-aligned quads, with
optional hierarchical degree-(k+1) edge bubbles on boundary facets, plus
facet-wise discontinuous Legendre multiplier spaces.  ELEMENTS, keyed by
Mesh.cell_kind and built on mesh.REFERENCE_CELLS, is the one table of what
differs between cell kinds: Lagrange nodes per supported degree, affine
coordinates, edge bubble and volume quadrature.  One product formula builds
every kind's Lagrange basis from its nodes and coordinates, so a new degree
is a nodes entry (with more than one interior node per cell, as P4, also a
block inverse in assembly.condense).  The dof layout is the same for every
kind.
Every cell has the same local functions, PrimalSpace.basis: the Lagrange
functions, then, in an enriched space, one bubble per local edge (an
unenriched space has no bubble columns).  PrimalSpace.dof_table holds their
global dofs, -1 on an edge without a bubble.  A -1 column keeps its reference
values; every consumer drops it (_scatter for matrices, dofs >= 0 for
vectors, an appended zero coefficient for fields).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import factorial
from operator import add, mul
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import legder, legval
from scipy.special import roots_jacobi

from .mesh import REFERENCE_CELLS, Mesh, gauss_01


class UnsupportedOrder(Exception):
    pass


class UnsupportedDegree(Exception):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 2) reference coordinates
    weights: np.ndarray  # (nq,), positive, summing to the reference measure


def quadrature(kind: str, degree: int) -> QuadratureRule:
    """Gauss-type rule on the reference cell of kind, exact to degree.

    Quads use tensor Gauss-Legendre; triangles use the conical product of
    Gauss-Jacobi (weight 1-x) and Gauss-Legendre, exact for total degree
    <= 2n-1 in each factor.  Facet rules are gauss_01.
    """
    if kind not in ELEMENTS:
        raise ValueError(f"unknown cell kind {kind!r}; have {tuple(ELEMENTS)}")
    if degree > 20 or degree < 0:
        raise UnsupportedDegree(f"exactness degree {degree} not supported")
    return ELEMENTS[kind].rule(max(1, (degree + 2) // 2))  # n = ceil((degree+1)/2)


def _quad_rule(n):
    x01, w01 = gauss_01(n)
    X, Y = np.meshgrid(x01, x01, indexing="ij")
    W = np.outer(w01, w01)
    return QuadratureRule(points=np.stack([X.ravel(), Y.ravel()], axis=-1), weights=W.ravel())


def _tri_rule(n):
    x01, w01 = gauss_01(n)
    xj, wj = roots_jacobi(n, 1, 0)       # weight (1 - x) on [-1, 1]
    xi = 0.5 * (xj + 1.0)
    wxi = 0.25 * wj                      # includes the (1 - xi) factor
    XI, T = np.meshgrid(xi, x01, indexing="ij")
    W = np.outer(wxi, w01)
    eta = (1.0 - XI) * T
    return QuadratureRule(points=np.stack([XI.ravel(), eta.ravel()], axis=-1), weights=W.ravel())


# --- reference bases --------------------------------------------------------


def _lagrange_nodes(kind, k, interior=()):
    """Nodes in dof_table order: vertices, k - 1 per edge from its first vertex, interior."""
    verts, edges = REFERENCE_CELLS[kind]
    along = [((k - j) * verts[a] + j * verts[b]) / k for a, b in edges for j in range(1, k)]
    return np.array([*verts, *along, *interior])


# Barycentric gradients, and the first and second vertex of each local edge.
_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_TRI_A, _TRI_B = np.array(REFERENCE_CELLS["triangle"][1]).T


def _tri_coords(pts):
    """Barycentric coordinates (..., 3) and their constant gradients (3, 2)."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([1.0 - x - y, x, y], axis=-1), _DLAM


_DQUAD = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def _quad_coords(pts):
    """Coordinates (1 - x, x, 1 - y, y) (..., 4) and their constant gradients (4, 2)."""
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([1.0 - x, x, 1.0 - y, y], axis=-1), _DQUAD


def _silvester(k, m):
    """Monomial coefficients of F_m(t) = prod_{j<m} (k t - j) / (j + 1) and of F_m'.

    Integer numerators over m!, each rounded once, so that Horner evaluation
    reproduces the closed forms (P2: F_2 = 2t^2 - t, F_2' = 4t - 1) to the bit.
    """
    num = [1]
    for j in range(m):
        num = [k * a - j * b for a, b in zip([0, *num], [*num, 0])]
    dnum = [i * a for i, a in enumerate(num)][1:] or [0]
    return [a / factorial(m) for a in num], [a / factorial(m) for a in dnum]


def _tri_bubble(k, pts):
    """Hierarchical degree-(k+1) edge functions lam_a lam_b L_{k-1}(lam_b - lam_a).

    One column per local edge a -> b, as (..., 3) values and (..., 3, 2) gradients.
    """
    lam, _ = _tri_coords(np.atleast_2d(pts))
    a, b = _TRI_A, _TRI_B
    la, lb = lam[..., a], lam[..., b]
    series = np.eye(k)[k - 1]  # P_{k-1} as a Legendre series
    L, dL = legval(lb - la, series), legval(lb - la, legder(series))
    vals = la * lb * L
    grads = (
        (lb * L)[..., None] * _DLAM[a]
        + (la * L)[..., None] * _DLAM[b]
        + (la * lb * dL)[..., None] * (_DLAM[b] - _DLAM[a])
    )
    return vals, grads


def _quad_bubble(k, pts):
    """Edge bubbles s(1-s)(1-t), one column per local edge a -> b (k is 1).

    s runs along the edge from a, ds = v[b] - v[a]; t decays inward along
    dt, ds turned +90 degrees.  Adding 0.0 turns -0.0 into 0.0.
    """
    verts, edges = REFERENCE_CELLS["quad"]
    a, b = np.array(edges).T
    ds = verts[b] - verts[a]
    dt = np.stack([-ds[:, 1], ds[:, 0]], axis=1) + 0.0
    rel = np.atleast_2d(pts)[..., None, :] - verts[a]  # (..., 4, 2)
    s = np.sum(rel * ds, axis=-1) + 0.0
    t = np.sum(rel * dt, axis=-1) + 0.0
    vals = s * (1.0 - s) * (1.0 - t)
    cs = (1.0 - 2.0 * s) * (1.0 - t)
    ct = -s * (1.0 - s)
    return vals, cs[..., None] * ds + ct[..., None] * dt


@dataclass(frozen=True)
class Element:
    """A cell kind's finite element; basis and bubble give values and reference gradients."""

    nodes: dict       # supported degree k -> Lagrange nodes (nb, 2), dof_table order
    coords: Callable  # pts -> affine coordinates (..., m), their gradients (m, 2)
    bubble: Callable  # (k, pts), one column per local edge
    rule: Callable    # n -> QuadratureRule with n points per direction

    def basis(self, k, pts):
        """Values (n, nb) and reference gradients (n, nb, 2) of the degree-k Lagrange basis.

        Silvester's product formula over the affine coordinates c: the node
        at c(node) has the multi-index alpha = k c(node) and the function
        prod_i F_{alpha_i}(c_i), whose gradient is
        sum_i F'_{alpha_i}(c_i) prod_{j != i} F_{alpha_j}(c_j) grad c_i.  The
        node table alone decides the functions and their column order.
        """
        c, dc = self.coords(np.atleast_2d(pts))
        F = [_silvester(k, m) for m in range(k + 1)]
        # F_m(c_i) and F_m'(c_i), indexed [m][i].
        Fc, dFc = ([[P.polyval(t, f[d]) for t in c.T] for f in F] for d in (0, 1))
        vals, grads = [], []
        for alpha in np.rint(k * self.coords(self.nodes[k])[0]).astype(int):
            f = [Fc[m][i] for i, m in enumerate(alpha)]
            vals.append(reduce(mul, f))
            terms = [(dFc[m][i] * reduce(mul, f[:i] + f[i + 1 :]))[:, None] * dc[i]
                     for i, m in enumerate(alpha) if m > 0]  # F_0' = 0
            grads.append(reduce(add, terms))
        return np.stack(vals, axis=1), np.stack(grads, axis=1)


ELEMENTS = {
    "triangle": Element(
        {
            1: _lagrange_nodes("triangle", 1),
            2: _lagrange_nodes("triangle", 2),
            3: _lagrange_nodes("triangle", 3, interior=[(1 / 3, 1 / 3)]),
        },
        _tri_coords, _tri_bubble, _tri_rule,
    ),
    "quad": Element({1: _lagrange_nodes("quad", 1)}, _quad_coords, _quad_bubble, _quad_rule),
}


# --- spaces -----------------------------------------------------------------


class PrimalSpace:
    """H1-conforming primal space V_h with optional boundary edge bubbles.

    dof_table (cells, nl), built once and read-only, holds the global dof of
    each basis column: the Lagrange dofs (the first nb_std columns), then, if
    enriched, one bubble per local edge, -1 on an edge that is no boundary
    facet.  Bubble dofs follow the Lagrange dofs in boundary-facet order.
    interior_dofs is the contiguous range of the Lagrange dofs inside the
    cells (numbered cell by cell, empty below P3), which the assembler
    condenses out.
    """

    def __init__(self, mesh: Mesh, degree: int, enriched: bool):
        self.mesh = mesh
        self.degree = degree
        self.enriched = enriched
        self.element = ELEMENTS[mesh.cell_kind]
        if degree not in self.element.nodes:
            have = ", ".join(map(str, self.element.nodes))
            raise UnsupportedOrder(f"{mesh.cell_kind} degree {degree} not supported; have {have}")
        self.nb_std = len(self.element.nodes[degree])
        self._build_dofs()

    def _build_dofs(self):
        mesh, k = self.mesh, self.degree
        cells = mesh.cells
        nc, nv = cells.shape
        edges = np.array(REFERENCE_CELLS[mesh.cell_kind][1])
        n_bubbles = len(edges) if self.enriched else 0
        self.dof_table = np.full((nc, self.nb_std + n_bubbles), -1, dtype=np.int64)
        lagrange, bubbles = self.dof_table[:, : self.nb_std], self.dof_table[:, self.nb_std :]
        lagrange[:, :nv] = cells
        ndof = mesh.nno

        # k - 1 nodes per local edge, global slots ordered from the smaller
        # vertex id, so neighboring cells agree on the shared nodes.
        ga, gb = cells[:, edges[:, 0]], cells[:, edges[:, 1]]
        r = np.arange(k - 1)
        slot = np.where((ga > gb)[:, :, None], k - 2 - r, r)
        n_edge = len(edges) * (k - 1)
        lagrange[:, nv : nv + n_edge] = (
            ndof + (k - 1) * mesh.cell_edges[:, :, None] + slot
        ).reshape(nc, n_edge)
        ndof += (k - 1) * mesh.num_edges
        # The remaining nodes are interior: numbered cell by cell.
        n_inner = self.nb_std - nv - n_edge
        self.interior_dofs = range(ndof, ndof + nc * n_inner)
        lagrange[:, nv + n_edge :] = ndof + np.arange(nc * n_inner).reshape(nc, n_inner)
        ndof += nc * n_inner

        # One bubble dof per boundary facet, appended after the Lagrange dofs
        # in facet order, at the facet's (cell, local edge); every other edge
        # keeps -1.
        facets = mesh.boundary_facets
        nf = len(facets) if self.enriched else 0
        bubbles[facets.cell[:nf], facets.local_edge[:nf]] = ndof + np.arange(nf)
        self.dof_count = ndof + nf
        self.dof_table.flags.writeable = False

    def basis(self, pts):
        """Every local function at reference points pts (..., 2).

        Returns values (..., nl) and reference gradients (..., nl, 2): the
        Lagrange functions, then, if the space is enriched, one edge bubble
        per local edge of REFERENCE_CELLS; the columns of dof_table.
        """
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        vals, grads = self.element.basis(self.degree, flat)
        if self.enriched:
            bv, bg = self.element.bubble(self.degree, flat)
            vals, grads = np.concatenate([vals, bv], axis=1), np.concatenate([grads, bg], axis=1)
        return vals.reshape(pts.shape[:-1] + (-1,)), grads.reshape(pts.shape[:-1] + (-1, 2))


class MultiplierSpace:
    """Facet-wise discontinuous multipliers, Legendre-orthogonal per facet."""

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
        """Legendre P_0..P_m at 2s - 1, for facet parameters s in [0, 1]: (nq, m+1)."""
        return np.polynomial.legendre.legvander(2.0 * np.asarray(s) - 1.0, self.degree)

    def mass_matrix_diagonal(self):
        """Diagonal facet mass entries length/(2j+1), in dof order."""
        scale = 1.0 / (2.0 * np.arange(self.degree + 1) + 1.0)
        return (self.mesh.boundary_facets.length[:, None] * scale[None, :]).ravel()


def build_primal_space(mesh: Mesh, k: int, enrich: bool = True) -> PrimalSpace:
    """Continuous P^k (triangles) or Q1 (quads), plus boundary bubbles if enrich."""
    return PrimalSpace(mesh, k, enrich)


def build_multiplier_space(mesh: Mesh, m: int) -> MultiplierSpace:
    """Discontinuous degree-m multipliers, m+1 Legendre dofs per boundary facet."""
    return MultiplierSpace(mesh, m)

