"""Finite element spaces and quadrature.

Continuous Lagrange P1-P3 on triangles and Q1 on axis-aligned quads, with
optional hierarchical degree-(k+1) edge bubbles on boundary facets, plus
facet-wise discontinuous Legendre multiplier spaces.  ELEMENTS, keyed by
Mesh.cell_kind, is the one table of what differs between cell kinds, each
entry data plus its volume quadrature: its mesh.REFERENCE_CELLS entry, its
Lagrange nodes per supported degree and a table of affine coordinates.  One
product formula builds every kind's Lagrange functions (Silvester's, from
the nodes) and edge bubbles (from the coordinates' vertex values), so a new
degree is a nodes entry (with more than one interior node per cell, as P4,
also a block inverse in assembly.condense) and a new kind one entry.  The
dof layout is the same for every kind.
Every cell has the same local functions, PrimalSpace.basis: the Lagrange
functions, then, in an enriched space, one bubble per local edge (an
unenriched space has no bubble columns).  PrimalSpace.dof_table holds their
global dofs, -1 on an edge without a bubble; the cell-interior dofs (P3)
are numbered last, after the bubbles.  A -1 column keeps its reference
values; every consumer drops it (_scatter for matrices, dofs >= 0 for
vectors, an appended zero coefficient for fields).
The volume rules are Gauss-Legendre products (gauss_01) and, on triangles,
conical products with a Gauss-Jacobi factor read from a table, so this
module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import factorial
from operator import add, mul
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import legder, legval

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
    <= 2n-1 in each factor.  Facet rules are gauss_01.  The Gauss-Jacobi
    factor is read from a table of n = 1-11 points, the counts degrees
    0-20 need.  Each rule is built once per (kind, n) and shared, so its
    arrays are read-only.
    """
    if kind not in ELEMENTS:
        raise ValueError(f"unknown cell kind {kind!r}; have {tuple(ELEMENTS)}")
    if degree > 20 or degree < 0:
        raise UnsupportedDegree(f"exactness degree {degree} not supported")
    return ELEMENTS[kind].rule(max(1, (degree + 2) // 2))  # n = ceil((degree+1)/2)


def _shared_rule(points, weights) -> QuadratureRule:
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)


@cache
def _quad_rule(n):
    x01, w01 = gauss_01(n)
    X, Y = np.meshgrid(x01, x01, indexing="ij")
    W = np.outer(w01, w01)
    return _shared_rule(np.stack([X.ravel(), Y.ravel()], axis=-1), W.ravel())


# Gauss-Jacobi rules for the weight 1 - x on [-1, 1], nodes then weights, for
# every point count quadrature asks for (n = 1-11): each value is the repr of
# scipy.special.roots_jacobi(n, 1, 0), the Golub-Welsch rule, so the triangle
# rules are bit for bit those of that function and no run loads scipy.special.
_GAUSS_JACOBI = {
    1: ((-0.3333333333333333,), (2.0,)),
    2: (
        (-0.6898979485566357, 0.2898979485566358),
        (1.2721655269759087, 0.7278344730240913),
    ),
    3: (
        (-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167),
    ),
    4: (
        (-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234),
    ),
    5: (
        (-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
         0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
         0.0629916580867692),
    ),
    6: (
        (-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
         0.538467724060109, 0.8538913426394822),
        (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
         0.17582066220203585, 0.034953207254438116),
    ),
    7: (
        (-0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
         0.2947505657736607, 0.6395186165262152, 0.8874748789261557),
        (0.22386945369396347, 0.4420370327634976, 0.5095635891983541, 0.42850026278349523,
         0.2655387858619663, 0.10963342688749395, 0.020857448811229563),
    ),
    8: (
        (-0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
         0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603),
        (0.17820321744622417, 0.3644760945454951, 0.4500231978835482, 0.42418943774372003,
         0.31679839796927683, 0.18175727801879568, 0.0713716106239449, 0.013180765768995064),
    ),
    9: (
        (-0.9711751807022471, -0.8512252205816078, -0.6477666876740094, -0.3806648401447244,
         -0.07605919783797811, 0.23623446939058804, 0.5256460303700793, 0.7638420424200026,
         0.9274843742335811),
        (0.14511201409311436, 0.30429702043723433, 0.3941349686893839, 0.40123523677347395,
         0.33743328737968203, 0.23360478118066105, 0.1272192859642162, 0.04824001713914158,
         0.008723388343092527),
    ),
    10: (
        (-0.9761647731351688, -0.8765358562457037, -0.7057771007138595, -0.4776806479830877,
         -0.21072030622842625, 0.0734775314313213, 0.3518889233533302, 0.6019578420737977,
         0.8034219755802935, 0.939941935677027),
        (0.12039803209614727, 0.257148618036331, 0.3448452011567048, 0.37078757471089296,
         0.33822843876330927, 0.26421230225340164, 0.1736076256286026, 0.09109836581305221,
         0.033677279131932865, 0.005996562409625539),
    ),
    11: (
        (-0.9799634390766392, -0.8959290977456389, -0.7507615497111139, -0.5543187859123242,
         -0.3199836841706695, -0.06372477382083189, 0.1969945595342783, 0.4444065697819358,
         0.6616497992456372, 0.8339167731051897, 0.9494527592049593),
        (0.10146936275256571, 0.21975236453148633, 0.3024801922287482, 0.3386376915360707,
         0.32751641195225384, 0.2781275006327321, 0.20636544268919016, 0.13056618685533333,
         0.06665449380672281, 0.024175683841919142, 0.0042546691729781405),
    ),
}


@cache
def _tri_rule(n):
    x01, w01 = gauss_01(n)
    xj, wj = map(np.array, _GAUSS_JACOBI[n])
    xi = 0.5 * (xj + 1.0)
    wxi = 0.25 * wj                      # includes the (1 - xi) factor
    XI, T = np.meshgrid(xi, x01, indexing="ij")
    W = np.outer(wxi, w01)
    eta = (1.0 - XI) * T
    return _shared_rule(np.stack([XI.ravel(), eta.ravel()], axis=-1), W.ravel())


# --- reference bases --------------------------------------------------------


def _lagrange_nodes(kind, k, interior=()):
    """Nodes in dof_table order: vertices, k - 1 per edge from its first vertex, interior."""
    verts, edges = REFERENCE_CELLS[kind]
    along = [((k - j) * verts[a] + j * verts[b]) / k for a, b in edges for j in range(1, k)]
    return np.array([*verts, *along, *interior])


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


def _product(factors):
    """Values prod_i f_i (n,) and gradients sum_i f_i' prod_{j != i} f_j d_i (n, 2).

    factors is a list of (f_i, f_i', d_i): values and derivatives (n,) of a
    function of an affine argument, and that argument's gradient d_i (2,).
    Products and the sum run in factor order.
    """
    f = [fi for fi, _, _ in factors]
    terms = [(df * reduce(mul, f[:i] + f[i + 1 :], 1.0))[:, None] * d
             for i, (_, df, d) in enumerate(factors)]
    return reduce(mul, f), reduce(add, terms)


@dataclass(frozen=True)
class Element:
    """A cell kind's finite element as data; basis and bubble give values and
    reference gradients."""

    cell: tuple         # REFERENCE_CELLS entry: vertices (nv, 2), local edges
    nodes: dict         # supported degree k -> Lagrange nodes (nb, 2), dof_table order
    affine: np.ndarray  # (m, 3): coordinate i is (a_i0 + a_i1 x) + a_i2 y
    rule: Callable      # n -> QuadratureRule with n points per direction

    def coords(self, pts):
        """Affine coordinates (..., m) at pts (..., 2) and their gradients (m, 2)."""
        c0, cx, cy = self.affine.T
        return (c0 + cx * pts[..., 0, None]) + cy * pts[..., 1, None], self.affine[:, 1:]

    def basis(self, k, pts):
        """Values (n, nb) and reference gradients (n, nb, 2) of the degree-k Lagrange basis.

        Silvester's product formula over the affine coordinates c: the node
        at c(node) has the multi-index alpha = k c(node) and the function
        prod_i F_{alpha_i}(c_i), with F_0 = 1 left out.  The node table
        alone decides the functions and their column order.
        """
        c, dc = self.coords(np.atleast_2d(pts))
        F = [_silvester(k, m) for m in range(k + 1)]
        # F_m(c_i) and F_m'(c_i), indexed [m][i].
        Fc, dFc = ([[P.polyval(t, f[d]) for t in c.T] for f in F] for d in (0, 1))
        vals, grads = zip(*(
            _product([(Fc[m][i], dFc[m][i], dc[i]) for i, m in enumerate(alpha) if m > 0])
            for alpha in np.rint(k * self.coords(self.nodes[k])[0]).astype(int)
        ))
        return np.stack(vals, axis=1), np.stack(grads, axis=1)

    def bubble(self, k, pts):
        """Hierarchical degree-(k+1) edge bubbles, values (n, ne) and gradients (n, ne, 2).

        For local edge a -> b: the product of the coordinates not zero at
        both a and b, times L_{k-1}(c_b - c_a), where c_a is the coordinate
        that is 1 at a and 0 at b.  On the triangle that is
        lam_a lam_b L_{k-1}(lam_b - lam_a); on the quad, the edge's two
        coordinates times the one that is 1 along the edge.
        """
        c, dc = self.coords(np.atleast_2d(pts))
        verts, edges = self.cell
        at = self.coords(verts)[0]  # (nv, m): each coordinate at each vertex
        a, b = np.array(edges).T
        ia = np.argmax((at[a] == 1.0) & (at[b] == 0.0), axis=1)  # c_a of each edge
        ib = np.argmax((at[b] == 1.0) & (at[a] == 0.0), axis=1)
        t = c[:, ib] - c[:, ia]
        series = np.eye(k)[k - 1]  # P_{k-1} as a Legendre series
        L, dL = legval(t, series), legval(t, legder(series))
        on_edge = (at[a] != 0.0) | (at[b] != 0.0)  # (ne, m): not zero at both ends
        columns = []
        for e in range(len(edges)):
            factors = [(c[:, i], 1.0, dc[i]) for i in np.flatnonzero(on_edge[e])]
            columns.append(_product([*factors, (L[:, e], dL[:, e], dc[ib[e]] - dc[ia[e]])]))
        vals, grads = zip(*columns)
        return np.stack(vals, axis=1), np.stack(grads, axis=1)


ELEMENTS = {
    "triangle": Element(
        REFERENCE_CELLS["triangle"],
        {
            1: _lagrange_nodes("triangle", 1),
            2: _lagrange_nodes("triangle", 2),
            3: _lagrange_nodes("triangle", 3, interior=[(1 / 3, 1 / 3)]),
        },
        # 1 - x - y, x, y: barycentric
        np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        _tri_rule,
    ),
    "quad": Element(
        REFERENCE_CELLS["quad"],
        {1: _lagrange_nodes("quad", 1)},
        # 1 - x, x, 1 - y, y
        np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]]),
        _quad_rule,
    ),
}


# --- spaces -----------------------------------------------------------------


class PrimalSpace:
    """H1-conforming primal space V_h with optional boundary edge bubbles.

    dof_table (cells, nl), built once and read-only, holds the global dof of
    each basis column: the Lagrange dofs (the first nb_std columns), then, if
    enriched, one bubble per local edge, -1 on an edge that is no boundary
    facet.  The global dofs are numbered vertices (the mesh's vertex ids),
    edge nodes, bubbles (in boundary-facet order) and, last, the Lagrange
    dofs inside the cells, cell by cell: interior_dofs, empty below P3,
    which the assembler condenses out, so the dofs it keeps are the first
    interior_dofs.start.
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
        self._tables = {}  # basis tables by point set, dropped with the space

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

        # One bubble dof per boundary facet, after the edge nodes in facet
        # order, at the facet's (cell, local edge); every other edge keeps -1.
        facets = mesh.boundary_facets
        nf = len(facets) if self.enriched else 0
        bubbles[facets.cell[:nf], facets.local_edge[:nf]] = ndof + np.arange(nf)
        ndof += nf
        # The remaining nodes are interior: numbered last, cell by cell.
        n_inner = self.nb_std - nv - n_edge
        self.interior_dofs = range(ndof, ndof + nc * n_inner)
        lagrange[:, nv + n_edge :] = ndof + np.arange(nc * n_inner).reshape(nc, n_inner)
        self.dof_count = self.interior_dofs.stop
        self.dof_table.flags.writeable = False

    def basis(self, pts):
        """Every local function at reference points pts (..., 2).

        Returns values (..., nl) and reference gradients (..., nl, 2): the
        Lagrange functions, then, if the space is enriched, one edge bubble
        per local edge of REFERENCE_CELLS; the columns of dof_table.  Each
        point set (by value) is tabulated once and kept as long as the
        space, so the tables are shared and read-only.
        """
        pts = np.asarray(pts, dtype=float)
        key = (pts.shape, pts.tobytes())
        if key not in self._tables:
            flat = pts.reshape(-1, 2)
            vals, grads = self.element.basis(self.degree, flat)
            if self.enriched:
                bv, bg = self.element.bubble(self.degree, flat)
                vals = np.concatenate([vals, bv], axis=1)
                grads = np.concatenate([grads, bg], axis=1)
            vals = vals.reshape(pts.shape[:-1] + (-1,))
            grads = grads.reshape(pts.shape[:-1] + (-1, 2))
            vals.flags.writeable = grads.flags.writeable = False
            self._tables[key] = vals, grads
        return self._tables[key]


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

