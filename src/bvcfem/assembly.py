"""Assembly of the boundary-value-corrected multiplier and Nitsche systems.

One saddle-point assembler builds three multiplier variants that share the
interior stiffness (grad u, grad v) and the facet coupling (u, mu):

* unmodified      -- enforce u_h = u~ on the facet boundary, no correction;
* bvc             -- symmetric correction (u_h, mu) - (rho_h lambda_h, mu);
* taylor          -- non-symmetric correction (u_h + rho_h dn u_h, mu);

and assemble_nitsche builds the single-field boundary-value-corrected
symmetric Nitsche method with penalty gamma = gamma0 / h.

Both return a System with the primal space's cell-interior dofs (one per
P3 cell) condensed out by `condense`, on the per-cell blocks before
anything is scattered; solve restores them.  P1, P2 and Q1 have none, and
their blocks are scattered as they are.  A System stores one sparse
matrix and one right-hand side, the ones the solver takes; a multiplier
system's K, B, D and Bt_corr are read from its blocks.  What no multiplier method changes (the
condensed stiffness and load, B and the multiplier load) is one
PrimalAssembly, which the methods solved on one mesh share.

u~ is the Dirichlet data, the domain's u_exact, pulled back from the true
boundary through the precomputed facet pullback points.  Every cell term
is one contraction over all cells of V.basis and V.dof_table, every facet
term one over the tables of the facet kernel facet_traces: each boundary
facet's dofs, traces and normal derivatives, from one V.basis call.  A
facet reader on a mesh without precompute_boundary_geometry raises
DimensionMismatch.  B is scattered by coupling_matrix alone; Nitsche's
facet blocks are added to their cells' blocks.  A -1 column of the dof
table (an edge without a bubble) keeps its reference values; _scatter
stores only entries whose row and column fall inside the matrix, which
drops a -1 slot and, in a condensed matrix, the interior dofs V numbers
last; right-hand sides index dofs >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import ImplicitDomain, at_points
from .mesh import REFERENCE_CELLS
from .spaces import MultiplierSpace, PrimalSpace, quadrature

SADDLE_METHODS = ("bvc", "unmodified", "taylor")


class DimensionMismatch(Exception):
    pass


class IoError(Exception):
    pass


class SingularCell(Exception):
    """A cell-interior dof has a zero diagonal entry, so it cannot be condensed."""


@dataclass(frozen=True)
class Interior:
    """The cell-interior dofs of V, eliminated cell by cell from an assembled system.

    V numbers them last, so the retained dofs are V's first dofs.start.  An
    interior dof couples only to the dofs of its own cell, so with one per
    cell (P3) it is eliminated from that cell's block alone; column is its
    column of V.dof_table.  row, f_I and diag are each cell's interior row of
    its block (0 in every column that is no retained dof), interior load and
    diagonal entry, kept for restore.  With no interior dofs eliminate
    changes nothing and restore returns its input.
    """

    V: PrimalSpace
    column: int | None = None
    row: np.ndarray | None = None
    f_I: np.ndarray | None = None
    diag: np.ndarray | None = None

    @property
    def dofs(self) -> range:
        return self.V.interior_dofs

    def eliminate(self, blocks, cells):
        """Move the interior column of blocks (n, a, nl), whose columns are the
        local functions of cells (n,), onto the retained ones, in place:
        blocks -= b_I row / diag, with b_I the interior column.  Returns the
        correction b_I f_I / diag (n, a) of each block row's right-hand side."""
        if not self.dofs:
            return 0.0
        b_I = blocks[:, :, self.column] / self.diag[cells, None]
        row = self.row[cells]
        for k in range(blocks.shape[2]):  # one column at a time: no (n, a, nl) temporary
            blocks[:, :, k] -= b_I * row[:, None, k]
        return b_I * self.f_I[cells, None]

    def restore(self, u_r) -> np.ndarray:
        """Coefficients of every dof of V from those of the retained ones:
        u_I = (f_I - row . u_r) / diag, cell by cell, appended to u_r."""
        if not self.dofs:
            return u_r
        u = np.concatenate([u_r, np.zeros(len(self.dofs))])
        u_I = (self.f_I - np.einsum("cl,cl->c", self.row, u[self.V.dof_table])) / self.diag
        u[self.dofs.start :] = u_I
        return u


def condense(V: PrimalSpace, Kc: np.ndarray, f: np.ndarray):
    """(A, f', Interior): the per-cell blocks Kc (cells, nl, nl) over
    V.dof_table, summed into one CSR matrix with V's cell-interior dofs
    eliminated (static condensation), and the load f condensed with them.

    Each cell's block loses its interior row and column in place,
    Kc -= Kc[:, :, j] Kc[:, j, :] / Kc[:, j, j], and f' = f[:nu] - the same
    column times f_I / diag.  V numbers its interior dofs last, from
    nu = V.interior_dofs.start, so V.dof_table itself is scattered at
    (nu, nu) and the interior rows and columns fall outside.  Without
    interior dofs (P1, P2, Q1) the blocks are scattered as they are and f
    comes back unchanged.
    """
    I, table, nu = V.interior_dofs, V.dof_table, V.interior_dofs.start
    if not I:
        return _scatter((nu, nu), Kc, table, table), f, Interior(V)
    if len(I) > V.mesh.num_cells:
        raise NotImplementedError("condensation takes at most one interior dof per cell")
    j = int(np.flatnonzero(table[0] == I.start)[0])  # interior dofs are numbered cell by cell
    diag = Kc[:, j, j].copy()
    zero = np.flatnonzero(diag == 0)
    if zero.size:
        cell = int(zero[0])
        raise SingularCell(f"cell {cell}: zero diagonal at its interior dof {I.start + cell}")
    kept = (table >= 0) & (table < nu)
    interior = Interior(V, j, np.where(kept, Kc[:, j, :], 0.0), f[nu:].copy(), diag)
    correction = interior.eliminate(Kc, slice(None))
    f = f[:nu].copy()
    np.subtract.at(f, table[kept], correction[kept])
    return _scatter((nu, nu), Kc, table, table), f, interior


@dataclass
class System:
    """A z = rhs on the retained dofs of V and, with a multiplier, Lam's dofs.

    A, in CSC, is the one stored matrix, the one the solver factors; the
    primal blocks act on V's first nu dofs, the retained ones, and interior
    holds the condensed cell-interior dofs.  method is "nitsche", whose Lam
    is None, or one of SADDLE_METHODS, whose A is [[K, B^T], [B or Bt_corr, -D]]:
    K[i,j] = (grad phi_j, grad phi_i), B[i,j] = (phi_j, psi_i) on the facet
    boundary, D[i,j] = (rho_h psi_j, psi_i).  For taylor Bt_corr replaces
    the second-row coupling, Bt_corr[i,j] = (phi_j + rho_h n_h.grad phi_j,
    psi_i), and is None otherwise; D is empty except for bvc.  K, B, D and
    Bt_corr are read from A's blocks.
    """

    A: sp.csc_matrix
    rhs: np.ndarray
    V: PrimalSpace
    Lam: MultiplierSpace | None
    interior: Interior
    method: str

    @property
    def nu(self) -> int:
        """The number of retained primal dofs, A's leading block: V's dofs
        before its interior ones."""
        return self.V.interior_dofs.start

    @property
    def K(self) -> sp.csc_matrix:
        return self.A[: self.nu, : self.nu]

    @property
    def B(self) -> sp.csr_matrix:
        return self.A[: self.nu, self.nu :].T

    @property
    def D(self) -> sp.csc_matrix:
        return -self.A[self.nu :, self.nu :]

    @property
    def Bt_corr(self) -> sp.csc_matrix | None:
        return self.A[self.nu :, : self.nu] if self.method == "taylor" else None


def stiffness_matrix(V: PrimalSpace) -> np.ndarray:
    """Per-cell blocks (cells, nl, nl) of (grad phi_i, grad phi_j), bubbles
    included, over the columns of V.dof_table."""
    mesh = V.mesh
    rule = quadrature(mesh.cell_kind, 2 * (V.degree + 1))
    _, grads = V.basis(rule.points)
    Jinv, detJ = mesh.Jinv, mesh.detJ

    # Reference contraction S[i,j,a,b] folds the quadrature once; per-cell
    # stiffness is then a 2x2 metric contraction (cells are affine).
    S = np.einsum("q,qia,qjb->ijab", rule.weights, grads, grads)
    C = np.einsum("cad,cbd->cab", Jinv, Jinv)
    return np.einsum("ijab,cab->cij", S, C) * detJ[:, None, None]


def load_vector(V: PrimalSpace, f) -> np.ndarray:
    """(f, phi_i) over all cells."""
    mesh = V.mesh
    rule = quadrature(mesh.cell_kind, 2 * V.degree + 3)
    vals, _ = V.basis(rule.points)
    fv = at_points(f, mesh.to_physical(rule.points))
    Fc = fv @ (rule.weights[:, None] * vals) * mesh.detJ[:, None]
    dofs = V.dof_table
    on = dofs >= 0
    rhs = np.zeros(V.dof_count)
    np.add.at(rhs, dofs[on], Fc[on])
    return rhs


def _facet_geometry(mesh):
    """mesh.boundary_facets, once precompute_boundary_geometry has given them
    their Gauss points, weights, rho_h and pullback points."""
    facets = mesh.boundary_facets
    if facets.s is None:
        raise DimensionMismatch(
            "facet geometry missing: call precompute_boundary_geometry first"
        )
    return facets


def facet_traces(V: PrimalSpace):
    """The facet kernel: cell basis functions traced on every boundary facet
    of V's mesh, from one V.basis call at the facet Gauss points of every
    local edge.

    Returns (dofs, vals, dn): the dof_table row of each facet's cell, the
    values at the facet's Gauss points on its local edge (nf, nq, nl) and
    their normal derivatives n_h . grad (nf, nq, nl).  A cell's other
    bubbles vanish on the facet, but their normal derivatives do not.  A -1
    column keeps its reference values, for the consumer to drop.
    """
    mesh = V.mesh
    facets = _facet_geometry(mesh)
    ref, edges = REFERENCE_CELLS[mesh.cell_kind]
    a, b = ref[np.array(edges).T]
    vals, grads = V.basis(a[:, None, :] + facets.s[None, :, None] * (b - a)[:, None, :])
    e = facets.local_edge
    dn = np.einsum("fqnd,fde,fe->fqn", grads[e], mesh.Jinv[facets.cell], facets.n_h)
    return V.dof_table[facets.cell], vals[e], dn


def _scatter(shape, blocks, rows, cols) -> sp.csr_matrix:
    """Sparse sum of per-cell or per-facet blocks (n, a, b) at rows (n, a), cols (n, b).

    An entry is stored only when its row and column fall inside shape: one
    rule drops a -1 slot and a condensed interior dof (numbered from the
    retained count on).  Every other entry is stored, exact zeros included.
    """
    in_rows = (rows >= 0) & (rows < shape[0])
    in_cols = (cols >= 0) & (cols < shape[1])
    stored = in_rows[:, :, None] & in_cols[:, None, :]
    ij = (
        np.broadcast_to(rows[:, :, None], blocks.shape)[stored],
        np.broadcast_to(cols[:, None, :], blocks.shape)[stored],
    )
    return sp.coo_matrix((blocks[stored], ij), shape=shape).tocsr()


def boundary_mass_primal(V: PrimalSpace) -> sp.csr_matrix:
    """(phi_i, phi_j) over the facet boundary (used by the inf-sup check)."""
    dofs, vals, _ = facet_traces(V)
    blocks = np.einsum("fq,fqi,fqj->fij", V.mesh.boundary_facets.weights, vals, vals)
    return _scatter((V.dof_count, V.dof_count), blocks, dofs, dofs)


def _coupling_blocks(V: PrimalSpace, Lam: MultiplierSpace, rho_dn: bool):
    """(dofs, blocks): the dof_table row of each facet's cell and the
    per-facet blocks (nf, m + 1, nl) of B[i,j] = (phi_j, psi_i), rows
    Lam.facet_dofs, columns dofs.

    With rho_dn the primal trace is Taylor-corrected:
    (phi_j + rho_h dn phi_j, psi_i).
    """
    dofs, vals, dn = facet_traces(V)
    facets = Lam.mesh.boundary_facets
    if rho_dn:
        vals = vals + facets.rho[:, :, None] * dn
    return dofs, np.einsum("fq,qi,fqj->fij", facets.weights, Lam.eval(facets.s), vals)


def coupling_matrix(V: PrimalSpace, Lam: MultiplierSpace) -> sp.csr_matrix:
    """B over every dof of V: _coupling_blocks summed into one matrix."""
    dofs, blocks = _coupling_blocks(V, Lam, False)
    return _scatter((Lam.dof_count, V.dof_count), blocks, Lam.facet_dofs, dofs)


@dataclass
class PrimalAssembly:
    """The part of the multiplier systems on V and Lam that no method
    changes: the condensed stiffness K and load rhs_u with their interior,
    the coupling B over the retained dofs and the multiplier load (u~, mu).
    The methods solved on one mesh share it."""

    K: sp.csr_matrix
    rhs_u: np.ndarray
    interior: Interior
    B: sp.csr_matrix
    rhs_lam: np.ndarray


def assemble_primal(
    V: PrimalSpace, Lam: MultiplierSpace, domain: ImplicitDomain
) -> PrimalAssembly:
    """The method-independent part of assemble_saddle's systems on V and Lam.

    B keeps the retained columns of coupling_matrix: its interior columns
    are dropped, not condensed, since they hold roundoff of a trace that
    vanishes, so the unmodified (2,2) block stays empty.
    """
    if Lam.mesh is not V.mesh:
        raise DimensionMismatch("primal and multiplier spaces were built on different meshes")
    facets = _facet_geometry(V.mesh)
    rhs_lam = np.zeros(Lam.dof_count)
    rhs_lam[Lam.facet_dofs] = (
        facets.weights * at_points(domain.u_exact, facets.pullback)
    ) @ Lam.eval(facets.s)
    K, rhs_u, interior = condense(V, stiffness_matrix(V), load_vector(V, domain.f_rhs))
    B = coupling_matrix(V, Lam)[:, : K.shape[0]]
    return PrimalAssembly(K, rhs_u, interior, B, rhs_lam)


def assemble_saddle(
    V: PrimalSpace,
    Lam: MultiplierSpace,
    domain: ImplicitDomain,
    method: str,
    primal: PrimalAssembly | None = None,
) -> System:
    """The multiplier system of one of SADDLE_METHODS, right-hand side (u~, mu).

    bvc:        (u, mu) - (rho_h lambda, mu) = (u~, mu);
    unmodified: (u, mu) = (u~, mu), D is empty;
    taylor:     (u + rho_h dn u, mu) = (u~, mu), D is empty.

    primal is assemble_primal(V, Lam, domain), when the methods of one mesh
    share it; it is read, never changed.  None assembles it here.
    """
    if method not in SADDLE_METHODS:
        raise ValueError(f"unknown multiplier method {method!r}; have {SADDLE_METHODS}")
    if primal is None:
        primal = assemble_primal(V, Lam, domain)
    facets = V.mesh.boundary_facets
    nl = Lam.dof_count
    D = sp.csr_matrix((nl, nl))
    if method == "bvc":
        psi = Lam.eval(facets.s)
        blocks = np.einsum("fq,fq,qi,qj->fij", facets.weights, facets.rho, psi, psi)
        D = _scatter((nl, nl), blocks, Lam.facet_dofs, Lam.facet_dofs)
    row2, rhs = primal.B, np.concatenate([primal.rhs_u, primal.rhs_lam])
    if method == "taylor":
        dofs, blocks = _coupling_blocks(V, Lam, True)
        rhs[primal.K.shape[0] + Lam.facet_dofs] -= primal.interior.eliminate(blocks, facets.cell)
        row2 = _scatter(primal.B.shape, blocks, Lam.facet_dofs, dofs)
    return System(
        A=sp.bmat([[primal.K, primal.B.T], [row2, -D]], format="csc"),
        rhs=rhs,
        V=V,
        Lam=Lam,
        interior=primal.interior,
        method=method,
    )


def assemble_nitsche(V: PrimalSpace, domain: ImplicitDomain, gamma0: float) -> System:
    """Boundary-value-corrected symmetric Nitsche with gamma = gamma0 / h.

    Facet terms, with dn = n_h . grad and corr(v) = v + rho_h dn v:
        -(dn w, corr(v)) - (corr(w), dn v) + (rho_h dn w, dn v)
        + gamma (corr(w), corr(v))
    and data terms (f, v) - (u~, dn v) + gamma (u~, corr(v)).
    """
    if not 0 < gamma0 < np.inf:
        raise ValueError(f"gamma0 must be a positive finite number, got {gamma0!r}")
    facets = _facet_geometry(V.mesh)
    gamma = gamma0 / V.mesh.h

    Kc = stiffness_matrix(V)
    rhs = load_vector(V, domain.f_rhs)
    dofs, vals, dn = facet_traces(V)
    w, rho = facets.weights, facets.rho
    corr = vals + rho[:, :, None] * dn
    M = (
        -np.einsum("fq,fqj,fqi->fij", w, dn, corr)
        - np.einsum("fq,fqj,fqi->fij", w, corr, dn)
        + np.einsum("fq,fq,fqj,fqi->fij", w, rho, dn, dn)
        + gamma * np.einsum("fq,fqj,fqi->fij", w, corr, corr)
    )
    wg = w * at_points(domain.u_exact, facets.pullback)
    data = -np.einsum("fqi,fq->fi", dn, wg) + gamma * np.einsum("fqi,fq->fi", corr, wg)
    np.add.at(rhs, dofs[dofs >= 0], data[dofs >= 0])
    np.add.at(Kc, facets.cell, M)

    A, rhs, interior = condense(V, Kc, rhs)
    return System(A=A.tocsc(), rhs=rhs, V=V, Lam=None, interior=interior, method="nitsche")


def dump_matrix(A, path) -> None:
    """Coordinate text dump 'i j value', one entry per line."""
    coo = sp.coo_matrix(A)
    try:
        with open(path, "w") as fh:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v:.17g}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def dump_system(system, prefix) -> None:
    """Debug dump of all blocks of a system under the given path prefix."""
    if system.Lam is None:
        dump_matrix(system.A, f"{prefix}-A.txt")
        return
    dump_matrix(system.K, f"{prefix}-K.txt")
    dump_matrix(system.B, f"{prefix}-B.txt")
    dump_matrix(system.D, f"{prefix}-D.txt")
    if system.Bt_corr is not None:
        dump_matrix(system.Bt_corr, f"{prefix}-Bt.txt")
    dump_matrix(system.A, f"{prefix}-full.txt")
