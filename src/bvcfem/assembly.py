"""Assembly of the boundary-value-corrected multiplier and Nitsche systems.

One saddle-point assembler builds three multiplier variants that share the
interior stiffness (grad u, grad v) and the facet coupling (u, mu):

* unmodified      -- enforce u_h = u~ on the facet boundary, no correction;
* bvc             -- symmetric correction (u_h, mu) - (rho_h lambda_h, mu);
* taylor          -- non-symmetric correction (u_h + rho_h dn u_h, mu);

and assemble_nitsche builds the single-field boundary-value-corrected
symmetric Nitsche method with penalty gamma = gamma0 / h.

u~ is the Dirichlet data, the domain's u_exact, pulled back from the true
boundary through the precomputed facet pullback points.  Every facet term
is one batched contraction over the facet_traces tables of all boundary
facets.  Local dof tables carry -1 on the bubble slot of an edge without a
bubble; _scatter drops those rows and columns, right-hand sides index
dofs >= 0.
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


@dataclass
class SaddleSystem:
    """Block system [[K, B^T], [B or Bt_corr, -D]] with right-hand side.

    K[i,j] = (grad phi_j, grad phi_i), B[i,j] = (phi_j, psi_i) on the facet
    boundary, D[i,j] = (rho_h psi_j, psi_i).  When Bt_corr is set (taylor) it
    replaces the second-row coupling, Bt_corr[i,j] =
    (phi_j + rho_h n_h.grad phi_j, psi_i); D is empty except for bvc.
    """

    K: sp.csr_matrix
    B: sp.csr_matrix
    D: sp.csr_matrix
    Bt_corr: sp.csr_matrix | None
    rhs_u: np.ndarray
    rhs_lam: np.ndarray
    V: PrimalSpace
    Lam: MultiplierSpace

    def full_matrix(self) -> sp.csc_matrix:
        row2 = self.Bt_corr if self.Bt_corr is not None else self.B
        return sp.bmat([[self.K, self.B.T], [row2, -self.D]], format="csc")

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_u, self.rhs_lam])


@dataclass
class NitscheSystem:
    A: sp.csr_matrix
    rhs: np.ndarray
    V: PrimalSpace

    def full_matrix(self) -> sp.csc_matrix:
        return self.A.tocsc()

    def full_rhs(self) -> np.ndarray:
        return self.rhs


def _check_spaces(V, Lam=None):
    if Lam is not None and Lam.mesh is not V.mesh:
        raise DimensionMismatch("primal and multiplier spaces were built on different meshes")
    if V.mesh.boundary_facets.s is None:
        raise DimensionMismatch(
            "facet geometry missing: call precompute_boundary_geometry first"
        )


def stiffness_matrix(V: PrimalSpace) -> sp.csr_matrix:
    """(grad phi_i, grad phi_j) over all cells, bubbles included."""
    mesh = V.mesh
    rule = quadrature(mesh.cell_kind, 2 * (V.degree + 1))
    _, grads = V.tabulate(rule.points)
    Jinv, detJ = mesh.Jinv, mesh.detJ

    # Reference contraction S[i,j,a,b] folds the quadrature once; per-cell
    # stiffness is then a 2x2 metric contraction (cells are affine).
    S = np.einsum("q,qia,qjb->ijab", rule.weights, grads, grads)
    C = np.einsum("cad,cbd->cab", Jinv, Jinv)
    Kc = np.einsum("ijab,cab->cij", S, C) * detJ[:, None, None]

    # Enriched cells add the rows and columns of their bubbles; std x std
    # is in the bulk.  Both go into one COO, so stored zeros are kept.
    cells = V.bubble_cells
    dofs, _, g = V.local_basis(cells, rule.points)
    gp = np.einsum("cqnd,cde->cqne", g, Jinv[cells])
    Kb = detJ[cells, None, None] * np.einsum("q,cqia,cqja->cij", rule.weights, gp, gp)
    keep = np.ones(Kb.shape[1:], dtype=bool)
    keep[: V.nb_std, : V.nb_std] = False

    std = V.cell_dofs_std
    return _scatter((V.dof_count, V.dof_count), (Kc, std, std, True), (Kb, dofs, dofs, keep))


def load_vector(V: PrimalSpace, f) -> np.ndarray:
    """(f, phi_i) over all cells."""
    mesh = V.mesh
    rule = quadrature(mesh.cell_kind, 2 * V.degree + 3)
    vals, _ = V.tabulate(rule.points)
    detJ = mesh.detJ
    fv = at_points(f, mesh.to_physical(rule.points))
    Fc = np.einsum("q,qi,cq->ci", rule.weights, vals, fv) * detJ[:, None]

    rhs = np.zeros(V.dof_count)
    np.add.at(rhs, V.cell_dofs_std, Fc)
    cells = V.bubble_cells
    dofs, bv, _ = V.local_basis(cells, rule.points)
    Fb = np.einsum("q,cqj,cq->cj", rule.weights, bv, fv[cells]) * detJ[cells, None]
    dofs[:, : V.nb_std] = -1  # the Lagrange part is in the bulk
    np.add.at(rhs, dofs[dofs >= 0], Fb[dofs >= 0])
    return rhs


def facet_traces(V: PrimalSpace):
    """Cell basis functions traced on every boundary facet of V's mesh.

    Returns (dofs, vals, dn): V.local_basis of each facet's cell at the
    facet's Gauss points, -1 dofs and zero columns included, with the
    reference gradients turned into normal derivatives n_h . grad
    (nf, nq, nl).  A cell's other bubbles vanish on the facet, but their
    normal derivatives do not.
    """
    mesh = V.mesh
    facets = mesh.boundary_facets
    ref, edges = REFERENCE_CELLS[mesh.cell_kind]
    a, b = ref[np.array(edges).T]
    ref_pts = a[:, None, :] + facets.s[None, :, None] * (b - a)[:, None, :]  # (ne, nq, 2)
    dofs, vals, grads = V.local_basis(facets.cell, ref_pts[facets.local_edge])
    dn = np.einsum("fqnd,fde,fe->fqn", grads, mesh.Jinv[facets.cell], facets.n_h)
    return dofs, vals, dn


def _scatter(shape, *parts) -> sp.csr_matrix:
    """Sparse sum of per-cell or per-facet blocks, all in one COO.

    Each part is (blocks (n, a, b), rows (n, a), cols (n, b), keep); keep,
    broadcast to the blocks, selects the entries that are stored, and an
    entry in a -1 row or column is never stored.
    """
    data, ii, jj = [], [], []
    for blocks, rows, cols, keep in parts:
        keep = keep & (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)
        keep = np.broadcast_to(keep, blocks.shape)
        data.append(blocks[keep])
        ii.append(np.broadcast_to(rows[:, :, None], blocks.shape)[keep])
        jj.append(np.broadcast_to(cols[:, None, :], blocks.shape)[keep])
    ij = (np.concatenate(ii), np.concatenate(jj))
    return sp.coo_matrix((np.concatenate(data), ij), shape=shape).tocsr()


def boundary_mass_primal(V: PrimalSpace) -> sp.csr_matrix:
    """(phi_i, phi_j) over the facet boundary (used by the inf-sup check)."""
    facets = V.mesh.boundary_facets
    dofs, vals, _ = facet_traces(V)
    blocks = np.einsum("fq,fqi,fqj->fij", facets.weights, vals, vals)
    return _scatter((V.dof_count, V.dof_count), (blocks, dofs, dofs, True))


def coupling_matrix(V: PrimalSpace, Lam: MultiplierSpace, rho_dn: bool) -> sp.csr_matrix:
    """B[i,j] = (phi_j, psi_i) on the facet boundary.

    With rho_dn the primal trace is Taylor-corrected:
    (phi_j + rho_h dn phi_j, psi_i).
    """
    facets = V.mesh.boundary_facets
    dofs, vals, dn = facet_traces(V)
    if rho_dn:
        vals = vals + facets.rho[:, :, None] * dn
    blocks = np.einsum("fq,qi,fqj->fij", facets.weights, Lam.eval(facets.s), vals)
    shape = (Lam.dof_count, V.dof_count)
    return _scatter(shape, (blocks, Lam.facet_dofs, dofs, True))


def assemble_saddle(
    V: PrimalSpace, Lam: MultiplierSpace, domain: ImplicitDomain, method: str
) -> SaddleSystem:
    """The multiplier system of one of SADDLE_METHODS, right-hand side (u~, mu).

    bvc:        (u, mu) - (rho_h lambda, mu) = (u~, mu);
    unmodified: (u, mu) = (u~, mu), D is empty;
    taylor:     (u + rho_h dn u, mu) = (u~, mu), D is empty.
    """
    if method not in SADDLE_METHODS:
        raise ValueError(f"unknown multiplier method {method!r}; have {SADDLE_METHODS}")
    _check_spaces(V, Lam)
    facets = V.mesh.boundary_facets
    psi, w, nl = Lam.eval(facets.s), facets.weights, Lam.dof_count
    D = sp.csr_matrix((nl, nl))
    if method == "bvc":
        blocks = np.einsum("fq,fq,qi,qj->fij", w, facets.rho, psi, psi)
        D = _scatter((nl, nl), (blocks, Lam.facet_dofs, Lam.facet_dofs, True))
    rhs_lam = np.zeros(nl)
    rhs_lam[Lam.facet_dofs] = (w * at_points(domain.u_exact, facets.pullback)) @ psi
    return SaddleSystem(
        K=stiffness_matrix(V),
        B=coupling_matrix(V, Lam, False),
        D=D,
        Bt_corr=coupling_matrix(V, Lam, True) if method == "taylor" else None,
        rhs_u=load_vector(V, domain.f_rhs),
        rhs_lam=rhs_lam,
        V=V,
        Lam=Lam,
    )


def assemble_nitsche(V: PrimalSpace, domain: ImplicitDomain, gamma0: float) -> NitscheSystem:
    """Boundary-value-corrected symmetric Nitsche with gamma = gamma0 / h.

    Facet terms, with dn = n_h . grad and corr(v) = v + rho_h dn v:
        -(dn w, corr(v)) - (corr(w), dn v) + (rho_h dn w, dn v)
        + gamma (corr(w), corr(v))
    and data terms (f, v) - (u~, dn v) + gamma (u~, corr(v)).
    """
    if not 0 < gamma0 < np.inf:
        raise ValueError(f"gamma0 must be a positive finite number, got {gamma0!r}")
    _check_spaces(V)
    facets = V.mesh.boundary_facets
    gamma = gamma0 / V.mesh.h

    K = stiffness_matrix(V)
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

    n = V.dof_count
    A = _scatter((n, n), (M, dofs, dofs, True)) + K
    return NitscheSystem(A=A, rhs=rhs, V=V)


def dump_matrix(A, path) -> None:
    """Coordinate text dump 'i j value', one entry per line."""
    coo = sp.coo_matrix(A)
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")


def dump_system(system, prefix) -> None:
    """Debug dump of all blocks of a system under the given path prefix."""
    if isinstance(system, NitscheSystem):
        dump_matrix(system.A, f"{prefix}-A.txt")
        return
    dump_matrix(system.K, f"{prefix}-K.txt")
    dump_matrix(system.B, f"{prefix}-B.txt")
    dump_matrix(system.D, f"{prefix}-D.txt")
    if system.Bt_corr is not None:
        dump_matrix(system.Bt_corr, f"{prefix}-Bt.txt")
    dump_matrix(system.full_matrix(), f"{prefix}-full.txt")
