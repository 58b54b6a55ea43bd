"""Assembly of the boundary-value-corrected multiplier and Nitsche systems.

One saddle-point assembler builds three multiplier variants that share the
interior stiffness (grad u, grad v) and the facet coupling (u, mu):

* unmodified      -- enforce u_h = u~ on the facet boundary, no correction;
* bvc             -- symmetric correction (u_h, mu) - (rho_h lambda_h, mu);
* taylor          -- non-symmetric correction (u_h + rho_h dn u_h, mu);

and assemble_nitsche builds the single-field boundary-value-corrected
symmetric Nitsche method with penalty gamma = gamma0 / h.

u~ is the Dirichlet data, the domain's u_exact, pulled back from the true
boundary through the precomputed facet pullback points.  Every cell term
is one contraction over all cells of V.basis and V.dof_table, every facet
term one over the facet_traces tables of all boundary facets.  A -1 column
of the dof table (an edge without a bubble) keeps its reference values;
_scatter drops its rows and columns, right-hand sides index dofs >= 0.
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
    _, grads = V.basis(rule.points)
    Jinv, detJ = mesh.Jinv, mesh.detJ

    # Reference contraction S[i,j,a,b] folds the quadrature once; per-cell
    # stiffness is then a 2x2 metric contraction (cells are affine).
    S = np.einsum("q,qia,qjb->ijab", rule.weights, grads, grads)
    C = np.einsum("cad,cbd->cab", Jinv, Jinv)
    Kc = np.einsum("ijab,cab->cij", S, C) * detJ[:, None, None]
    dofs = V.dof_table
    return _scatter((V.dof_count, V.dof_count), Kc, dofs, dofs)


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


def facet_traces(V: PrimalSpace):
    """Cell basis functions traced on every boundary facet of V's mesh.

    Returns (dofs, vals, dn): the dof_table row of each facet's cell and
    V.basis at the facet's Gauss points on its local edge, with the
    reference gradients turned into normal derivatives n_h . grad
    (nf, nq, nl).  The basis is tabulated once per local edge.  A -1
    column keeps its reference values, for the consumer to drop.  A
    cell's other bubbles vanish on the facet, but their normal
    derivatives do not.
    """
    mesh = V.mesh
    facets = mesh.boundary_facets
    ref, edges = REFERENCE_CELLS[mesh.cell_kind]
    a, b = ref[np.array(edges).T]
    vals, grads = V.basis(a[:, None, :] + facets.s[None, :, None] * (b - a)[:, None, :])
    e = facets.local_edge
    dn = np.einsum("fqnd,fde,fe->fqn", grads[e], mesh.Jinv[facets.cell], facets.n_h)
    return V.dof_table[facets.cell], vals[e], dn


def _scatter(shape, blocks, rows, cols) -> sp.csr_matrix:
    """Sparse sum of per-cell or per-facet blocks (n, a, b) at rows (n, a), cols (n, b).

    An entry in a -1 row or column is never stored; every other entry is,
    exact zeros included.
    """
    stored = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)
    ij = (
        np.broadcast_to(rows[:, :, None], blocks.shape)[stored],
        np.broadcast_to(cols[:, None, :], blocks.shape)[stored],
    )
    return sp.coo_matrix((blocks[stored], ij), shape=shape).tocsr()


def boundary_mass_primal(V: PrimalSpace) -> sp.csr_matrix:
    """(phi_i, phi_j) over the facet boundary (used by the inf-sup check)."""
    facets = V.mesh.boundary_facets
    dofs, vals, _ = facet_traces(V)
    blocks = np.einsum("fq,fqi,fqj->fij", facets.weights, vals, vals)
    return _scatter((V.dof_count, V.dof_count), blocks, dofs, dofs)


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
    return _scatter(shape, blocks, Lam.facet_dofs, dofs)


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
        D = _scatter((nl, nl), blocks, Lam.facet_dofs, Lam.facet_dofs)
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
    A = _scatter((n, n), M, dofs, dofs) + K
    return NitscheSystem(A=A, rhs=rhs, V=V)


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
    if isinstance(system, NitscheSystem):
        dump_matrix(system.A, f"{prefix}-A.txt")
        return
    dump_matrix(system.K, f"{prefix}-K.txt")
    dump_matrix(system.B, f"{prefix}-B.txt")
    dump_matrix(system.D, f"{prefix}-D.txt")
    if system.Bt_corr is not None:
        dump_matrix(system.Bt_corr, f"{prefix}-Bt.txt")
    dump_matrix(system.full_matrix(), f"{prefix}-full.txt")
