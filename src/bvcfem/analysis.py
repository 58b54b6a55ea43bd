"""Error norms, convergence-rate fits, inf-sup diagnostic, geometry reports."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import geometry as geo
from .assembly import (
    _facet_geometry,
    _scatter,
    boundary_mass_primal,
    coupling_matrix,
    facet_traces,
    stiffness_matrix,
)
from .mesh import Mesh
from .solver import SolutionField
from .spaces import MultiplierSpace, PrimalSpace, quadrature


class DegenerateFit(Exception):
    pass


class TooLarge(Exception):
    pass


@dataclass
class ErrorReport:
    """Per-level record of mesh size, dof counts, error norms and geometry."""

    h: float
    nno: int
    dofs_u: int
    dofs_lambda: int
    err_l2: float
    err_h1: float
    err_lambda: float | None
    triple: float | None
    delta_h: float
    normal_dev: float


def _error_rule(V: PrimalSpace):
    return quadrature(V.mesh.cell_kind, 2 * V.degree + 4)


# V -> {domain: (u, grad_u)}, dropped with V.
_EXACT = weakref.WeakKeyDictionary()


def exact_data(V: PrimalSpace, domain):
    """u (cells, nq) and grad u (cells, nq, 2) at the physical points of
    l2_h1_errors' rule on V, read-only.

    Each domain is evaluated once and kept as long as V, so every error
    norm on V, of every method solved on it, reads one copy.
    """
    tables = _EXACT.setdefault(V, {})
    if domain not in tables:
        X = V.mesh.to_physical(_error_rule(V).points)
        u, grad_u = geo.at_points(domain.u_exact, X), geo.at_points(domain.grad_u_exact, X)
        u.flags.writeable = grad_u.flags.writeable = False
        tables[domain] = u, grad_u
    return tables[domain]


# Cells per block of the volume norms: each block's tables stay in cache,
# and no whole-mesh (cells, nq) temporary is made.
_BLOCK = 2048


def _field_blocks(field: SolutionField, points):
    """Yield (cells, u_h, grad u_h) of a primal field over consecutive blocks
    of _BLOCK cells: cells a slice, u_h (b, nq) and grad u_h (b, nq, 2) at the
    reference points (nq, 2) of every cell of the block.

    Each is one BLAS product of the block's coefficients with the reference
    table; the coefficients carry one zero appended, so a -1 slot of the dof
    table reads 0.
    """
    V = field.space
    vals, grads = V.basis(points)
    nq, nl = vals.shape
    grads = grads.transpose(1, 0, 2).reshape(nl, 2 * nq)
    coeffs = np.append(field.coefficients, 0.0)
    for start in range(0, len(V.dof_table), _BLOCK):
        cells = slice(start, start + _BLOCK)
        cs = coeffs[V.dof_table[cells]]
        guh = (cs @ grads).reshape(len(cs), nq, 2) @ V.mesh.Jinv[cells]
        yield cells, cs @ vals.T, guh


def l2_h1_errors(u_field: SolutionField, domain):
    """||u - u_h|| and |u - u_h|_H1 on the field's mesh, elevated-order quadrature."""
    V = u_field.space
    ue, ge = exact_data(V, domain)
    rule = _error_rule(V)
    l2 = h1 = 0.0
    for cells, uh, guh in _field_blocks(u_field, rule.points):
        wd = rule.weights * V.mesh.detJ[cells, None]
        uh -= ue[cells]
        guh -= ge[cells]
        guh *= guh
        l2 += np.vdot(wd * uh, uh)
        h1 += np.vdot(wd, guh[..., 0] + guh[..., 1])
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def field_l2_norm(field: SolutionField) -> float:
    """||v_h|| over the mesh (used e.g. for differences of two solutions)."""
    rule = _error_rule(field.space)
    detJ = field.space.mesh.detJ
    sq = sum(
        np.vdot(rule.weights * detJ[cells, None] * uh, uh)
        for cells, uh, _ in _field_blocks(field, rule.points)
    )
    return float(np.sqrt(sq))


def multiplier_error(lambda_field: SolutionField, domain) -> float:
    """||(-n_h . grad u)|_{facet boundary} - lambda_h||.

    n_h is the facet normal, consistent with lambda_h ~ -n_h . grad u_h.
    """
    facets = _facet_geometry(lambda_field.space.mesh)
    n = facets.n_h[:, None, :]
    target = -np.sum(geo.at_points(domain.grad_u_exact, facets.points) * n, axis=-1)
    lam = lambda_field.evaluate_on_facet(slice(None), facets.s)
    return float(np.sqrt(np.sum(facets.weights * (target - lam) ** 2)))


def error_triple_norm(u_field, err_lambda, domain) -> float:
    """|||(u - u_h, lambda~ - lambda_h)||| with lambda~ = -n_h . grad u.

    err_lambda is multiplier_error's value, None for a method without
    multiplier.
    """
    _, err_h1 = l2_h1_errors(u_field, domain)
    mesh = u_field.space.mesh
    facets = _facet_geometry(mesh)
    ue = geo.at_points(domain.u_exact, facets.points)
    dofs, vals, _ = facet_traces(u_field.space)
    uh = np.einsum("fqn,fn->fq", vals, np.append(u_field.coefficients, 0.0)[dofs])
    bnd_sq = np.sum(facets.weights * (ue - uh) ** 2)
    mu_err = 0.0 if err_lambda is None else err_lambda
    return float(err_h1 + np.sqrt(bnd_sq / mesh.h) + np.sqrt(mesh.h) * mu_err)


@dataclass
class RateFit:
    """Least-squares log-log slope over the last three levels."""

    last3: float


def pairwise_rate(prev: ErrorReport, report: ErrorReport, attr: str) -> float | None:
    """log(e_prev / e) / log(h_prev / h) for the error attr, None if either is missing."""
    e0, e1 = getattr(prev, attr), getattr(report, attr)
    if e0 is None or e1 is None:
        return None
    return float(np.log(e0 / e1) / np.log(prev.h / report.h))


def fit_rates(reports) -> dict:
    """Slopes of log(err) vs log(h) for each norm present in the reports."""
    if len(reports) < 3:
        raise DegenerateFit(f"need at least 3 levels, got {len(reports)}")
    hs = np.array([r.h for r in reports])
    if not np.all(np.diff(hs) < 0):
        raise DegenerateFit("mesh sizes must be strictly decreasing")
    out = {}
    for norm, attr in (("l2", "err_l2"), ("h1", "err_h1"), ("lambda", "err_lambda"), ("triple", "triple")):
        errs = [getattr(r, attr) for r in reports]
        if any(e is None for e in errs):
            continue
        errs = np.array(errs, dtype=float)
        if np.any(errs <= 1e-14):
            raise DegenerateFit(f"{norm} error at/below 1e-14: rate undefined")
        slope = np.polyfit(np.log(hs[-3:]), np.log(errs[-3:]), 1)[0]
        out[norm] = RateFit(last3=float(slope))
    return out


# An eigenvalue at most this fraction of the largest counts as kernel.
KERNEL_RTOL = 1e-10


def infsup_diagnostic(V: PrimalSpace, Lam: MultiplierSpace) -> tuple:
    """(kernel, sigma): the coupling B's kernel dimension and its smallest
    generalized singular value above that kernel.

    The squared values are the eigenvalues of B N^{-1} B^T against the scaled
    multiplier mass h M_Lam, where N = K + M_bnd / h realizes the primal norm
    ||grad v|| + ||h^{-1/2} v||_bnd.  kernel counts those at most KERNEL_RTOL
    times the largest; an inf-sup stable pairing has none.  Dense; restricted
    to coarse levels.
    """
    if V.dof_count > 5000:
        raise TooLarge(f"inf-sup diagnostic is coarse-level only ({V.dof_count} dofs)")
    Bd = coupling_matrix(V, Lam).toarray()
    h = V.mesh.h
    n, dofs = V.dof_count, V.dof_table
    K = _scatter((n, n), stiffness_matrix(V), dofs, dofs)
    N = (K + boundary_mass_primal(V) / h).toarray()
    X = scipy.linalg.solve(N, Bd.T, assume_a="pos")
    G = Bd @ X
    M = h * np.diag(Lam.mass_matrix_diagonal())
    eig = scipy.linalg.eigh(G, M, eigvals_only=True)
    kernel = int(np.count_nonzero(eig <= KERNEL_RTOL * eig[-1]))
    sigma = float(np.sqrt(eig[kernel])) if kernel < eig.size else 0.0
    return kernel, sigma


def geometry_report(mesh: Mesh, domain) -> tuple:
    """(delta_h, normal_dev): worst |rho_h| and worst |n_h - n(p_h)|."""
    facets = _facet_geometry(mesh)
    n_exact = geo.exact_normal(domain, facets.pullback)
    dev = np.linalg.norm(n_exact - facets.n_h[:, None, :], axis=2)
    return float(np.max(np.abs(facets.rho))), float(np.max(dev))


def error_report(u_field, lambda_field, domain) -> ErrorReport:
    """Assemble the full per-level record for a solved problem."""
    mesh = u_field.space.mesh
    err_l2, err_h1 = l2_h1_errors(u_field, domain)
    saddle = lambda_field is not None
    err_lam = multiplier_error(lambda_field, domain) if saddle else None
    dofs_lam = lambda_field.space.dof_count if saddle else 0
    triple = error_triple_norm(u_field, err_lam, domain)
    delta_h, normal_dev = geometry_report(mesh, domain)
    return ErrorReport(
        h=mesh.h,
        nno=mesh.nno,
        dofs_u=u_field.space.dof_count,
        dofs_lambda=dofs_lam,
        err_l2=err_l2,
        err_h1=err_h1,
        err_lambda=err_lam,
        triple=triple,
        delta_h=delta_h,
        normal_dev=normal_dev,
    )
