"""Parity check of dof tables, assembled systems and error norms.

    python tools/parity.py save ref.npz      # in the reference checkout
    python tools/parity.py compare ref.npz   # in the changed checkout

save writes, for P1-P3 on a ring and a 4x4 triangle square and Q1 on the
ellipse staircase and a 4x4 quad square: the volume quadrature points of
the error norms (Mesh.to_physical of that rule) with the domain's u_exact,
grad_u_exact and f_rhs at them, and, enriched and not, the reference basis
tables (V.basis values and gradients at that volume rule, as
`basis.volume.*`, and at the facet Gauss points of every local edge, as
`basis.facet.*`; a change of the basis shows as its own key, not only
through the matrices), the dof tables, every assembled matrix and
right-hand side (bvc, unmodified, taylor, nitsche: each System's A, the
matrix the solver factors, as `<method>.A` and its rhs, and a multiplier
system's K, B, D and Bt_corr blocks) with the solution solve returns (NaN
where the solver raises), a load vector, the primal boundary mass and the
error_report of a fixed random field.  It also saves, per branch of run_preset(name,
levels=2) for q1-ellipse, p3-ring and unstable-pairing, each ErrorReport
field over the levels (`preset-<name>/<method>.<field>`, NaN at a failed
level or a None field) and the failed levels (`<method>.failed`), so a
change to the study's level loop shows its drift per branch and per field.
compare rebuilds the same arrays with the bvcfem next to
this script and prints the max relative difference of each, max|new - ref|
/ max|ref|; a matrix, saved as its CSR indptr/indices/data and shape, is
compared as one matrix, so an exact zero stored on one side and absent on
the other reads no drift.  A system's right-hand side is one key (its
rhs), so a block of it that is pure roundoff, as the ring's multiplier
load is where u_exact vanishes, is scaled by the whole vector and does not
read as drift.  Every array indexed by V's dofs is saved in a canonical
order, V's dofs ranked by their first slot in V.dof_table read cell by
cell: the dof table as those ranks, the load, the boundary mass, the u
part of each solution, and the random field, drawn in that order.  A
renumbering of V's dofs then reads no drift, while any change of a value
still does; the condensed systems are saved as they are, over the
retained dofs.  0 on every key means bit-identical results,
and the `.solution` lines show the solver's drift per system.  It exits 1
if a key is missing, changed shape or drifts by more than DRIFT_BOUND.

Keys are added and removed as the program changes.  To compare across such
a change, make the reference save by copying this script into a checkout
of the reference commit and running save there, so that both sides write
the same keys; the script must then read only names that both checkouts have.
A save made by an older copy of this script, without the `<method>.A` or
`basis.*` keys, reads them as missing.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bvcfem import (  # noqa: E402
    ErrorReport,
    SolutionField,
    SolverError,
    assemble_nitsche,
    assemble_saddle,
    boundary_mass_primal,
    build_annulus_mesh,
    build_multiplier_space,
    build_primal_space,
    build_square_mesh,
    build_staircase_mesh,
    error_report,
    load_vector,
    make_ellipse_domain,
    make_ring_domain,
    make_square_domain,
    precompute_boundary_geometry,
    run_preset,
    solve,
)
from bvcfem.mesh import REFERENCE_CELLS  # noqa: E402
from bvcfem.spaces import quadrature  # noqa: E402

MESHES = {
    "ring": (lambda d: build_annulus_mesh(32, 8), make_ring_domain, (1, 2, 3)),
    "staircase": (lambda d: build_staircase_mesh(32, d), make_ellipse_domain, (1,)),
    "square": (lambda d: build_square_mesh(4, "triangle"), make_square_domain, (1, 2, 3)),
    "square-quad": (lambda d: build_square_mesh(4, "quad"), make_square_domain, (1,)),
}
PRESET_LADDERS = ("q1-ellipse", "p3-ring", "unstable-pairing")
PRESET_LEVELS = 2


# The roundoff a reordered but equivalent computation may leave, relative.
DRIFT_BOUND = 1e-10


def _load(p):
    return np.cos(3.0 * p[..., 0]) + p[..., 1] ** 2


CSR = (".indptr", ".indices", ".data", ".shape")


def _put_matrix(out, key, A):
    A = A.tocsr()
    for part, array in zip(CSR, (A.indptr, A.indices, A.data, np.array(A.shape))):
        out[key + part] = array


def _canonical_order(V) -> np.ndarray:
    """V's dofs ordered by their first slot in V.dof_table, cell by cell."""
    _, first = np.unique(V.dof_table[V.dof_table >= 0], return_index=True)
    return np.argsort(first)


def _put_solution(out, key, system, order):
    """The coefficients solve returns over every dof (u in the canonical
    order, then lambda), so that a system's condensed blocks may change
    shape while its solution stays comparable."""
    try:
        u, lam = solve(system)
        z = np.concatenate([u.coefficients[order], [] if lam is None else lam.coefficients])
    except SolverError:
        spaces = (system.V, system.Lam)
        z = np.full(sum(s.dof_count for s in spaces if s is not None), np.nan)
    out[f"{key}.solution"] = z


def _put_ladders(out):
    """Each branch's ErrorReport fields per level and its failed levels."""
    for name in PRESET_LADDERS:
        result, _ = run_preset(name, levels=PRESET_LEVELS)
        for branch in (result, result.companion):
            key = f"preset-{name}/{branch.config.method}"
            records = dict(branch.records)
            for field in fields(ErrorReport):
                values = [getattr(records.get(lv), field.name, None) for lv in range(PRESET_LEVELS)]
                out[f"{key}.{field.name}"] = np.array(
                    [np.nan if v is None else v for v in values], dtype=float
                )
            out[f"{key}.failed"] = np.array([level for level, _ in branch.failures])


def arrays() -> dict:
    """Every compared array, keyed '<mesh>-p<k>[-plain]/<name>'."""
    out = {}
    for name, (build, make_domain, degrees) in MESHES.items():
        domain = make_domain()
        for k in degrees:
            mesh = precompute_boundary_geometry(build(domain), domain, 2 * k + 2)
            volume = quadrature(mesh.cell_kind, 2 * k + 4).points
            X = mesh.to_physical(volume)
            ref, edges = REFERENCE_CELLS[mesh.cell_kind]
            a, b = ref[np.array(edges).T]
            s = mesh.boundary_facets.s[None, :, None]
            tables = {"volume": volume, "facet": a[:, None, :] + s * (b - a)[:, None, :]}
            out[f"{name}-p{k}/volume_points"] = X
            for data in ("u_exact", "grad_u_exact", "f_rhs"):
                out[f"{name}-p{k}/{data}"] = getattr(domain, data)(X)
            for enrich in (True, False):
                tag = f"{name}-p{k}" + ("" if enrich else "-plain")
                V = build_primal_space(mesh, k, enrich)
                Lam = build_multiplier_space(mesh, k - 1)
                order = _canonical_order(V)
                rank = np.argsort(order)
                out[f"{tag}/dof_table"] = np.where(V.dof_table >= 0, rank[V.dof_table], -1)
                out[f"{tag}/counts"] = np.array([V.dof_count])
                for where, pts in tables.items():
                    vals, grads = V.basis(pts)
                    out[f"{tag}/basis.{where}.values"] = vals
                    out[f"{tag}/basis.{where}.gradients"] = grads
                systems = [assemble_saddle(V, Lam, domain, m) for m in ("bvc", "unmodified", "taylor")]
                for system in [*systems, assemble_nitsche(V, domain, 10.0 * k * k)]:
                    key = f"{tag}/{system.method}"
                    for block in ("K", "B", "D", "Bt_corr") if system.Lam is not None else ():
                        if getattr(system, block) is not None:
                            _put_matrix(out, f"{key}.{block}", getattr(system, block))
                    _put_matrix(out, f"{key}.A", system.A)
                    out[f"{key}.rhs"] = system.rhs
                    _put_solution(out, key, system, order)
                out[f"{tag}/load"] = load_vector(V, _load)[order]
                _put_matrix(out, f"{tag}/boundary_mass", boundary_mass_primal(V)[order][:, order])
                rng = np.random.default_rng(1234)
                u = SolutionField(V, rng.standard_normal(V.dof_count)[rank])
                lam = SolutionField(Lam, rng.standard_normal(Lam.dof_count))
                for label, lf in (("saddle", lam), ("nitsche", None)):
                    report = error_report(u, lf, domain)
                    out[f"{tag}/error_report.{label}"] = np.array(
                        [np.nan if v is None else v for v in vars(report).values()], dtype=float
                    )
    _put_ladders(out)
    return out


def _matrices(arrays: dict) -> dict:
    """arrays with each saved CSR matrix joined from its four keys into one."""
    out = dict(arrays)
    for key in [k.removesuffix(".shape") for k in arrays if k.endswith(".shape")]:
        indptr, indices, data, shape = (out.pop(key + part) for part in CSR)
        out[key] = sp.csr_matrix((data, indices, indptr), shape=tuple(shape))
    return out


def compare(ref: dict, new: dict) -> int:
    ref, new = _matrices(ref), _matrices(new)
    status = 0
    for key in sorted(ref.keys() | new.keys()):
        if key not in ref or key not in new:
            print(f"{key}: only in {'reference' if key in ref else 'this checkout'}")
            status = 1
            continue
        a, b = ref[key], new[key]
        if not sp.issparse(a):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} -> {b.shape}")
            status = 1
            continue
        if sp.issparse(a):
            diff, scale = (np.abs(m.data).max(initial=0.0) for m in (b - a, a))
        else:
            same_nan = np.isnan(a) & np.isnan(b)
            diff = np.where(same_nan, 0.0, np.abs(a - b)).max(initial=0.0)
            scale = np.abs(np.where(same_nan, 0.0, a)).max(initial=0.0)
        drift = diff / scale if scale > 0 else diff
        print(f"{key}: {drift:.3g}")
        if not drift <= DRIFT_BOUND:
            status = 1
    return status


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("save", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    command, path = argv
    if command == "save":
        np.savez(path, **arrays())
        return 0
    with np.load(path) as ref:
        return compare(dict(ref), arrays())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
