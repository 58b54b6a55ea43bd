"""Spans around the pipeline's layer boundaries, installed from outside src/.

The traced run replaces module attributes that the study pipeline looks up at
call time (``bvcfem.study.solve``, ``bvcfem.solver.splu`` ...) with wrappers
that record a span per call: name, start, end, parent span, level and branch.
Spans stay in memory; ``ladder_metrics`` turns them into per-layer self times
and ``level_table`` into per-level self times for the trace file.

Work the tracer itself adds (the residual and pivot checks) runs in
``tracing.health`` spans, so it is charged to no layer of the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np


class TracingError(Exception):
    """A wrapped name is missing, a span never fired, or spans do not add up."""


ROOT = "ladder"
HEALTH = "tracing.health"

# Counts taken at the finest level of the workload's first branch.
FINEST_COUNTS = (
    "mesh.cells", "mesh.boundary_facets", "spaces.dofs_u", "spaces.dofs_lambda",
    "assembly.nnz", "solver.lu_nnz", "solver.triangular_solves",
    "solver.refinements", "analysis.l2_h1_calls",
)
# geometry.rays is summed over every level and branch of the workload.
EXACT_COUNTS = FINEST_COUNTS + ("geometry.rays",)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    branch: str | None
    level: int | None
    start: float
    end: float = float("nan")


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    branch: str | None = None
    level: int | None = None
    fired: dict = field(default_factory=dict)       # target name -> calls
    counts: dict = field(default_factory=dict)      # (branch, level) -> {name: n}
    relres: list = field(default_factory=list)
    pivot_ratios: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name):
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self.stack[-1].id if self.stack else None,
            branch=self.branch,
            level=self.level,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self.stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()

    def count(self, name, n=1):
        slot = self.counts.setdefault((self.branch, self.level), {})
        slot[name] = slot.get(name, 0) + n


class _ObservedLU:
    """SuperLU proxy that counts triangular solves and checks their residual.

    The residual is taken on the permuted system the solver factored, which
    has the same norm as the residual of the original system.
    """

    def __init__(self, lu, A, tracer):
        self._lu, self._A, self._tracer = lu, A, tracer
        self._b = None
        self._x = None

    def __getattr__(self, name):
        return getattr(self._lu, name)

    @property
    def U(self):
        U = self._lu.U
        with self._tracer.span(HEALTH):
            anorm = float(np.max(np.abs(self._A.data)))
            self._tracer.pivot_ratios.append(float(np.min(np.abs(U.diagonal()))) / anorm)
        return U

    def solve(self, rhs, *args, **kwargs):
        x = self._lu.solve(rhs, *args, **kwargs)
        tracer = self._tracer
        tracer.count("solver.triangular_solves")
        with tracer.span(HEALTH):
            if self._b is None:
                self._b, self._x = np.array(rhs, dtype=float), x.copy()
            else:
                # A second solve is the refinement step: its rhs is the residual.
                tracer.count("solver.refinements")
                self._x = self._x + x
            bnorm = float(np.linalg.norm(self._b))
            if bnorm > 0.0:
                tracer.relres.append(
                    float(np.linalg.norm(self._b - self._A @ self._x)) / bnorm
                )
        return x


def _mesh_counts(tracer, args, mesh):
    tracer.count("mesh.cells", mesh.num_cells)
    tracer.count("mesh.boundary_facets", len(mesh.boundary_facets))
    return mesh


def _ray_counts(tracer, args, rho):
    tracer.count("geometry.rays", len(args["points"]))
    return rho


def _space_counts(name):
    def observe(tracer, args, space):
        tracer.count(name, space.dof_count)
        return space

    return observe


def _system_counts(tracer, args, system):
    row2 = system.Bt_corr if system.Bt_corr is not None else system.B
    tracer.count("assembly.nnz", system.K.nnz + system.B.nnz + row2.nnz + system.D.nnz)
    return system


def _l2_h1_counts(tracer, args, errors):
    tracer.count("analysis.l2_h1_calls")
    return errors


def _observe_lu(tracer, args, lu):
    tracer.count("solver.matrix_nnz", args["A"].nnz)
    tracer.count("solver.lu_nnz", lu.nnz)
    return _ObservedLU(lu, args["A"], tracer)


# (module, attribute, metric charged with the span's self time, observer).
# Attributes written "ASSEMBLERS[bvc]" are entries of a module-level dict.
# An observer records counts from the call's arguments and result, outside
# the span, and returns the result the caller gets.
TARGETS = (
    ("bvcfem.study", "run_level", "study.self_s", None),
    ("bvcfem.study", "build_annulus_mesh", "mesh.build_s", _mesh_counts),
    ("bvcfem.study", "build_staircase_mesh", "mesh.build_s", _mesh_counts),
    ("bvcfem.study", "precompute_boundary_geometry", "mesh.facet_geometry_s", None),
    ("bvcfem.geometry", "ray_distance_batch", "geometry.ray_cast_s", _ray_counts),
    ("bvcfem.study", "build_primal_space", "spaces.primal_s", _space_counts("spaces.dofs_u")),
    ("bvcfem.study", "build_multiplier_space", "spaces.multiplier_s",
     _space_counts("spaces.dofs_lambda")),
    ("bvcfem.study", "ASSEMBLERS[bvc]", "assembly.facet_s", _system_counts),
    ("bvcfem.study", "ASSEMBLERS[unmodified]", "assembly.facet_s", _system_counts),
    ("bvcfem.study", "ASSEMBLERS[taylor]", "assembly.facet_s", _system_counts),
    ("bvcfem.assembly", "stiffness_matrix", "assembly.stiffness_s", None),
    ("bvcfem.assembly", "load_vector", "assembly.load_s", None),
    ("bvcfem.study", "solve", "solver.self_s", None),
    ("bvcfem.solver", "reverse_cuthill_mckee", "solver.order_s", None),
    ("bvcfem.solver", "splu", "solver.factor_s", _observe_lu),
    ("bvcfem.study", "error_report", "analysis.error_report_s", None),
    ("bvcfem.analysis", "l2_h1_errors", "analysis.l2_h1_s", _l2_h1_counts),
    ("bvcfem.analysis", "multiplier_error", "analysis.boundary_norms_s", None),
    ("bvcfem.analysis", "error_triple_norm", "analysis.boundary_norms_s", None),
    ("bvcfem.analysis", "geometry_report", "analysis.boundary_norms_s", None),
)
SPAN_METRIC = {f"{mod}.{attr}": metric for mod, attr, metric, _ in TARGETS}
SPAN_METRIC[ROOT] = "study.self_s"
SPAN_METRIC[HEALTH] = "tracing.health_s"
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))


def _wrap(name, fn, observe, tracer):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.fired[name] = tracer.fired.get(name, 0) + 1
        if name == "bvcfem.study.run_level":
            bound = signature.bind(*args, **kwargs).arguments
            tracer.branch, tracer.level = bound["config"].method, bound["level"]
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if observe is None:
            return out
        return observe(tracer, signature.bind(*args, **kwargs).arguments, out)

    return wrapper


def _resolve(modname, attr):
    """(container, key, current value) for a target, or TracingError."""
    import importlib

    module = importlib.import_module(modname)
    if attr.endswith("]"):
        dict_name, key = attr[:-1].split("[")
        table = getattr(module, dict_name, None)
        if not isinstance(table, dict) or key not in table:
            raise TracingError(f"wrapped name {modname}.{attr} no longer exists")
        return table, key, table[key]
    if not callable(getattr(module, attr, None)):
        raise TracingError(f"wrapped name {modname}.{attr} no longer exists")
    return module, attr, getattr(module, attr)


@contextlib.contextmanager
def installed(tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    resolved = [(f"{m}.{a}", observe, *_resolve(m, a)) for m, a, _, observe in targets]
    try:
        for name, observe, container, key, fn in resolved:
            wrapped = _wrap(name, fn, observe, tracer)
            if isinstance(container, dict):
                container[key] = wrapped
            else:
                setattr(container, key, wrapped)
        yield tracer
    finally:
        for _, _, container, key, fn in resolved:
            if isinstance(container, dict):
                container[key] = fn
            else:
                setattr(container, key, fn)


def required_targets(domain, methods):
    """Targets a ladder on this domain with these methods must reach."""
    skip = {"ring": "build_staircase_mesh", "ellipse": "build_annulus_mesh"}[domain]
    out = []
    for mod, attr, _, _ in TARGETS:
        if attr == skip:
            continue
        if attr.startswith("ASSEMBLERS[") and attr[11:-1] not in methods:
            continue
        out.append(f"{mod}.{attr}")
    return out


def check_fired(tracer, required):
    missing = [name for name in required if not tracer.fired.get(name)]
    if missing:
        raise TracingError(f"spans never fired: {', '.join(missing)}")


def self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def level_table(spans):
    """{branch: {level: {metric: self seconds}}} for the trace file."""
    table = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s.level is None:
            continue
        row = table.setdefault(s.branch, {}).setdefault(str(s.level), {})
        metric = SPAN_METRIC[s.name]
        row[metric] = row.get(metric, 0.0) + self_s
    return table


def ladder_metrics(tracer, first_branch, finest_level):
    """Per-layer metrics of one traced ladder, after the accounting checks."""
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != ROOT:
        raise TracingError(f"expected one root '{ROOT}' span, got {[s.name for s in roots]}")
    ladder_s = roots[0].end - roots[0].start
    selfs = self_times(spans)
    if min(selfs) < -1e-6:
        raise TracingError(f"negative self time {min(selfs):.3e} s: overlapping spans")
    metrics = dict.fromkeys(TIME_METRICS, 0.0)
    for s, self_s in zip(spans, selfs):
        metrics[SPAN_METRIC[s.name]] += self_s
    total = sum(metrics.values())
    if abs(total - ladder_s) > 1e-6 * max(1.0, ladder_s):
        raise TracingError(f"self times sum to {total:.6f} s, traced ladder took {ladder_s:.6f} s")

    finest = tracer.counts.get((first_branch, finest_level), {})
    for name in FINEST_COUNTS:
        metrics[name] = finest.get(name, 0)
    metrics["geometry.rays"] = sum(c.get("geometry.rays", 0) for c in tracer.counts.values())
    if finest.get("solver.matrix_nnz") != finest.get("assembly.nnz"):
        raise TracingError(
            f"solver saw nnz {finest.get('solver.matrix_nnz')}, "
            f"assembly produced {finest.get('assembly.nnz')}"
        )
    metrics["solver.lu_fill"] = metrics["solver.lu_nnz"] / metrics["assembly.nnz"]
    metrics["solver.relres"] = max(tracer.relres)
    metrics["solver.min_pivot_ratio"] = min(tracer.pivot_ratios)
    return ladder_s, metrics
