"""Convergence-study driver and command-line interface.

Registers the shipped experiments (p2-ring, p3-ring, unstable-pairing,
q1-ellipse, nitsche-p2-ring), runs mesh ladders end to end, fits rates, and
emits CSV tables, self-contained SVG log-log plots and solution elevations.

Each decision has one home: build_level is the ladder recipe (mesh, facet
geometry, spaces) shared by run_level and check_unstable's inf-sup
diagnostic; DOMAINS, ELEMENT_ORDER and METHODS are the accepted settings,
checked only by validate_config and listed in --help;
analysis.pairwise_rate is the one rate formula behind the fits, the CSV
and the printed table.

One level loop runs every ladder.  A preset's methods (main and
comparison) are solved level by level on one shared Rung: its mesh,
spaces and primal assembly are built once, by the first method's
run_level, the companion reuses the first solve's column orders, and
nothing of it outlives its level; the exact data of its error reports go
with its V (analysis.exact_data).  run_study is the
one-method case.  The records, and so the CSVs, are the same as from one
ladder per method.  A Preset is its config, its comparison method and
its check; run_preset runs every preset the same way, the ladder and
then the check.
"""

from __future__ import annotations

import argparse
import functools
import numbers
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .analysis import (
    DegenerateFit,
    error_report,
    fit_rates,
    infsup_diagnostic,
    pairwise_rate,
)
from .assembly import (
    SADDLE_METHODS,
    IoError,
    PrimalAssembly,
    assemble_nitsche,
    assemble_primal,
    assemble_saddle,
    dump_system,
)
from .geometry import make_ellipse_domain, make_ring_domain
from .mesh import build_annulus_mesh, build_staircase_mesh, precompute_boundary_geometry
from .solver import ColumnOrder, SingularSystem, solve
from .spaces import MultiplierSpace, PrimalSpace, build_multiplier_space, build_primal_space


class ConfigError(Exception):
    pass


DOMAINS = {"ring": make_ring_domain, "ellipse": make_ellipse_domain}
ELEMENT_ORDER = {"p1": 1, "p2": 2, "p3": 3, "q1": 1}
METHODS = (*SADDLE_METHODS, "nitsche")
ASSEMBLERS = {m: functools.partial(assemble_saddle, method=m) for m in SADDLE_METHODS}
CSV_HEADER = (
    "level,h,nno,dofs_u,dofs_lambda,err_l2,err_h1,err_lambda,"
    "rate_l2,rate_h1,rate_lambda,delta_h,normal_dev"
)


@dataclass
class StudyConfig:
    domain: str = "ring"
    element: str = "p2"
    method: str = "bvc"
    multiplier_degree: int | None = None  # None means element order - 1
    enrich: bool = True
    levels: int = 5
    gamma0: float | None = None
    dump_prefix: str | None = None

    def order(self) -> int:
        return ELEMENT_ORDER[self.element]

    def mult_degree(self) -> int:
        return self.order() - 1 if self.multiplier_degree is None else self.multiplier_degree


def validate_config(config: StudyConfig) -> None:
    for key, accepted in (("domain", DOMAINS), ("element", ELEMENT_ORDER), ("method", METHODS)):
        value = getattr(config, key)
        if value not in accepted:
            raise ConfigError(f"unknown {key} {value!r}; have {', '.join(accepted)}")
    home = "ellipse" if config.element == "q1" else "ring"
    if config.domain != home:
        raise ConfigError(f"{config.element} runs on the {home} only")
    unread = "multiplier_degree" if config.method == "nitsche" else "gamma0"
    if getattr(config, unread) is not None:
        raise ConfigError(f"{unread} is not used by method {config.method}")
    for key in ("levels", "multiplier_degree", "gamma0"):
        value = getattr(config, key)
        if isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    if not isinstance(config.levels, numbers.Integral):
        raise ConfigError(f"levels must be an integer, got {config.levels!r}")
    if config.levels < 1:
        raise ConfigError("levels must be positive")
    degree = config.multiplier_degree
    if degree is not None and not isinstance(degree, numbers.Integral):
        raise ConfigError(f"multiplier_degree must be an integer or None, got {degree!r}")
    if config.mult_degree() < 0:
        raise ConfigError("multiplier degree must be >= 0")
    if not isinstance(config.enrich, bool):
        raise ConfigError(f"enrich must be True or False, got {config.enrich!r}")
    gamma0 = config.gamma0
    if gamma0 is not None and not (isinstance(gamma0, numbers.Real) and 0 < gamma0 < np.inf):
        raise ConfigError(f"gamma0 must be a positive finite number, got {gamma0!r}")


@dataclass
class StudyResult:
    config: StudyConfig
    records: list = field(default_factory=list)   # (level, ErrorReport)
    failures: list = field(default_factory=list)  # (level, message)
    rates: dict | None = None
    elevation: np.ndarray | None = None           # (nno, 3) at finest level, None if it failed
    companion: "StudyResult | None" = None

    @property
    def reports(self):
        return [r for _, r in self.records]


def build_level(config: StudyConfig, level: int, domain):
    """One rung's spaces (V, Lam), on the mesh with its facet geometry.

    Level l refines the coarsest mesh by 2^l: n = 16 * 2^l cells around the
    ring (by n/4 across it) or across the ellipse's staircase grid.  Facets
    carry 2k+2 Gauss points; Lam is None for Nitsche.
    """
    k = config.order()
    n = 16 * 2**level
    if config.domain == "ring":
        mesh = build_annulus_mesh(n, n // 4)
    else:
        mesh = build_staircase_mesh(n, domain)
    mesh = precompute_boundary_geometry(mesh, domain, 2 * k + 2)
    V = build_primal_space(mesh, k, config.enrich)
    if config.method == "nitsche":
        return V, None
    return V, build_multiplier_space(mesh, config.mult_degree())


@dataclass
class Rung:
    """What the methods solved on one rung of the ladder share.

    The first method's run_level builds it: V and Lam on the mesh and the
    multiplier methods' primal assembly.  While a method is pending after
    the first, order keeps the first solve's orders, the mesh pre-order and
    the column order of its diagonal-pivot factorization (two arrays, never
    the factorization), for the companions to reuse.  pending counts the
    methods yet to assemble; the last one drops the primal assembly and the
    orders before its solve.
    """

    pending: int
    V: PrimalSpace | None = None
    Lam: MultiplierSpace | None = None
    primal: PrimalAssembly | None = None
    order: ColumnOrder | None = None


def run_level(config: StudyConfig, level: int, domain, rung: Rung):
    """One method on one rung of the ladder: assembly, solve, report.

    The rung's mesh, spaces and primal assembly are built on its first call.
    """
    if rung.V is None:
        rung.V, rung.Lam = build_level(config, level, domain)
        if rung.Lam is not None:
            rung.primal = assemble_primal(rung.V, rung.Lam, domain)
    V = rung.V
    if config.method == "nitsche":
        k = config.order()
        gamma0 = config.gamma0 if config.gamma0 is not None else 10.0 * k * k
        system = assemble_nitsche(V, domain, gamma0)
    else:
        system = ASSEMBLERS[config.method](V, rung.Lam, domain, primal=rung.primal)
    rung.pending -= 1
    order = rung.order
    if not rung.pending:
        rung.primal = rung.order = None
    elif order is None:
        order = rung.order = ColumnOrder()
    if config.dump_prefix:
        dump_system(system, f"{config.dump_prefix}-L{level}")
    u, lam = solve(system, order)
    return u, lam, error_report(u, lam, domain)


def _solve_on(result: StudyResult, level: int, domain, rung: Rung) -> None:
    """Solve result's method on the rung; record its report or its failure."""
    try:
        u, _, report = run_level(result.config, level, domain, rung)
    except SingularSystem as exc:
        result.failures.append((level, str(exc)))
        return
    result.records.append((level, report))
    if level == result.config.levels - 1:
        result.elevation = np.column_stack([u.space.mesh.vertices, u.vertex_values()])


def _run_ladder(config: StudyConfig, methods) -> list:
    """One StudyResult per method of config's ladder, run level by level:
    each rung is built once and every method is solved on it, so nothing
    of a rung outlives it.  Singular levels are recorded, not fatal."""
    configs = [replace(config, method=method) for method in methods]
    for c in configs:
        validate_config(c)
    domain = DOMAINS[config.domain]()
    results = [StudyResult(config=c) for c in configs]
    for level in range(config.levels):
        rung = Rung(pending=len(results))
        for result in results:
            _solve_on(result, level, domain, rung)
    for result in results:
        if len(result.reports) >= 3:
            try:
                result.rates = fit_rates(result.reports)
            except DegenerateFit:
                result.rates = None
    return results


def run_study(config: StudyConfig) -> StudyResult:
    """Run the configured ladder; singular levels are recorded, not fatal."""
    return _run_ladder(config, [config.method])[0]


# --- output -----------------------------------------------------------------


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


def emit_csv(result: StudyResult, path) -> None:
    """One row per solved level, pairwise rates, 17 significant digits."""
    if not result.records:
        raise IoError("study produced no solved levels; nothing to write")
    try:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            prev = None
            for level, r in result.records:
                rates = [
                    None if prev is None else pairwise_rate(prev, r, attr)
                    for attr in ("err_l2", "err_h1", "err_lambda")
                ]
                fields = [
                    str(level), _fmt(r.h), str(r.nno), str(r.dofs_u), str(r.dofs_lambda),
                    _fmt(r.err_l2), _fmt(r.err_h1), _fmt(r.err_lambda),
                    *map(_fmt, rates), _fmt(r.delta_h), _fmt(r.normal_dev),
                ]
                fh.write(",".join(fields) + "\n")
                prev = r
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def expected_rates(config: StudyConfig) -> dict:
    """Reference slopes for plot annotation: the order k, capped by the
    boundary defect.  The facets lie delta = O(h^p0) off the boundary, p0 = 2
    on the ring and 1 on the staircase; the corrected methods square that, so
    p = p0 unmodified and 2 p0 corrected, and L2 = min(k + 1, p),
    H1 = min(k, p - 1/2), lambda = min(k, p - 1)."""
    k = float(config.order())
    p = (2.0 if config.domain == "ring" else 1.0) * (1 if config.method == "unmodified" else 2)
    return {"l2": min(k + 1, p), "h1": min(k, p - 0.5), "lambda": min(k, p - 1)}


_COLORS = ("#1f6eb4", "#d2422d", "#2d8f57", "#8451a1")
_NORM_LABEL = {"l2": "L2 error", "h1": "H1 seminorm error", "lambda": "multiplier error"}
_NORM_ATTR = {"l2": "err_l2", "h1": "err_h1", "lambda": "err_lambda"}


def _svg_loglog(path, title, ylabel, series, ref_slope=None):
    """Minimal self-contained SVG log-log plot with a reference triangle."""
    W, H = 640, 480
    ml, mr, mt, mb = 72, 24, 42, 56
    xs = np.log10(np.concatenate([s["h"] for s in series]))
    ys = np.log10(np.concatenate([s["err"] for s in series]))
    xlo, xhi = xs.min(), xs.max()
    ylo, yhi = ys.min(), ys.max()
    xpad = 0.1 * max(xhi - xlo, 1e-9)
    ypad = 0.1 * max(yhi - ylo, 1e-9)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def X(lx):
        return ml + (lx - xlo) / (xhi - xlo) * (W - ml - mr)

    def Y(ly):
        return H - mb - (ly - ylo) / (yhi - ylo) * (H - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.1f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # frame
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{W-ml-mr}" height="{H-mt-mb}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    # decade ticks and grid
    for p in range(int(np.floor(xlo)), int(np.ceil(xhi)) + 1):
        if xlo <= p <= xhi:
            x = X(p)
            out.append(
                f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{H-mb}" '
                f'stroke="#cccccc" stroke-width="0.5"/>'
            )
            out.append(
                f'<text x="{x:.1f}" y="{H-mb+18}" text-anchor="middle">1e{p}</text>'
            )
    for p in range(int(np.floor(ylo)), int(np.ceil(yhi)) + 1):
        if ylo <= p <= yhi:
            y = Y(p)
            out.append(
                f'<line x1="{ml}" y1="{y:.1f}" x2="{W-mr}" y2="{y:.1f}" '
                f'stroke="#cccccc" stroke-width="0.5"/>'
            )
            out.append(
                f'<text x="{ml-6}" y="{y+4:.1f}" text-anchor="end">1e{p}</text>'
            )
    out.append(
        f'<text x="{(ml+W-mr)/2:.1f}" y="{H-12}" text-anchor="middle">h</text>'
    )
    out.append(
        f'<text x="16" y="{(mt+H-mb)/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt+H-mb)/2:.1f})">{ylabel}</text>'
    )
    # data series
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{X(np.log10(h)):.2f},{Y(np.log10(e)):.2f}"
            for h, e in zip(s["h"], s["err"])
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for h, e in zip(s["h"], s["err"]):
            out.append(
                f'<circle cx="{X(np.log10(h)):.2f}" cy="{Y(np.log10(e)):.2f}" '
                f'r="3.4" fill="{color}"/>'
            )
        out.append(
            f'<line x1="{W-mr-150}" y1="{mt+16+16*i}" x2="{W-mr-122}" '
            f'y2="{mt+16+16*i}" stroke="{color}" stroke-width="1.6"/>'
        )
        out.append(
            f'<text x="{W-mr-116}" y="{mt+20+16*i}">{s["label"]}</text>'
        )
    # reference-slope triangle under the first series; a zero slope draws none
    if ref_slope:
        s0 = series[0]
        hs = np.asarray(s0["h"], dtype=float)
        es = np.asarray(s0["err"], dtype=float)
        i1 = len(hs) - 1
        lx2, lx1 = np.log10(hs[i1 - 1]), np.log10(hs[i1])
        ly1 = np.log10(es[i1]) - 0.35
        ly2 = ly1 + ref_slope * (lx2 - lx1)
        out.append(
            f'<polygon points="{X(lx1):.2f},{Y(ly1):.2f} {X(lx2):.2f},{Y(ly1):.2f} '
            f'{X(lx2):.2f},{Y(ly2):.2f}" fill="none" stroke="#555555" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{(X(lx1)+X(lx2))/2:.1f}" y="{Y(ly1)+14:.1f}" '
            f'text-anchor="middle" fill="#555555">1</text>'
        )
        out.append(
            f'<text x="{X(lx2)+6:.1f}" y="{(Y(ly1)+Y(ly2))/2:.1f}" '
            f'fill="#555555">{ref_slope:g}</text>'
        )
    out.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_plots(result: StudyResult, prefix) -> None:
    """SVG log-log plot per norm (companion overlaid) plus an elevation dump."""
    if not result.records:
        raise IoError("study produced no solved levels; nothing to plot")
    ref = expected_rates(result.config)
    for norm in ("l2", "h1", "lambda"):
        attr = _NORM_ATTR[norm]
        series = []
        for res in (result, result.companion):
            if res is None or not res.records:
                continue
            hs = [r.h for r in res.reports if getattr(r, attr) is not None]
            es = [getattr(r, attr) for r in res.reports if getattr(r, attr) is not None]
            if hs:
                series.append({"label": res.config.method, "h": hs, "err": es})
        if not series:
            continue
        _svg_loglog(
            f"{prefix}-{norm}.svg",
            f"{result.config.domain} {result.config.element}: {_NORM_LABEL[norm]}",
            _NORM_LABEL[norm],
            series,
            ref_slope=ref[norm],
        )
    if result.elevation is not None:
        path = f"{prefix}-elevation.txt"
        try:
            with open(path, "w") as fh:
                for x, y, u in result.elevation:
                    fh.write(f"{x:.17g} {y:.17g} {u:.17g}\n")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc


# --- presets ------------------------------------------------------------------


def check_rates(result: StudyResult, checks: dict) -> list:
    """Compare last-3 least-squares rates against declared windows."""
    msgs = []
    if result.failures:
        msgs.append(f"levels failed: {result.failures}")
    if result.rates is None:
        msgs.append("no rates could be fitted")
        return msgs
    for norm, (lo, hi) in checks.items():
        if norm not in result.rates:
            msgs.append(f"{norm}: no data")
            continue
        got = result.rates[norm].last3
        if not (lo <= got <= hi):
            msgs.append(f"{norm}: rate {got:.2f} outside [{lo}, {hi}]")
    return msgs


def check_unstable(result: StudyResult) -> list:
    """The unstable pairing's signature: an inf-sup kernel at level 0, a failed
    companion, and a corrected branch at L2 rate 3 with decreasing multiplier error."""
    msgs = check_rates(result, {"l2": (2.7, 3.3)})
    unmod = result.companion
    failed = bool(unmod and unmod.failures)
    if not failed and unmod is not None and unmod.rates and "l2" in unmod.rates:
        failed = unmod.rates["l2"].last3 < 0.5
    if not failed:
        msgs.append("unmodified branch did not exhibit the expected failure")
    config = result.config
    kernel, _ = infsup_diagnostic(*build_level(config, 0, DOMAINS[config.domain]()))
    if not kernel:
        msgs.append("the pairing has no inf-sup kernel at level 0")
    lam = [r.err_lambda for r in result.reports if r.err_lambda is not None]
    if len(lam) < 3 or not (lam[-3] > lam[-2] > lam[-1]):
        msgs.append("multiplier error not monotonically decreasing over last 3 levels")
    return msgs


@dataclass(frozen=True)
class Preset:
    config: StudyConfig
    check: Callable                # result -> messages of the failed checks
    comparison: str | None = None  # method overlaid for contrast


PRESETS = {
    "p2-ring": Preset(
        config=StudyConfig(domain="ring", element="p2", method="bvc"),
        comparison="unmodified",
        check=functools.partial(
            check_rates, checks={"l2": (2.8, 3.3), "h1": (1.8, 2.3), "lambda": (1.7, 2.3)}
        ),
    ),
    "p3-ring": Preset(
        config=StudyConfig(domain="ring", element="p3", method="bvc"),
        comparison="unmodified",
        check=functools.partial(
            check_rates, checks={"l2": (3.7, 4.3), "h1": (2.8, 3.3), "lambda": (2.6, 3.4)}
        ),
    ),
    "q1-ellipse": Preset(
        config=StudyConfig(domain="ellipse", element="q1", method="bvc"),
        comparison="unmodified",
        check=functools.partial(check_rates, checks={"l2": (1.7, 2.3), "h1": (0.8, 1.3)}),
    ),
    "unstable-pairing": Preset(
        config=StudyConfig(domain="ring", element="p2", method="bvc",
                           multiplier_degree=2, enrich=False),
        comparison="unmodified",
        check=check_unstable,
    ),
    "nitsche-p2-ring": Preset(
        config=StudyConfig(domain="ring", element="p2", method="nitsche"),
        check=functools.partial(check_rates, checks={"l2": (2.8, 3.3)}),
    ),
}


# Every preset's check holds from this many levels.  A shorter ladder fits
# its rates on coarse levels, where three presets read outside their windows.
PRESET_MIN_LEVELS = 4


def run_preset(name: str, levels: int | None = None) -> tuple:
    """Run a registered experiment; returns (result, check_messages)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    preset = PRESETS[name]
    config = preset.config if levels is None else replace(preset.config, levels=levels)
    methods = [m for m in (config.method, preset.comparison) if m is not None]
    result, *companion = _run_ladder(config, methods)
    result.companion = companion[0] if companion else None
    return result, preset.check(result)


# --- CLI ----------------------------------------------------------------------


_CONFIG_KEYS = {
    "preset", "domain", "element", "method", "levels", "gamma0",
    "multiplier_degree", "enrich", "out", "plots",
}
# A setting given by a flag alone is named by its flag, the others by their key.
_FLAG_ONLY = {"dump_prefix": "--dump-matrices"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_value(key, value: str):
    """The typed value of a setting given as text (config file or flag)."""
    try:
        if key in ("levels", "multiplier_degree"):
            return int(value)
        if key == "gamma0":
            return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if key == "enrich":
        if value.lower() not in _BOOLEANS:
            raise ConfigError(f"enrich must be one of {'/'.join(_BOOLEANS)}, got {value!r}")
        return _BOOLEANS[value.lower()]
    return value


def parse_config_file(path) -> dict:
    """key = value lines, '#' comments; unknown, repeated keys and bad values are errors.

    Values are returned as the strings in the file.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out, first_line = {}, {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (t.strip() for t in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        try:
            _config_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        out[key], first_line[key] = value, lineno
    return out


def _print_result(result: StudyResult, label: str) -> None:
    print(f"== {label} ==")
    for level, msg in result.failures:
        print(f"  level {level}: FAILED ({msg})")
    prev = None
    for level, r in result.records:
        line = (
            f"  level {level}: h={r.h:.5f} nno={r.nno} dofs={r.dofs_u}+{r.dofs_lambda}"
            f"  L2={r.err_l2:.3e}"
        )
        if prev is not None:
            line += f" ({pairwise_rate(prev, r, 'err_l2'):.2f})"
        line += f"  H1={r.err_h1:.3e}"
        if r.err_lambda is not None:
            line += f"  lam={r.err_lambda:.3e}"
        line += f"  delta_h={r.delta_h:.2e}"
        print(line)
        prev = r
    if result.rates:
        summary = "  rates (last-3 LS): " + "  ".join(
            f"{norm}={fit.last3:.2f}" for norm, fit in sorted(result.rates.items())
        )
        print(summary)


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with status 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="study",
        description="Run a convergence study of the boundary-corrected methods.",
    )
    parser.add_argument(
        "--preset",
        help=f"registered experiment ({', '.join(PRESETS)}); "
        "only --levels, --out and --plots may be given with it",
    )
    parser.add_argument("--domain", help=f"one of {', '.join(DOMAINS)}")
    parser.add_argument("--element", help=f"one of {', '.join(ELEMENT_ORDER)}")
    parser.add_argument("--method", help=f"one of {', '.join(METHODS)}")
    parser.add_argument("--levels")
    parser.add_argument("--gamma0")
    parser.add_argument("--multiplier-degree", dest="multiplier_degree")
    parser.add_argument("--no-enrich", dest="enrich", action="store_const", const="no",
                        help="drop the boundary-edge bubbles")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--plots", help="prefix for SVG plots and elevation dump")
    parser.add_argument("--config", help="key = value config file (flags override)")
    parser.add_argument("--dump-matrices", dest="dump_prefix", help="debug matrix dump prefix")

    try:
        flags = vars(parser.parse_args(argv))
        config_path = flags.pop("config")
        settings = parse_config_file(config_path) if config_path else {}
        settings.update((key, value) for key, value in flags.items() if value is not None)
        settings = {key: _config_value(key, value) for key, value in settings.items()}

        preset_name = settings.pop("preset", None)
        out_path = settings.pop("out", None)
        plot_prefix = settings.pop("plots", None)

        if preset_name:
            fixed = sorted(settings.keys() - {"levels"})
            if fixed:
                named = ", ".join(_FLAG_ONLY.get(key, key) for key in fixed)
                raise ConfigError(f"preset {preset_name} fixes its own settings; drop {named}")
            result, msgs = run_preset(preset_name, levels=settings.get("levels"))
            label = f"preset {preset_name}"
        else:
            config = StudyConfig(**settings)
            result = run_study(config)
            msgs = [f"levels failed: {result.failures}"] if result.failures else []
            label = f"{config.domain}/{config.element}/{config.method}"

        _print_result(result, label)
        if result.companion is not None:
            _print_result(result.companion, f"{label} ({result.companion.config.method})")

        if out_path:
            emit_csv(result, out_path)
            if result.companion is not None and result.companion.records:
                stem, ext = os.path.splitext(out_path)
                emit_csv(result.companion, f"{stem}-{result.companion.config.method}{ext}")
            print(f"wrote {out_path}")
        if plot_prefix:
            emit_plots(result, plot_prefix)
            print(f"wrote {plot_prefix}-*.svg")

        if msgs:
            tag, code = ("CHECK FAILED", 2) if preset_name else ("ERROR", 1)
            for msg in msgs:
                print(f"{tag}: {msg}")
            if preset_name and result.config.levels < PRESET_MIN_LEVELS:
                print(f"note: the preset checks hold from {PRESET_MIN_LEVELS} levels; "
                      f"this run had {result.config.levels}")
            return code
        if preset_name:
            print("all rate checks passed")
        return 0
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pipeline failure
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
