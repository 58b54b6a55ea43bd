"""Implicit geometry kernel.

Level-set domains with manufactured solution data, exact boundary normals,
ray-cast signed distances from the facet boundary to the true boundary, and
closest-point projection.  All callables stored on a domain are vectorized
over points of shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class GeometryError(Exception):
    """Base class for geometry kernel failures."""


class ZeroGradient(GeometryError):
    """Level-set gradient vanished where a normal was requested."""


class NoIntersection(GeometryError):
    """No level-set zero crossing along the ray inside the trusted tube."""


class NoConvergence(GeometryError):
    """Closest-point iteration failed to converge."""


@dataclass(frozen=True)
class ImplicitDomain:
    """Exact domain plus manufactured-solution data.

    u_exact is also the Dirichlet data that the assemblers pull back.

    level_set is negative inside the domain, zero on the boundary, positive
    outside.  delta0 is the tubular-neighborhood half-width inside which ray
    casting and projection are trusted; phi_cap is the matching bound on
    |level_set| used as a cheap tube-membership test (the level set need not
    be a distance function).  radial_circles lists radii of origin-centered
    boundary circles for which projection is done analytically.
    """

    name: str
    level_set: Callable
    level_set_gradient: Callable
    u_exact: Callable
    grad_u_exact: Callable
    f_rhs: Callable
    delta0: float
    phi_cap: float
    radial_circles: tuple = ()


# Uniform scan resolution used to bracket level-set roots along a ray.
_N_SCAN = 64
_ON_BOUNDARY = 1e-14
_ROOT_TOL = 1e-12

# The ring's inner and outer radii, shared by its domain and its mesh.
RING_RADII = (0.25, 0.75)


def at_points(fn, points) -> np.ndarray:
    """fn at an (..., 2) point array, in one call on the flattened points.

    The values are reshaped to the leading axes of points followed by the
    value axes fn returns per point.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(fn(pts.reshape(-1, 2)), dtype=float)
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])


def exact_normal(domain: ImplicitDomain, points) -> np.ndarray:
    """Outward unit normals at boundary points of shape (..., 2).

    Every point must satisfy |level_set| <= 1e-10; GeometryError (or
    ZeroGradient, where the gradient vanishes) names the first one that fails.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    phi = np.asarray(domain.level_set(pts), dtype=float).reshape(-1)
    off = np.abs(phi) > 1e-10
    if np.any(off):
        i = int(np.argmax(off))
        raise GeometryError(f"point {flat[i]} is not on the boundary (phi={phi[i]:.3e})")
    g = np.asarray(domain.level_set_gradient(pts), dtype=float)
    norm = np.hypot(g[..., 0], g[..., 1])
    if np.any(norm < 1e-14):
        i = int(np.argmax(norm.reshape(-1) < 1e-14))
        raise ZeroGradient(f"level-set gradient vanishes at {flat[i]}")
    return g / norm[..., None]


def ray_distance_batch(domain: ImplicitDomain, points, normals) -> np.ndarray:
    """Signed ray lengths ς with level_set(x + ς n) = 0, smallest |ς| roots.

    points: (n, 2) on (or near) the facet boundary, normals: (n, 2) unit
    directions.  Roots are bracketed by a uniform 64-sample scan of
    [-delta0, delta0]; the bracket nearest to 0 on each side is bisected to
    1e-8 and polished with Newton steps to |level_set| <= 1e-12, and the
    nearer of the two roots is kept.  Positive ς means the true boundary
    lies outward of the facet boundary.  Ties in |ς| resolve to the
    positive root.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nrm = np.atleast_2d(np.asarray(normals, dtype=float))
    n = pts.shape[0]
    phi0 = np.asarray(domain.level_set(pts), dtype=float).reshape(n)
    if np.any(np.abs(phi0) > domain.phi_cap):
        i = int(np.argmax(np.abs(phi0)))
        raise NoIntersection(
            f"point {pts[i]} outside the trusted tube (|phi|={abs(phi0[i]):.3e} "
            f"> cap {domain.phi_cap:.3e})"
        )

    out = np.zeros(n)
    todo = np.abs(phi0) > _ON_BOUNDARY  # points already on the boundary get ς = 0
    idx = np.flatnonzero(todo)
    if idx.size == 0:
        return out

    d0 = domain.delta0
    s_grid = np.linspace(-d0, d0, _N_SCAN)
    sub_pts = pts[idx]
    sub_nrm = nrm[idx]
    samples = sub_pts[:, None, :] + s_grid[None, :, None] * sub_nrm[:, None, :]
    phi = np.asarray(domain.level_set(samples.reshape(-1, 2)), dtype=float)
    phi = phi.reshape(idx.size, _N_SCAN)

    # Candidates per scan interval k: a sample with phi = 0 (bracket
    # [s_k, s_k]) or a sign change (bracket [s_k, s_k+1]).  The bracket
    # nearest to 0 (the first, on ties) on each side -- 0: reaching s >= 0,
    # 1: wholly negative -- is refined; the nearer root wins, ties to side 0.
    sl, sh = s_grid[:-1], s_grid[1:]
    a, b = phi[:, :-1], phi[:, 1:]
    zero = a == 0.0
    found = zero | (a * b < 0.0)
    missing = ~found.any(axis=1)
    if np.any(missing):
        r = int(np.argmax(missing))
        raise NoIntersection(
            f"no level-set sign change along the ray from {sub_pts[r]} "
            f"within [-{d0}, {d0}]"
        )
    dist = np.where(zero, np.abs(sl), np.where(sh <= 0.0, -sh, np.maximum(sl, 0.0)))
    side = np.where(zero, sl < 0.0, sh <= 0.0)
    per_side = np.where(found & (side == np.arange(2)[:, None, None]), dist, np.inf)
    rows = np.flatnonzero(np.isfinite(per_side.min(axis=2)))  # into (side, ray)
    ray = rows % idx.size
    k = np.argmin(per_side, axis=2).ravel()[rows]
    lo = sl[k]
    hi = np.where(zero[ray, k], lo, sh[k])
    r_pts, r_nrm = sub_pts[ray], sub_nrm[ray]

    # Bisection on all brackets at once, down to interval width 1e-8.
    phi_lo = _phi_along(domain, r_pts, r_nrm, lo)
    lo, hi, phi_lo = _bisect(domain, r_pts, r_nrm, lo, hi, phi_lo, 1e-8)
    root = _newton_polish(domain, r_pts, r_nrm, 0.5 * (lo + hi))
    residual = np.abs(_phi_along(domain, r_pts, r_nrm, root))
    bad = residual > _ROOT_TOL
    if np.any(bad):
        # Fall back to a much tighter bisection for the stragglers.
        lo, hi, _ = _bisect(domain, r_pts, r_nrm, lo, hi, phi_lo, 0.0)
        root = np.where(bad, _newton_polish(domain, r_pts, r_nrm, 0.5 * (lo + hi)), root)
        residual = np.abs(_phi_along(domain, r_pts, r_nrm, root))

    sigma = np.full((2, idx.size), np.inf)  # per (side, ray); inf: no bracket
    final = np.zeros((2, idx.size))
    sigma.flat[rows], final.flat[rows] = root, residual
    near = (np.abs(sigma[1]) < np.abs(sigma[0])).astype(int), np.arange(idx.size)
    sigma, final = sigma[near], final[near]
    if np.any(final > _ROOT_TOL):
        r = int(np.argmax(final))
        raise NoConvergence(f"root polishing stalled at {sub_pts[r]} (|phi|={final[r]:.3e})")

    out[idx] = sigma
    return out


def _bisect(domain, pts, nrm, lo, hi, phi_lo, width):
    """Halve every bracket [lo, hi] up to 64 times, until all are width wide.

    phi_lo is the level set at lo; returns the new (lo, hi, phi_lo).
    """
    for _ in range(64):
        if np.max(hi - lo) <= width:
            break
        mid = 0.5 * (lo + hi)
        phi_mid = _phi_along(domain, pts, nrm, mid)
        take_left = phi_lo * phi_mid <= 0.0
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
        phi_lo = np.where(take_left, phi_lo, phi_mid)
    return lo, hi, phi_lo


def _phi_along(domain, pts, nrm, s):
    x = pts + s[:, None] * nrm
    return np.asarray(domain.level_set(x), dtype=float).reshape(len(s))


def _newton_polish(domain, pts, nrm, s, steps=3):
    for _ in range(steps):
        x = pts + s[:, None] * nrm
        phi = np.asarray(domain.level_set(x), dtype=float).reshape(len(s))
        grad = np.asarray(domain.level_set_gradient(x), dtype=float)
        den = np.einsum("ij,ij->i", grad, nrm)
        safe = np.abs(den) > 1e-14
        s = np.where(safe, s - phi / np.where(safe, den, 1.0), s)
    return s


def closest_point(domain: ImplicitDomain, x) -> np.ndarray:
    """Closest boundary point p(x), for x inside the trusted tube.

    Circle-bounded domains project radially onto the nearer circle.
    Otherwise a projection iteration alternates a level-set Newton step with
    a tangential transport step until |level_set| <= 1e-12 and the offset
    x - p is parallel to the boundary normal within 1e-10.
    """
    x = np.asarray(x, dtype=float)
    if domain.radial_circles:
        # The analytic radial projection is well defined everywhere but the
        # origin, so it is not restricted to the tube.
        r = float(np.hypot(x[0], x[1]))
        if r < 1e-14:
            raise NoConvergence("radial projection undefined at the origin")
        # Ties between circles resolve to the outer one.
        radii = sorted(domain.radial_circles, reverse=True)
        target = min(radii, key=lambda rad: abs(r - rad))
        return x * (target / r)

    phi0 = float(domain.level_set(x))
    if abs(phi0) > domain.phi_cap:
        raise GeometryError(
            f"point {x} outside the trusted tube (|phi|={abs(phi0):.3e})"
        )

    y = x.copy()
    for _ in range(100):
        phi = float(domain.level_set(y))
        g = np.asarray(domain.level_set_gradient(y), dtype=float)
        gg = float(g @ g)
        if gg < 1e-28:
            raise ZeroGradient(f"level-set gradient vanishes near {y}")
        y = y - (phi / gg) * g

        g = np.asarray(domain.level_set_gradient(y), dtype=float)
        nhat = g / np.hypot(g[0], g[1])
        d = x - y
        dist = float(np.hypot(d[0], d[1]))
        cross = d[0] * nhat[1] - d[1] * nhat[0]
        # The 1e-15 floor absorbs roundoff in x - y when x is essentially on
        # the boundary already.
        if abs(float(domain.level_set(y))) <= _ROOT_TOL and abs(cross) <= max(
            1e-10 * dist, 1e-15
        ):
            return y
        y = y + (d - (d @ nhat) * nhat)
    raise NoConvergence(f"closest-point iteration did not converge from {x}")


def make_ring_domain() -> ImplicitDomain:
    """Annulus 1/4 <= r <= 3/4 with u = (r - 1/4)(3/4 - r)."""
    inner, outer = RING_RADII

    def level_set(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        return np.maximum(inner - r, r - outer)

    def level_set_gradient(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        sign = np.where(r < 0.5, -1.0, 1.0)
        return (sign / r)[..., None] * p

    def u_exact(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        return (r - inner) * (outer - r)

    def grad_u_exact(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        return ((1.0 - 2.0 * r) / r)[..., None] * p

    def f_rhs(p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        return 4.0 - 1.0 / r

    return ImplicitDomain(
        name="ring",
        level_set=level_set,
        level_set_gradient=level_set_gradient,
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
        f_rhs=f_rhs,
        delta0=0.12,
        phi_cap=0.12 * (1.0 + 1e-9),
        radial_circles=(inner, outer),
    )


def make_ellipse_domain() -> ImplicitDomain:
    """Interior of x^2/4 + y^2 = 1 with u = sin(x^3) cos(8 y^3).

    The data write every power of x and y as a product: numpy sends
    exponents above 2 to libm pow, which costs about 30x more per point.
    """

    def level_set(p):
        p = np.asarray(p, dtype=float)
        return 0.25 * p[..., 0] ** 2 + p[..., 1] ** 2 - 1.0

    def level_set_gradient(p):
        p = np.asarray(p, dtype=float)
        return np.stack([0.5 * p[..., 0], 2.0 * p[..., 1]], axis=-1)

    def cubes(p):
        """x, y, x^3 and 8 y^3 at the points p."""
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return x, y, x * x * x, 8.0 * (y * y * y)

    def u_exact(p):
        _, _, x3, y3 = cubes(p)
        return np.sin(x3) * np.cos(y3)

    def grad_u_exact(p):
        x, y, x3, y3 = cubes(p)
        gx = 3.0 * (x * x) * np.cos(x3) * np.cos(y3)
        gy = -24.0 * (y * y) * np.sin(x3) * np.sin(y3)
        return np.stack([gx, gy], axis=-1)

    def f_rhs(p):
        x, y, x3, y3 = cubes(p)
        sx, cx = np.sin(x3), np.cos(x3)
        sy, cy = np.sin(y3), np.cos(y3)
        uxx = (6.0 * x * cx - 9.0 * (x3 * x) * sx) * cy
        uyy = -(48.0 * y * sy + 72.0 * (y3 * y) * cy) * sx
        return -(uxx + uyy)

    return ImplicitDomain(
        name="ellipse",
        level_set=level_set,
        level_set_gradient=level_set_gradient,
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
        f_rhs=f_rhs,
        delta0=0.5,
        phi_cap=1.3,
    )


def make_polygon_domain(
    vertices,
    u_exact: Callable,
    grad_u_exact: Callable,
    f_rhs: Callable,
    delta0: float = 0.25,
    name: str = "polygon",
) -> ImplicitDomain:
    """Convex polygon (CCW vertices) as a max-of-halfplanes level set.

    The level set equals the signed distance inside the polygon, so meshes
    whose boundary facets lie on the polygon edges get rho_h identically
    zero.  Intended for exactness fixtures (patch tests).
    """
    verts = np.asarray(vertices, dtype=float)
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, verts)

    def level_set(p):
        p = np.asarray(p, dtype=float)
        vals = np.einsum("...j,ij->...i", p, normals) - offsets
        return np.max(vals, axis=-1)

    def level_set_gradient(p):
        p = np.asarray(p, dtype=float)
        vals = np.einsum("...j,ij->...i", p, normals) - offsets
        return normals[np.argmax(vals, axis=-1)]

    return ImplicitDomain(
        name=name,
        level_set=level_set,
        level_set_gradient=level_set_gradient,
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
        f_rhs=f_rhs,
        delta0=delta0,
        phi_cap=delta0 * (1.0 + 1e-9),
    )


def make_square_domain(a: float = 0.3, b: float = 0.7, c: float = -0.4) -> ImplicitDomain:
    """Unit square [0,1]^2 with the affine solution u = a + b x + c y."""

    def u_exact(p):
        p = np.asarray(p, dtype=float)
        return a + b * p[..., 0] + c * p[..., 1]

    def grad_u_exact(p):
        p = np.asarray(p, dtype=float)
        g = np.empty(p.shape)
        g[..., 0] = b
        g[..., 1] = c
        return g

    def f_rhs(p):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1])

    return make_polygon_domain(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        u_exact,
        grad_u_exact,
        f_rhs,
        delta0=0.25,
        name="square",
    )
