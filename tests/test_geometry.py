"""Geometry kernel tests: normals, ray distances, pullbacks, projections.

Derived expectations are frozen from independent oracles: the chord sagitta
formula, quadratic roots along axis rays, scipy.optimize.brentq bisection on
the raw level set, and brute-force minimization over the boundary
parameterization.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from bvcfem.geometry import (
    GeometryError,
    ImplicitDomain,
    NoConvergence,
    NoIntersection,
    ZeroGradient,
    closest_point,
    exact_normal,
    make_ellipse_domain,
    make_ring_domain,
    make_square_domain,
    ray_distance_batch,
)

RING = make_ring_domain()
ELLIPSE = make_ellipse_domain()


def _unit_disk_u(p):
    return 1.0 - np.sum(np.asarray(p, dtype=float) ** 2, axis=-1)


# The unit disk with u = 1 - r^2: a circle whose level set r^2 - 1 is not a
# distance function, unlike the ring's.
CIRCLE = ImplicitDomain(
    name="circle",
    level_set=lambda p: -_unit_disk_u(p),
    level_set_gradient=lambda p: 2.0 * np.asarray(p, dtype=float),
    u_exact=_unit_disk_u,
    grad_u_exact=lambda p: -2.0 * np.asarray(p, dtype=float),
    f_rhs=lambda p: np.full(np.shape(p)[:-1], 4.0),
    delta0=0.3,
    phi_cap=0.7,
    radial_circles=(1.0,),
)


def _flat_slab(phi_of_y):
    """A domain with level set phi_of_y(y) and a zero level-set gradient."""
    zero = lambda p: np.zeros(np.shape(p)[:-1])
    return ImplicitDomain(
        "flat-slab",
        lambda p: phi_of_y(np.asarray(p, dtype=float)[..., 1]),
        lambda p: np.zeros(np.shape(p)),
        zero, zero, zero, delta0=0.12, phi_cap=0.12,
    )


def bisect_root(domain, x, n, lo, hi):
    """Independent root of level_set(x + t n) via scipy brentq."""
    f = lambda t: float(domain.level_set(np.asarray(x) + t * np.asarray(n)))
    return brentq(f, lo, hi, xtol=1e-15)


class TestExactNormal:
    def test_unit_circle_radial(self):
        n = exact_normal(CIRCLE, (1.0, 0.0))
        assert np.allclose(n, (1.0, 0.0), atol=1e-14)

    def test_ring_outer_radial(self):
        n = exact_normal(RING, (0.0, 0.75))
        assert np.allclose(n, (0.0, 1.0), atol=1e-14)

    def test_ring_inner_points_to_center(self):
        # Outward from the annulus means toward the origin on the inner circle.
        n = exact_normal(RING, (0.25, 0.0))
        assert np.allclose(n, (-1.0, 0.0), atol=1e-14)

    def test_off_boundary_rejected(self):
        with pytest.raises(GeometryError):
            exact_normal(RING, (0.5, 0.0))

    def test_array_of_points(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 7)
        radial = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = np.stack([0.75 * radial, 0.25 * radial])  # (2, 7, 2)
        n = exact_normal(RING, pts)
        assert n.shape == pts.shape
        assert np.allclose(n[0], radial, atol=1e-14)
        assert np.allclose(n[1], -radial, atol=1e-14)

    def test_one_off_boundary_row_is_named(self):
        pts = np.array([[0.0, 0.75], [0.5, 0.0], [0.25, 0.0]])
        with pytest.raises(GeometryError, match=r"point \[0\.5 0\. *\] is not on the boundary"):
            exact_normal(RING, pts)

    def test_zero_gradient(self):
        from bvcfem.geometry import ImplicitDomain

        flat = ImplicitDomain(
            name="degenerate",
            level_set=lambda p: np.asarray(p)[..., 0] ** 2 + np.asarray(p)[..., 1] ** 2,
            level_set_gradient=lambda p: 2.0 * np.asarray(p, dtype=float),
            u_exact=lambda p: 0.0,
            grad_u_exact=lambda p: np.zeros(2),
            f_rhs=lambda p: 0.0,
            delta0=1.0,
            phi_cap=1.0,
        )
        with pytest.raises(ZeroGradient):
            exact_normal(flat, (0.0, 0.0))


class TestRayDistance:
    def test_vertex_on_boundary_is_zero(self):
        x = np.array([0.75, 0.0])
        assert ray_distance_batch(RING, [x], [[1.0, 0.0]])[0] == 0.0

    @pytest.mark.parametrize("alpha", [np.pi / 16, np.pi / 40, np.pi / 128])
    def test_outer_chord_sagitta(self, alpha):
        # Midpoint of a chord of the outer circle, radial outward direction.
        R = 0.75
        ell = 2.0 * R * np.sin(alpha)
        x = np.array([R * np.cos(alpha), 0.0])
        n = np.array([1.0, 0.0])
        expected = R - np.sqrt(R**2 - ell**2 / 4.0)
        got = ray_distance_batch(RING, [x], [n])[0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(bisect_root(RING, x, n, 0.0, 0.12), abs=1e-12)

    @pytest.mark.parametrize("y0", [0.0, 0.3, -0.55, 0.8])
    def test_ellipse_axis_ray(self, y0):
        xb = 2.0 * np.sqrt(1.0 - y0**2)
        x = np.array([xb - 0.2, y0])
        n = np.array([1.0, 0.0])
        expected = 2.0 * np.sqrt(1.0 - y0**2) - x[0]
        got = ray_distance_batch(ELLIPSE, [x], [n])[0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(bisect_root(ELLIPSE, x, n, 0.0, 0.5), abs=1e-12)

    def test_inner_chord_negative(self):
        # Chord of the inner ring circle: the true boundary lies inward of it.
        alpha = np.pi / 16
        x = np.array([0.25 * np.cos(alpha), 0.0])
        n = np.array([-1.0, 0.0])  # outward from the annulus
        got = ray_distance_batch(RING, [x], [n])[0]
        assert got < 0.0
        assert got == pytest.approx(-(0.25 - 0.25 * np.cos(alpha)), abs=1e-12)

    def test_no_intersection(self):
        with pytest.raises(NoIntersection):
            ray_distance_batch(RING, [[0.74, 0.0]], [[0.0, 1.0]])

    def test_outside_tube_rejected(self):
        with pytest.raises(NoIntersection):
            ray_distance_batch(RING, [[0.5, 0.0]], [[1.0, 0.0]])

    @pytest.mark.parametrize("y0, expected", [(0.001, 0.049), (-0.001, -0.049)])
    def test_two_crossings_pick_the_nearer_root(self, y0, expected):
        # Slab |y| < 0.05: every vertical ray in the tube crosses the boundary
        # on both sides; the nearer crossing wins.
        def level_set(p):
            return np.abs(np.asarray(p, dtype=float)[..., 1]) - 0.05

        def gradient(p):
            y = np.asarray(p, dtype=float)[..., 1]
            return np.stack([np.zeros_like(y), np.sign(y)], axis=-1)

        zero = lambda p: np.zeros(np.shape(p)[:-1])
        slab = ImplicitDomain(
            "slab", level_set, gradient, zero, zero, zero, delta0=0.12, phi_cap=0.12
        )
        x = np.array([[0.3, y0], [-0.7, y0]])
        got = ray_distance_batch(slab, x, np.array([[0.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_without_newton_steps_the_tight_bisection_finds_the_root(self):
        # A zero gradient skips every Newton step, so the 1e-8 bracket's
        # midpoint misses the tolerance and the width-0 bisection takes over.
        slab = _flat_slab(lambda y: np.abs(y) - 0.05)
        x = np.array([[0.3, 0.001]])
        got = ray_distance_batch(slab, x, [[0.0, 1.0]])
        assert abs(got[0] - 0.049) <= 1e-16
        assert slab.level_set(x + got[:, None] * [0.0, 1.0]) == 0.0

    def test_a_level_set_jump_names_the_ray(self):
        # phi jumps from -0.05 to 0.05 at |y| = 0.05: no bisection reaches a root.
        jump = _flat_slab(lambda y: np.where(np.abs(y) < 0.05, -0.05, 0.05))
        x = np.array([[0.3, 0.001]])
        message = re.escape(f"root polishing stalled at {x[0]} (|phi|=5.000e-02)")
        with pytest.raises(NoConvergence, match=message):
            ray_distance_batch(jump, x, [[0.0, 1.0]])

    def test_matches_negated_signed_distance_on_ring(self):
        # Along the exact normal the ray length is the distance to the
        # boundary, oriented so that rho_h > 0 when the point lies inside.
        rng = np.random.default_rng(7)
        xs, ns = [], []
        for _ in range(200):
            theta = rng.uniform(0, 2 * np.pi)
            radius = rng.choice([0.25, 0.75])
            off = rng.uniform(-0.1, 0.1)
            x = (radius + off) * np.array([np.cos(theta), np.sin(theta)])
            xs.append(x)
            ns.append(exact_normal(RING, closest_point(RING, x)))
        sigma = ray_distance_batch(RING, xs, ns)
        phi = RING.level_set(np.array(xs))
        np.testing.assert_allclose(sigma, -phi, rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(0.0, 2 * np.pi),
        off=st.floats(-0.05, 0.05),
        tilt=st.floats(-0.5, 0.5),
    )
    def test_ray_at_least_signed_distance(self, theta, off, tilt):
        # |rho_h| >= |rho| for any admissible ray direction.
        x = (0.75 + off) * np.array([np.cos(theta), np.sin(theta)])
        n = np.array([np.cos(theta + tilt), np.sin(theta + tilt)])
        sigma = ray_distance_batch(RING, [x], [n])[0]
        assert abs(sigma) >= abs(float(RING.level_set(x))) - 1e-12


def pullback(domain, x, n):
    """The points x + rho_h(x) n at the end of each ray, as the mesh stores them."""
    x, n = np.atleast_2d(x), np.atleast_2d(n)
    return x + ray_distance_batch(domain, x, n)[:, None] * n


class TestPullback:
    def test_boundary_vertex_fixed(self):
        x = np.array([0.0, 0.25])
        p = pullback(RING, x, np.array([0.0, -1.0]))[0]
        assert np.allclose(p, x, atol=1e-14)

    def test_chord_midpoint_maps_radially(self):
        alpha = np.pi / 20
        x = np.array([0.75 * np.cos(alpha), 0.0])
        p = pullback(RING, x, np.array([1.0, 0.0]))[0]
        assert np.allclose(p, (0.75, 0.0), atol=1e-12)

    def test_staircase_point_maps_to_ellipse(self):
        y0 = 0.4
        p = pullback(ELLIPSE, np.array([1.7, y0]), np.array([1.0, 0.0]))[0]
        assert np.allclose(p, (2.0 * np.sqrt(1.0 - y0**2), y0), atol=1e-12)

    @pytest.mark.parametrize("domain", [RING, CIRCLE, ELLIPSE], ids=lambda d: d.name)
    def test_pullback_lands_on_boundary(self, domain):
        rng = np.random.default_rng(3)
        xs, ns = [], []
        for _ in range(100):
            t = rng.uniform(0, 2 * np.pi)
            if domain.name == "ellipse":
                b = np.array([2.0 * np.cos(t), np.sin(t)])
            else:
                r = 1.0 if domain.name == "circle" else rng.choice([0.25, 0.75])
                b = r * np.array([np.cos(t), np.sin(t)])
            n = exact_normal(domain, b)
            xs.append(b + rng.uniform(-0.5, 0.5) * domain.delta0 / 2.0 * n)
            ns.append(n)
        p = pullback(domain, xs, ns)
        assert np.max(np.abs(domain.level_set(p))) <= 1e-12


class TestClosestPoint:
    def test_ring_nearer_outer(self):
        assert np.allclose(closest_point(RING, (0.6, 0.0)), (0.75, 0.0), atol=1e-14)

    def test_ring_nearer_inner(self):
        assert np.allclose(closest_point(RING, (0.35, 0.0)), (0.25, 0.0), atol=1e-14)

    def test_ring_tie_prefers_outer(self):
        assert np.allclose(closest_point(RING, (0.0, 0.5)), (0.0, 0.75), atol=1e-14)

    def test_fixed_point_on_boundary(self):
        x = np.array([0.75, 0.0])
        assert np.allclose(closest_point(RING, x), x, atol=1e-13)

    def test_ellipse_minor_axis(self):
        p = closest_point(ELLIPSE, (0.0, 0.9))
        assert np.allclose(p, (0.0, 1.0), atol=1e-10)

    def test_ellipse_against_brute_force(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 2.0 * np.pi, 20001)
        boundary = np.stack([2.0 * np.cos(ts), np.sin(ts)], axis=-1)
        for _ in range(20):
            t = rng.uniform(0, 2 * np.pi)
            b = np.array([2.0 * np.cos(t), np.sin(t)])
            n = exact_normal(ELLIPSE, b)
            x = b + rng.uniform(-0.2, 0.2) * n
            p = closest_point(ELLIPSE, x)
            d2 = np.sum((boundary - x) ** 2, axis=1)
            brute = boundary[np.argmin(d2)]
            assert np.hypot(*(p - brute)) < 5e-4  # limited by the sampling grid
            assert np.sum((p - x) ** 2) <= d2.min() + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 2 * np.pi), off=st.floats(-1.0, 1.0))
    def test_idempotent(self, t, off):
        for domain in (RING, ELLIPSE):
            if domain.name == "ellipse":
                b = np.array([2.0 * np.cos(t), np.sin(t)])
            else:
                b = 0.75 * np.array([np.cos(t), np.sin(t)])
            n = exact_normal(domain, b)
            x = b + off * domain.delta0 / 2.0 * n
            p = closest_point(domain, x)
            assert abs(float(domain.level_set(p))) <= 1e-12
            assert np.hypot(*(closest_point(domain, p) - p)) <= 1e-12


class TestManufacturedData:
    @pytest.mark.parametrize(
        "domain,where",
        [
            (RING, np.array([[0.3, 0.2], [-0.5, 0.1], [0.0, 0.6]])),
            (ELLIPSE, np.array([[0.3, 0.2], [-1.2, 0.4], [0.9, -0.7]])),
            (CIRCLE, np.array([[0.3, 0.2], [-0.5, 0.1], [0.0, 0.6]])),
        ],
        ids=["ring", "ellipse", "circle"],
    )
    def test_f_is_minus_laplacian(self, domain, where):
        # Central differences on u_exact confirm f = -Δu and the gradient.
        eps = 1e-5
        for x in where:
            u = lambda p: float(domain.u_exact(np.asarray(p)))
            lap = (
                u(x + [eps, 0]) + u(x - [eps, 0]) + u(x + [0, eps]) + u(x - [0, eps]) - 4 * u(x)
            ) / eps**2
            assert float(domain.f_rhs(x)) == pytest.approx(-lap, abs=1e-4)
            g = domain.grad_u_exact(x)
            gx = (u(x + [eps, 0]) - u(x - [eps, 0])) / (2 * eps)
            gy = (u(x + [0, eps]) - u(x - [0, eps])) / (2 * eps)
            assert np.allclose(g, (gx, gy), atol=1e-8)

    def test_ellipse_data_match_closed_forms(self):
        # The library writes the powers as products; here they are written
        # with **.  10^4 points over the staircase grid's box.  The bound is
        # relative to each array's largest value: near a zero of sin or cos
        # a pointwise ratio amplifies the last bit of x^3.
        p = np.random.default_rng(5).uniform([-2.0, -1.0], [2.0, 1.0], size=(100, 100, 2))
        x, y = p[..., 0], p[..., 1]
        sx, cx = np.sin(x**3), np.cos(x**3)
        sy, cy = np.sin(8.0 * y**3), np.cos(8.0 * y**3)
        uxx = (6.0 * x * cx - 9.0 * x**4 * sx) * cy
        uyy = -(48.0 * y * sy + 576.0 * y**4 * cy) * sx
        expected = {
            "u_exact": sx * cy,
            "grad_u_exact": np.stack([3.0 * x**2 * cx * cy, -24.0 * y**2 * sx * sy], axis=-1),
            "f_rhs": -(uxx + uyy),
        }
        for name, want in expected.items():
            got = getattr(ELLIPSE, name)(p)
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale, err_msg=name)

    def test_square_domain_affine(self):
        sq = make_square_domain(0.3, 0.7, -0.4)
        pts = np.array([[0.2, 0.9], [0.5, 0.5]])
        assert np.allclose(sq.u_exact(pts), 0.3 + 0.7 * pts[:, 0] - 0.4 * pts[:, 1])
        assert np.allclose(sq.f_rhs(pts), 0.0)
        # rho along an edge of the square is identically zero
        assert ray_distance_batch(sq, [[0.37, 0.0]], [[0.0, -1.0]])[0] == 0.0

