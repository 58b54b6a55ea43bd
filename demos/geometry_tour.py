"""Tour of the implicit-geometry kernel.

Walks through two of the shipped domains (ring and ellipse) and shows what
the boundary-corrected methods are built on: level sets, exact normals,
ray-cast distances from straight facets to the true boundary, pullback
points, and closest-point projection.
"""

import numpy as np

from bvcfem import (
    build_annulus_mesh,
    build_staircase_mesh,
    closest_point,
    exact_normal,
    make_ellipse_domain,
    make_ring_domain,
    precompute_boundary_geometry,
    ray_distance_batch,
)

ring = make_ring_domain()
ellipse = make_ellipse_domain()

print("level set values (negative inside):")
for name, dom, pts in (
    ("ring", ring, [(0.5, 0.0), (0.1, 0.0), (0.9, 0.0)]),
    ("ellipse", ellipse, [(0.0, 0.0), (1.9, 0.0), (0.0, 1.1)]),
):
    vals = ", ".join(f"{p}: {float(dom.level_set(np.array(p))):+.3f}" for p in pts)
    print(f"  {name}: {vals}")

# Exact normals point out of the domain; on the inner ring circle that is
# toward the origin.
print("\nexact normals:")
print("  ring outer (0, 0.75):", exact_normal(ring, (0.0, 0.75)))
print("  ring inner (0.25, 0):", exact_normal(ring, (0.25, 0.0)))
print("  ellipse (2, 0):      ", exact_normal(ellipse, (2.0, 0.0)))

# A chord of the outer circle: the midpoint sits inside the domain, and the
# ray along the chord normal hits the circle at the sagitta distance; the
# pullback point is where it lands, x + rho_h n_h.
alpha = np.pi / 16
chord_mid = np.array([0.75 * np.cos(alpha), 0.0])
n_h = np.array([1.0, 0.0])
sigma = ray_distance_batch(ring, [chord_mid], [n_h])[0]
print("\nsagitta of a chord (half-angle pi/16):")
print(f"  ray distance     {sigma:.8f}")
print(f"  R(1 - cos a)     {0.75 * (1 - np.cos(alpha)):.8f}")
print("  pullback point   ", chord_mid + sigma * n_h)

# The same machinery feeds the mesh: every boundary facet stores rho_h and
# the pullback point at each Gauss point.
mesh = precompute_boundary_geometry(build_annulus_mesh(16, 4), ring, 6)
rho_max = np.max(np.abs(mesh.boundary_facets.rho))
print(f"\nannulus 16x4: {len(mesh.boundary_facets)} boundary facets, "
      f"max |rho_h| = {rho_max:.2e} (h = {mesh.h:.3f})")

smesh = precompute_boundary_geometry(build_staircase_mesh(16, ellipse), ellipse, 4)
rho_max = np.max(np.abs(smesh.boundary_facets.rho))
print(f"staircase n=16: {len(smesh.boundary_facets)} facets, "
      f"max |rho_h| = {rho_max:.2e} (h = {smesh.h:.3f})")
print("  (large: near the flat poles of the ellipse the axis-aligned ray is")
print("   nearly tangent to the boundary, so rho_h scales like sqrt(h) there)")

# Closest-point projection: radial for circles, iterative for the ellipse.
print("\nclosest points:")
print("  ring (0.6, 0)     ->", closest_point(ring, (0.6, 0.0)))
print("  ring (0.35, 0)    ->", closest_point(ring, (0.35, 0.0)))
print("  ellipse (0, 0.9)  ->", closest_point(ellipse, (0.0, 0.9)))
p = closest_point(ellipse, (1.2, 0.55))
print("  ellipse (1.2,0.55)->", p, " level set:", float(ellipse.level_set(p)))
