"""Q1 elements on a staircase approximation of an ellipse.

The mesh keeps only grid cells strictly inside x^2/4 + y^2 = 1, so the
discrete boundary is a staircase whose normals never converge to the true
ones and whose ray distances rho_h do not even vanish like h near the flat
poles.  The corrected constraint still recovers O(h^2) in L2 and O(h) in H1
for Q1 with one quadratic bubble per boundary edge and facet-wise constant
multipliers -- the point of the staircase experiment.
"""

from pathlib import Path

import numpy as np

from bvcfem import (
    build_staircase_mesh,
    emit_csv,
    emit_plots,
    make_ellipse_domain,
    precompute_boundary_geometry,
    run_preset,
)

outdir = Path("results")
outdir.mkdir(exist_ok=True)

ellipse = make_ellipse_domain()
coarse = precompute_boundary_geometry(build_staircase_mesh(16, ellipse), ellipse, 4)
print(f"coarse staircase: {coarse.num_cells} cells, {coarse.nno} nodes, "
      f"{len(coarse.boundary_facets)} boundary facets")
print(f"  worst |rho_h| = {np.max(coarse.boundary_facets.rho):.3f} "
      f"(cell side {4/16:.3f})")

corrected, _ = run_preset("q1-ellipse", levels=4)
plain = corrected.companion

print(f"\n{'level':>5} {'h':>9} {'L2 (bvc)':>11} {'L2 (plain)':>11} {'H1 (bvc)':>11}")
for (lvl, rb), (_, rp) in zip(corrected.records, plain.records):
    print(f"{lvl:>5} {rb.h:>9.5f} {rb.err_l2:>11.3e} {rp.err_l2:>11.3e} {rb.err_h1:>11.3e}")

print("\nlast-3 least-squares rates:")
print(f"  corrected : L2 {corrected.rates['l2'].last3:.2f}, H1 {corrected.rates['h1'].last3:.2f}")
print(f"  plain     : L2 {plain.rates['l2'].last3:.2f} (stuck near first order)")

emit_csv(corrected, outdir / "staircase-q1-bvc.csv")
emit_plots(corrected, outdir / "staircase-q1")
print("\nwrote results/staircase-q1-*.csv/svg; the elevation file")
print("results/staircase-q1-elevation.txt holds 'x y u' rows for 3D plotting.")
