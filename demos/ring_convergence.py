"""Convergence on the ring: corrected vs uncorrected multiplier method.

The manufactured solution u = (r - 1/4)(3/4 - r) vanishes on both circles.
On affine triangulations the chords miss the circles by O(h^2); without
correction that geometric error caps the L2 convergence at second order,
while the corrected constraint (u_h, mu) - (rho_h lambda_h, mu) = (g~, mu)
restores the optimal order k+1.

Run with P2 (default) or P3 by editing ELEMENT below.  Writes CSV tables
and SVG log-log plots into results/.
"""

from pathlib import Path

from bvcfem import emit_csv, emit_plots, run_preset

ELEMENT = "p2"   # "p2" or "p3"
LEVELS = 4       # use 5 to reproduce the acceptance ladders

outdir = Path("results")
outdir.mkdir(exist_ok=True)

# The preset runs the corrected method with the unmodified one as companion.
corrected, _ = run_preset(f"{ELEMENT}-ring", levels=LEVELS)
plain = corrected.companion

print(f"ring {ELEMENT}: corrected vs unmodified")
print(f"{'level':>5} {'h':>9} {'L2 (bvc)':>11} {'L2 (plain)':>11} "
      f"{'H1 (bvc)':>11} {'lam (bvc)':>11}")
for (lvl, rb), (_, rp) in zip(corrected.records, plain.records):
    print(f"{lvl:>5} {rb.h:>9.5f} {rb.err_l2:>11.3e} {rp.err_l2:>11.3e} "
          f"{rb.err_h1:>11.3e} {rb.err_lambda:>11.3e}")

k = corrected.config.order()
print("\nleast-squares rates over the last 3 levels:")
for norm, fit in sorted(corrected.rates.items()):
    print(f"  corrected {norm:>6}: {fit.last3:5.2f}")
print(f"  plain     l2    : {plain.rates['l2'].last3:5.2f}   "
      f"(capped near 2 by the boundary gap, expected {k + 1} with correction)")

emit_csv(corrected, outdir / f"ring-{ELEMENT}-bvc.csv")
emit_csv(plain, outdir / f"ring-{ELEMENT}-unmodified.csv")
emit_plots(corrected, outdir / f"ring-{ELEMENT}")
print(f"\nwrote results/ring-{ELEMENT}-*.csv and results/ring-{ELEMENT}-*.svg")
