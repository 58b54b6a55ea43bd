"""The correction as a stabilizer: an inf-sup violating pairing.

Continuous P2 for u against discontinuous P2 multipliers is too rich a
multiplier space: the boundary trace of V_h has dimension 2 per facet while
Lambda_h has 3, so the coupling B cannot have full row rank and the plain
saddle system is singular.  The corrected term -(rho_h lambda_h, mu) makes
the facet blocks definite (rho_h has one sign per facet interior) and the
system solvable, with optimal convergence in u.  The inf-sup diagnostic
counts the multipliers that B^T maps to zero (one per boundary facet) and
gives the smallest sigma above them; the stable P2+bubbles / P1-disc
pairing has none.
"""

from bvcfem import StudyConfig, infsup_diagnostic, make_ring_domain, run_preset
from bvcfem.study import build_level

ring = make_ring_domain()

print("inf-sup diagnostic sigma_min (B against the natural norms):")
for enrich, mdeg, label in ((True, 1, "P2+bubbles / P1-disc (stable)"),
                            (False, 2, "P2 / P2-disc (unstable)")):
    config = StudyConfig(element="p2", multiplier_degree=mdeg, enrich=enrich)
    (k0, s0), (k1, s1) = (infsup_diagnostic(*build_level(config, lvl, ring)) for lvl in range(2))
    print(f"  {label:32s} levels 0-1: kernel {k0}, {k1}; sigma {s0:.3e}, {s1:.3e}")

result, _ = run_preset("unstable-pairing", levels=4)

print("\nunmodified branch (expected to fail):")
for lvl, msg in result.companion.failures:
    print(f"  level {lvl}: {msg}")
for lvl, r in result.companion.records:
    print(f"  level {lvl}: solved, L2 = {r.err_l2:.3e}")

print("\ncorrected branch:")
for lvl, r in result.records:
    print(f"  level {lvl}: L2 = {r.err_l2:.3e}  multiplier = {r.err_lambda:.3e}")
print(f"  L2 rate (last-3 LS): {result.rates['l2'].last3:.2f}")
lam = [r.err_lambda for r in result.reports]
print(f"  multiplier errors decreasing: {all(a > b for a, b in zip(lam, lam[1:]))}")
