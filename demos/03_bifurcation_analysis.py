"""The full analysis pipeline on the three built-in systems.

For each example the report assembles: spectra at the interval endpoints,
the bifurcation index (difference of asymptotic degrees), the scalar
Leray-Schauder shadow, the fired criterion, and per-resonance period
predictions.  All three indices are nonzero with zero shadow: the
unbounded branches they certify are invisible to non-equivariant degree
arguments.
"""

import json

from equideg import build_report, isotropy_gcd_set, period_labels
from equideg.bifurcation import (IndexRule, Perturbation, ProblemSpec,
                                 eqcont3_points)
from equideg.problems import CATALOG
from equideg.spectral import MatrixFamily

for name, factory in sorted(CATALOG.items()):
    ex = factory()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    print(f"== {name} on [{ex.lambda_minus:g}, {ex.lambda_plus:g}] ==")
    print("  bifurcation index:", r.bif)
    print("  scalar shadow    :", r.bif_ls)
    print("  criterion        :", r.criterion.name, "->", r.criterion.message)
    for pt in r.resonances:
        periods = period_labels(isotropy_gcd_set(pt.kernel_rep))
        print(f"  resonance {pt.lambda0:+.9f}: frequencies "
              f"{sorted(pt.frequencies)}, periods {periods}")
    print()

# Scaled potentials admit an explicit bifurcation-point grid: with
# V(x, lambda) = lambda^2 V(x) and A the Hessian at infinity, branches
# leave from every lambda0 = k / sqrt(alpha), alpha a positive eigenvalue.
fam = MatrixFamily.scaled_quadratic([[4.0]])
p = ProblemSpec(1, fam, Perturbation.kepler(1.0, "lambda_squared"),
                IndexRule.builtin(), scaled=True)
print("== scaled family lambda^2 * diag(4) on (0.4, 1.6) ==")
for pt in eqcont3_points(p, (0.4, 1.6)):
    print(f"  lambda0 = {pt.lambda0:.3f}  mode k = {pt.k0}  "
          f"Z_k jump = {pt.bif_zk0}")

# Reports serialize losslessly; the command line prints the same object.
ex = CATALOG["example2"]()
obj = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus).to_json()
print("\nreport keys:", ", ".join(sorted(obj)))
print("criterion as JSON:", json.dumps(obj["criterion"], sort_keys=True))
