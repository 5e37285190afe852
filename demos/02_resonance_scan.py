"""Locating resonances of a symmetric matrix family.

A parameter value is resonant when some eigenvalue of A(lambda) equals a
square k^2: there the linearized loop-space operator acquires a kernel of
loops cos(kt) v, sin(kt) v.  The scanner tracks det(A(lambda) - k^2 Id)
for every relevant k over a sign-change grid, bisects each bracket, and
reports the kernel as a representation of the circle group.
"""

from equideg import MatrixFamily, eigen_sym, j_k, scan_resonances
from equideg.bifurcation import predict_periods

# diag(4 + l, 2, 2, 2): the first entry crosses 4 = 2^2 at l = 0
family = MatrixFamily.from_entry_polynomials(4, {
    (1, 1): {0: 4.0, 1: 1.0},
    (2, 2): {0: 2.0}, (3, 3): {0: 2.0}, (4, 4): {0: 2.0},
})

for pt in scan_resonances(family, -0.5, 0.5):
    print(f"lambda0 = {pt.lambda0:+.12f}")
    print("  frequencies:", sorted(pt.frequencies))
    print("  kernel rep :", pt.kernel_rep)
    print("  det A != 0 :", pt.det_nonzero)
    print("  periods    :", ", ".join(predict_periods(pt).labels()))

# The count j_k (eigenvalues above k^2) is the quantity whose jumps drive
# the degree coordinates; here j_2 jumps across the resonance.
for lam in (-0.5, 0.5):
    A = family.eval(lam)
    print(f"\nlambda = {lam:+.1f}: spectrum "
          f"{[v for v, m in eigen_sym(A).eigenvalues]}, "
          f"j_2 = {j_k(A, 2)}")

# A denser example: three entries pass through squares at the same point.
import math
family3 = MatrixFamily.from_entry_polynomials(5, {
    (1, 1): {0: 4.0, 2: 0.5},
    (2, 2): {3: 1.0, 0: -math.sqrt(10.0)},
    (3, 3): {0: 9.0, 2: 0.5},
    (4, 4): {3: 1.0, 0: math.sqrt(10.0)},
    (5, 5): {0: 25.0, 2: 0.5},
})
print("\nfive-dimensional family on [-1, 1]:")
for pt in scan_resonances(family3, -1.0, 1.0):
    labels = ", ".join(predict_periods(pt).labels())
    print(f"  lambda0 = {pt.lambda0:+.9f}  frequencies {sorted(pt.frequencies)}"
          f"  minimal periods {{{labels}}}")
