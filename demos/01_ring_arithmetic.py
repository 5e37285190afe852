"""Arithmetic in the ring that hosts the degree invariants.

Elements carry one integer for the full circle group and one integer per
rotation subgroup Z_k.  Addition is coordinatewise; the product twists the
higher coordinates through the leading one, which is exactly why the
scalar shadow (the leading coordinate alone) can vanish while the element
does not.
"""

import numpy as np

from equideg import (ONE, ZERO, TomDieckElement, add, deg_id_minus_LA,
                     product, star)

a = TomDieckElement(2, {1: 3, 4: -1})
b = TomDieckElement(-1, {1: 1, 2: -4})

print("a          =", a)
print("b          =", b)
print("a + b      =", add(a, b))
print("a * b      =", star(a, b))
print("3 * a      =", 3 * a)
print("units      :", ONE, "and zero", ZERO)
print("fold       =", product([a, b, ONE]))

# The product annihilates higher coordinates whenever both leading
# coordinates vanish: such elements are outside the reach of any scalar
# degree, yet they are nonzero.
blind = TomDieckElement(0, {2: 1})
print("\nblind      =", blind)
print("blind^2    =", star(blind, blind), " (nilpotent, scalar shadow 0)")

# Closed-form degree of x -> x - L_A x on loop space for a diagonal A:
# each eigenvalue above k^2 contributes to the Z_k coordinate.
A = np.diag([4.5, 2.0, 2.0, 2.0])
print("\ndeg(Id - L_A) for A = diag(4.5, 2, 2, 2):", deg_id_minus_LA(A))

# Degrees of block-diagonal linear maps multiply: A (+) B acts on the
# loops of A and of B side by side.
B = np.diag([-0.5, 1.5])
AB = np.diag([4.5, 2.0, 2.0, 2.0, -0.5, 1.5])
print("deg(Id - L_B) for B = diag(-0.5, 1.5):", deg_id_minus_LA(B))
print("product law: deg(Id - L_{A+B})             =", deg_id_minus_LA(AB))
print("             deg(Id - L_A) * deg(Id - L_B) =",
      star(deg_id_minus_LA(A), deg_id_minus_LA(B)))
