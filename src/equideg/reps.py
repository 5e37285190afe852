"""Finite-dimensional SO(2)-representation classes.

A representation class is a direct sum of the planar rotation blocks R[j,k]
(j copies of the plane on which the circle acts by rotation with speed k),
plus a trivial summand R[j,0].  The isotropy subgroup of a nonzero vector is
SO(2) on the trivial summand and the cyclic group Z_g on any vector whose
active frequencies have gcd g, so the achievable isotropy groups of a class
are read off from the gcd-closure of its frequency set.
"""

import math
from dataclasses import dataclass

#: Label for the full-group isotropy contributed by a trivial summand.
#: Distinct from every integer label Z_g by construction.
SO2 = "SO(2)"


@dataclass(frozen=True)
class RepDecomposition:
    """Sorted list of (multiplicity j, frequency k) pairs with distinct k.

    k = 0 denotes the trivial summand.  The empty decomposition is allowed
    and stands for the zero representation.
    """

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple((int(j), int(k)) for j, k in self.parts)
        for j, k in parts:
            if j < 1:
                raise ValueError(f"multiplicity must be >= 1, got {j}")
            if k < 0:
                raise ValueError(f"frequency must be >= 0, got {k}")
        freqs = [k for _, k in parts]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError(f"frequencies must be strictly increasing, got {freqs}")
        object.__setattr__(self, "parts", parts)

    @property
    def dimension(self):
        return sum(j if k == 0 else 2 * j for j, k in self.parts)

    @property
    def frequencies(self):
        return frozenset(k for _, k in self.parts)

    @property
    def nonzero_frequencies(self):
        return frozenset(k for _, k in self.parts if k > 0)

    def multiplicity(self, k):
        for j, kk in self.parts:
            if kk == k:
                return j
        return 0

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"RepDecomposition({list(self.parts)})"

    def to_json(self):
        return [[j, k] for j, k in self.parts]


def gcd_closure(freqs):
    """Closure of a set of positive integers under pairwise gcd.

    Equals {gcd(S) : S a nonempty subset}, without enumerating subsets:
    saturating pairwise gcds reaches the same set because gcd is
    associative and idempotent.
    """
    out = set()
    for f in freqs:
        f = int(f)
        if f < 1:
            raise ValueError(f"gcd closure is over positive integers, got {f}")
        out.add(f)
    while True:
        new = {math.gcd(a, b) for a in out for b in out} | out
        if new == out:
            return frozenset(out)
        out = new


def isotropy_gcd_set(rep):
    """Achievable isotropy labels: gcd-closure of the nonzero frequencies,
    plus the SO(2) label when a trivial summand is present."""
    labels = set(gcd_closure(rep.nonzero_frequencies))
    if 0 in rep.frequencies:
        labels.add(SO2)
    return frozenset(labels)
