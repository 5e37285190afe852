"""Closed-form equivariant degrees of linear data.

For a self-adjoint isomorphism L = diag(L_0, L_1, ..., L_r) acting block-wise
on a representation R[j_0, 0] + R[j_1, k_1] + ... the gradient degree is a
unit of the tom Dieck ring determined entirely by Morse indices:

    a0  = (-1)^{m(L_0)},    Z_{k_i} coordinate = (-1)^{m(L_0)} * m(L_i)/2.

``deg_id_minus_LA`` specializes this to the loop-space operator Id - L_A of a
nonresonant symmetric matrix A, where the block Morse data collapse to the
eigenvalue counts j_k(A) (eigenvalues above k^2); ``degree_of_spectrum``
reads every j_k off one sorted spectrum.  ``ind_infinity`` is the Brouwer
index at infinity available in closed form for the built-in
bounded-perturbation class; ``index_of_spectrum`` is the same formula on a
spectrum already computed.
"""

from dataclasses import dataclass

import numpy as np

from .reps import RepDecomposition
from .spectral import (DEFAULT_TOL, DegenerateSpectrumError, as_symmetric,
                       check_frequency_count, eigen_sym, frequency_bound,
                       morse_index, resonant_frequencies)
from .udring import TomDieckElement


class BlockDataError(ValueError):
    """Block Morse data violate the shape forced by the representation."""


class MissingIndexError(ValueError):
    """The index at infinity is needed but neither computable nor supplied."""


@dataclass(frozen=True, eq=False)
class LinearBlockData:
    """Morse indices of the isotypic blocks of a self-adjoint isomorphism.

    rep: RepDecomposition of the ambient space.
    block_morse: tuple aligned with rep.parts, m(L_i) per block.
    Blocks acting on R[j, k] with k >= 1 are complex linear, so their Morse
    index must be even and at most 2j; the k = 0 block is bounded by j.
    """

    rep: RepDecomposition
    block_morse: tuple

    def __post_init__(self):
        if not isinstance(self.rep, RepDecomposition):
            raise TypeError("rep must be a RepDecomposition")
        morse = tuple(int(m) for m in self.block_morse)
        if len(morse) != len(self.rep.parts):
            raise BlockDataError(
                f"expected {len(self.rep.parts)} Morse indices, got {len(morse)}")
        for (j, k), m in zip(self.rep.parts, morse):
            dim = j if k == 0 else 2 * j
            if not 0 <= m <= dim:
                raise BlockDataError(
                    f"Morse index {m} outside 0..{dim} for block R[{j},{k}]")
            if k >= 1 and m % 2:
                raise BlockDataError(
                    f"Morse index {m} on block R[{j},{k}] must be even")
        object.__setattr__(self, "block_morse", morse)

    def __repr__(self):
        return f"LinearBlockData({self.rep!r}, {self.block_morse!r})"


def minus_id_data(rep):
    """Block data of -Id on a representation: every block is fully negative."""
    morse = tuple(j if k == 0 else 2 * j for j, k in rep.parts)
    return LinearBlockData(rep, morse)


def lin_deg(d):
    """Gradient degree of a block-diagonal self-adjoint isomorphism."""
    m0 = 0
    for (j, k), m in zip(d.rep.parts, d.block_morse):
        if k == 0:
            m0 = m
    a0 = -1 if m0 % 2 else 1
    zk = {}
    for (j, k), m in zip(d.rep.parts, d.block_morse):
        if k >= 1 and m:
            zk[k] = a0 * (m // 2)
    return TomDieckElement(a0, zk)


def deg_id_minus_LA(A, tol=DEFAULT_TOL):
    """Degree of Id - L_A on the loop space for nonresonant symmetric A.

    The per-mode blocks of Id - L_A have Morse index j_k(A) (counted once
    per complex dimension), so the closed form collapses to

        a0 = (-1)^{j_0(A)},    Z_k coordinate = (-1)^{j_0(A)} * j_k(A).

    A matrix with spectrum below every k^2 gives the ring unit.
    """
    s = eigen_sym(A, tol)
    bad = resonant_frequencies(s)
    if bad:
        raise DegenerateSpectrumError(
            f"matrix is resonant: spectrum meets {{k^2}} at k in {sorted(bad)}; "
            "Id - L_A is not an isomorphism")
    return degree_of_spectrum(s, (-1) ** int(s.counts_above(0)))


def degree_of_spectrum(s, a0, undefined=frozenset()):
    """The element (a0, {k: a0 * j_k}) over k >= 1 outside ``undefined``.

    This is deg(Id - L_A) for a nonresonant A with a0 = (-1)^{j_0}, and the
    degree at a resonant endpoint with a0 the index at infinity.
    """
    check_frequency_count(frequency_bound(s.top) - 1)
    ks = np.arange(1, frequency_bound(s.top))
    counts = s.counts_above(ks).tolist()
    return TomDieckElement(a0, {k: a0 * j for k, j in zip(ks.tolist(), counts)
                                if k not in undefined})


def ind_infinity(A, n=None, tol=DEFAULT_TOL):
    """Brouwer index at infinity of -grad V for the built-in potential class.

    For a bounded Kepler-like perturbation of the quadratic form with matrix
    A the index equals (-1)^(n - m(A)) with m the count of strictly negative
    eigenvalues; zero eigenvalues are allowed, the perturbation resolves
    them.  Outside the built-in class there is no formula: the value comes
    from the caller through ``IndexRule.value``.
    """
    A = as_symmetric(A)
    if n is not None and n != A.n:
        raise ValueError(f"declared dimension {n} does not match matrix size {A.n}")
    return index_of_spectrum(eigen_sym(A, tol))


def index_of_spectrum(s):
    """``ind_infinity`` of a matrix from its spectrum: (-1)^(n - m(A))."""
    return -1 if (s.n - morse_index(s)) % 2 else 1
