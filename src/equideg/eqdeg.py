"""Closed-form equivariant degrees of the loop-space operator Id - L_A.

For a nonresonant symmetric matrix A the mode-k block of Id - L_A has Morse
index j_k(A) per complex dimension (j_0(A) on the constant loops), where
j_k(A) counts the eigenvalues above k^2, so its gradient degree is the unit

    deg(Id - L_A) = ((-1)^{j_0}, {k: (-1)^{j_0} j_k})

of the tom Dieck ring.  ``degree_of_spectrum`` reads every j_k off one
sorted spectrum; it is the one formula the analysis computes degrees with,
and ``deg_id_minus_LA`` applies it to a matrix.  ``ind_infinity`` is the
Brouwer index at infinity available in closed form for the built-in
bounded-perturbation class; ``index_of_spectrum`` is the same formula on a
spectrum already computed.
"""

import numpy as np

from .spectral import (DEFAULT_TOL, DegenerateSpectrumError, check_frequency_count,
                       eigen_sym, frequency_bound, morse_index, resonant_frequencies)
from .udring import TomDieckElement


class MissingIndexError(ValueError):
    """The index at infinity is needed but neither computable nor supplied."""


def deg_id_minus_LA(A, tol=DEFAULT_TOL):
    """deg(Id - L_A) on the loop space for a nonresonant symmetric A: the
    ``degree_of_spectrum`` of A with a0 = (-1)^{j_0(A)}, the ring unit for a
    spectrum below every k^2.  A resonant A raises DegenerateSpectrumError."""
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
    s = eigen_sym(A, tol)
    if n is not None and n != s.n:
        raise ValueError(f"declared dimension {n} does not match matrix size {s.n}")
    return index_of_spectrum(s)


def index_of_spectrum(s):
    """``ind_infinity`` of a matrix from its spectrum: (-1)^(n - m(A))."""
    return -1 if (s.n - morse_index(s)) % 2 else 1
