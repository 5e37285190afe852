import math

import numpy as np
import pytest

from equideg.eqdeg import deg_id_minus_LA, ind_infinity
from equideg.spectral import DegenerateSpectrumError
from equideg.udring import ONE, TomDieckElement, star

from oracles import (charpoly_eigenvalues, lin_deg, loop_degree, minus_id_morse,
                     random_symmetric)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)


def block_deg(d):
    """The oracle's block formula on block data d = (parts, morse)."""
    return TomDieckElement(*lin_deg(*d))


def rand_block_data(rng, kmax=5):
    """Block data (parts, morse) on one to three blocks at distinct k."""
    ks = sorted(rng.choice(np.arange(0, kmax + 1), size=int(rng.integers(1, 4)),
                           replace=False).tolist())
    parts, morse = [], []
    for k in ks:
        j = int(rng.integers(1, 4))
        parts.append((j, int(k)))
        dim = j if k == 0 else 2 * j
        m = int(rng.integers(0, dim + 1))
        if k >= 1 and m % 2:
            m -= 1
        morse.append(m)
    return tuple(parts), tuple(morse)


def concat_block_data(d1, d2):
    """Block-diagonal sum: merge multiplicities and Morse counts per k."""
    per_k = {}
    for parts, morse in (d1, d2):
        for (j, k), m in zip(parts, morse):
            J, M = per_k.get(k, (0, 0))
            per_k[k] = (J + j, M + m)
    return (tuple((J, k) for k, (J, _) in sorted(per_k.items())),
            tuple(M for _, (_, M) in sorted(per_k.items())))


# the block formula lives in tests/oracles.py, an oracle of degree_of_spectrum
def test_block_data_validation():
    parts = ((2, 0), (1, 3))
    assert lin_deg(parts, (1, 2)) == (-1, {3: -1})
    with pytest.raises(ValueError):
        lin_deg(parts, (1, 1))  # odd Morse count on a rotating block
    with pytest.raises(ValueError):
        lin_deg(parts, (3, 2))  # exceeds block dimension
    with pytest.raises(ValueError):
        lin_deg(parts, (1,))
    with pytest.raises(ValueError):
        lin_deg(((1, 3), (2, 0)), (2, 1))  # frequencies out of order


def test_lin_deg_of_minus_id():
    parts = ((2, 0), (3, 5))
    assert block_deg((parts, minus_id_morse(parts))) == TomDieckElement(1, {5: 3})
    parts = ((1, 0), (2, 3))
    assert block_deg((parts, minus_id_morse(parts))) == TomDieckElement(-1, {3: -2})


def test_lin_deg_positive_definite_is_unit():
    assert block_deg((((2, 0), (1, 1), (4, 6)), (0, 0, 0))) == ONE


def test_lin_deg_product_formula():
    rng = np.random.default_rng(29)
    for _ in range(60):
        d1, d2 = rand_block_data(rng), rand_block_data(rng)
        assert block_deg(concat_block_data(d1, d2)) == star(block_deg(d1), block_deg(d2))


def test_lin_deg_suspension_invariance():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = rand_block_data(rng, kmax=4)
        # append a fresh positive-definite block at an unused frequency
        free_k = max(k for _, k in d[0]) + 1
        assert block_deg(concat_block_data(d, (((2, free_k),), (0,)))) == block_deg(d)
        assert block_deg(concat_block_data(d, (((3, 0),), (0,)))) == block_deg(d)


def _nonresonant_symmetric(rng):
    """A random symmetric n x n matrix, n <= 4, with its eigenvalues at
    least 1e-3 from every square k^2 and from each other."""
    while True:
        n = int(rng.integers(1, 5))
        A = random_symmetric(rng, n, scale=3.0) + rng.uniform(-4.0, 20.0) * np.eye(n)
        eig = np.linalg.eigvalsh(A)
        squares = np.arange(8.0) ** 2
        if np.abs(eig[:, None] - squares).min() > 1e-3 and np.all(np.diff(eig) > 1e-3):
            return A


def test_product_law_on_the_pipeline():
    # deg(Id - L_{A (+) B}) = deg(Id - L_A) * deg(Id - L_B), with every degree
    # from degree_of_spectrum, and the block formula agreeing on each
    rng = np.random.default_rng(33)
    for _ in range(200):
        A, B = _nonresonant_symmetric(rng), _nonresonant_symmetric(rng)
        AB = np.block([[A, np.zeros((len(A), len(B)))], [np.zeros((len(B), len(A))), B]])
        dA, dB, dAB = deg_id_minus_LA(A), deg_id_minus_LA(B), deg_id_minus_LA(AB)
        assert dAB == star(dA, dB)
        for M, d in ((A, dA), (B, dB)):
            assert TomDieckElement(*loop_degree(charpoly_eigenvalues(M))) == d


def test_deg_id_minus_la_negative_definite():
    assert deg_id_minus_LA(np.diag([-1.0, -2.0])) == ONE


def test_deg_id_minus_la_example_endpoints():
    A = np.diag([4.5, 2.0, 2.0, 2.0])
    assert deg_id_minus_LA(A) == TomDieckElement(1, {1: 4, 2: 1})
    Am = np.diag([4.5, -1.0 - SQRT10, 9.5, -1.0 + SQRT10, 25.5])
    assert deg_id_minus_LA(Am) == TomDieckElement(1, {1: 4, 2: 3, 3: 2, 4: 1, 5: 1})
    Ap = np.diag([4.5, 1.0 - SQRT10, 9.5, 1.0 + SQRT10, 25.5])
    assert deg_id_minus_LA(Ap) == TomDieckElement(1, {1: 4, 2: 4, 3: 2, 4: 1, 5: 1})


def test_deg_id_minus_la_matches_diagonal_counting():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        d = rng.uniform(-4.0, 28.0, size=n)
        if any(abs(v - k * k) < 1e-6 for v in d for k in range(7)):
            continue
        got = deg_id_minus_LA(np.diag(d))
        j0 = int(np.sum(d > 0.0))
        a0 = -1 if j0 % 2 else 1
        assert got.a0 == a0
        for k in range(1, 7):
            assert got.coeff(k) == a0 * int(np.sum(d > k * k))


def test_deg_id_minus_la_sign_flips_when_eigenvalue_crosses_zero():
    before = deg_id_minus_LA(np.diag([-0.5, 2.0]))
    after = deg_id_minus_LA(np.diag([0.5, 2.0]))
    assert before.a0 == -after.a0


def test_deg_id_minus_la_rejects_resonant_matrix():
    with pytest.raises(DegenerateSpectrumError):
        deg_id_minus_LA(np.diag([4.0, 2.0]))
    with pytest.raises(DegenerateSpectrumError):
        deg_id_minus_LA(np.diag([0.0, 2.0]))


def test_ind_infinity():
    A1p = np.diag([0.0, SQRT2 + 1.0, 1.0 - SQRT2, SQRT5 + 1.0])
    A1m = np.diag([0.0, SQRT2 - 1.0, -1.0 - SQRT2, SQRT5 - 1.0])
    assert ind_infinity(A1p, 4) == -1
    assert ind_infinity(A1m, 4) == -1
    assert ind_infinity(np.diag([1.0, 2.0]), 2) == 1
    assert ind_infinity(np.diag([-1.0, -2.0, -3.0]), 3) == 1
    assert ind_infinity(np.diag([5.0])) == -1


def test_ind_infinity_requires_builtin_class_or_value():
    with pytest.raises(ValueError):
        ind_infinity(np.diag([1.0, 2.0]), n=3)
