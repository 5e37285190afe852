import math

import numpy as np
import pytest

from equideg.eqdeg import (BlockDataError, LinearBlockData, deg_id_minus_LA,
                           ind_infinity, lin_deg, minus_id_data)
from equideg.reps import RepDecomposition
from equideg.spectral import DegenerateSpectrumError
from equideg.udring import ONE, TomDieckElement, star

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)


def rand_block_data(rng, kmax=5):
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
    return LinearBlockData(RepDecomposition(parts), tuple(morse))


def concat_block_data(d1, d2):
    """Block-diagonal sum: merge multiplicities and Morse counts per k."""
    per_k = {}
    for d in (d1, d2):
        for (j, k), m in zip(d.rep.parts, d.block_morse):
            J, M = per_k.get(k, (0, 0))
            per_k[k] = (J + j, M + m)
    parts = [(J, k) for k, (J, _) in sorted(per_k.items())]
    morse = [M for _, (_, M) in sorted(per_k.items())]
    return LinearBlockData(RepDecomposition(parts), tuple(morse))


def test_block_data_validation():
    rep = RepDecomposition([(2, 0), (1, 3)])
    LinearBlockData(rep, (1, 2))
    with pytest.raises(BlockDataError):
        LinearBlockData(rep, (1, 1))  # odd Morse count on a rotating block
    with pytest.raises(BlockDataError):
        LinearBlockData(rep, (3, 2))  # exceeds block dimension
    with pytest.raises(BlockDataError):
        LinearBlockData(rep, (1,))
    with pytest.raises(TypeError):
        LinearBlockData([(2, 0)], (1,))
    with pytest.raises(AttributeError):
        LinearBlockData(rep, (1, 2)).block_morse = (0, 0)


def test_lin_deg_of_minus_id():
    d = minus_id_data(RepDecomposition([(2, 0), (3, 5)]))
    assert lin_deg(d) == TomDieckElement(1, {5: 3})
    d = minus_id_data(RepDecomposition([(1, 0), (2, 3)]))
    assert lin_deg(d) == TomDieckElement(-1, {3: -2})


def test_lin_deg_positive_definite_is_unit():
    rep = RepDecomposition([(2, 0), (1, 1), (4, 6)])
    assert lin_deg(LinearBlockData(rep, (0, 0, 0))) == ONE


def test_lin_deg_product_formula():
    rng = np.random.default_rng(29)
    for _ in range(60):
        d1, d2 = rand_block_data(rng), rand_block_data(rng)
        assert lin_deg(concat_block_data(d1, d2)) == star(lin_deg(d1), lin_deg(d2))


def test_lin_deg_suspension_invariance():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = rand_block_data(rng, kmax=4)
        # append a fresh positive-definite block at an unused frequency
        free_k = max(k for _, k in d.rep.parts) + 1
        sus = concat_block_data(
            d, LinearBlockData(RepDecomposition([(2, free_k)]), (0,)))
        assert lin_deg(sus) == lin_deg(d)
        sus0 = concat_block_data(
            d, LinearBlockData(RepDecomposition([(3, 0)]), (0,)))
        assert lin_deg(sus0) == lin_deg(d)


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
