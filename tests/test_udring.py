import pytest

from equideg.udring import (ONE, ZERO, TomDieckElement, add, product,
                            scalar_mul, star)


def rand_elem(rng, kmax=6, vmax=9):
    zk = {}
    for k in range(1, kmax + 1):
        if rng.random() < 0.5:
            zk[k] = int(rng.integers(-vmax, vmax + 1))
    return TomDieckElement(int(rng.integers(-vmax, vmax + 1)), zk)


def test_construction_trims_zero_coordinates():
    e = TomDieckElement(3, {1: 0, 2: 5, 9: 0})
    assert e.zk == {2: 5}
    assert e.coeff(1) == 0 and e.coeff(2) == 5 and e.coeff(9) == 0


def test_construction_rejects_bad_frequencies_and_values():
    with pytest.raises(ValueError):
        TomDieckElement(1, {0: 2})
    with pytest.raises(ValueError):
        TomDieckElement(1, {-3: 2})
    with pytest.raises(TypeError):
        TomDieckElement(1.5)
    with pytest.raises(TypeError):
        TomDieckElement(True)
    with pytest.raises(TypeError):
        TomDieckElement(1, {2: 1.0})


def test_64bit_overflow_is_an_error():
    with pytest.raises(OverflowError):
        TomDieckElement(2**63)
    with pytest.raises(OverflowError):
        TomDieckElement(0, {1: -(2**63) - 1})
    big = TomDieckElement(2**62)
    with pytest.raises(OverflowError):
        star(big, TomDieckElement(4))
    with pytest.raises(OverflowError):
        add(big, big)


def test_immutability_and_hash():
    e = TomDieckElement(1, {2: 3})
    with pytest.raises(AttributeError):
        e.a0 = 7
    assert hash(e) == hash(TomDieckElement(1, {2: 3}))
    assert e == TomDieckElement(1, {2: 3})
    assert e != TomDieckElement(1, {2: 4})


def test_addition_is_coordinatewise():
    e = TomDieckElement(2, {1: 3, 4: -1})
    f = TomDieckElement(-1, {1: 1, 2: -4})
    assert add(e, f) == TomDieckElement(1, {1: 4, 2: -4, 4: -1})
    assert e + f == add(e, f)
    assert e - f == TomDieckElement(3, {1: 2, 2: 4, 4: -1})
    assert -e == TomDieckElement(-2, {1: -3, 4: 1})


def test_star_mixes_only_through_the_so2_coordinate():
    # (a*b)_k = a0*b_k + b0*a_k, never b_j*a_i cross terms
    e = TomDieckElement(2, {1: 3, 4: -1})
    f = TomDieckElement(-1, {1: 1, 2: -4})
    assert star(e, f) == TomDieckElement(-2, {1: -1, 2: -8, 4: 1})
    g = TomDieckElement(0, {3: 5})
    assert star(g, g) == ZERO


def test_units_and_zero():
    e = TomDieckElement(-7, {2: 1, 5: -6})
    assert star(e, ONE) == e
    assert star(ONE, e) == e
    assert add(e, ZERO) == e
    assert star(e, ZERO) == ZERO
    assert not ZERO
    assert ONE
    assert product([]) == ONE
    assert product([e]) == e


def test_scalar_multiplication():
    e = TomDieckElement(2, {3: -1})
    assert scalar_mul(-3, e) == TomDieckElement(-6, {3: 3})
    assert 2 * e == e * 2 == scalar_mul(2, e)
    with pytest.raises(TypeError):
        scalar_mul(1.5, e)


def test_ring_laws_randomized():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = (rand_elem(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert star(a, b) == star(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert star(star(a, b), c) == star(a, star(b, c))
        assert star(a, add(b, c)) == add(star(a, b), star(a, c))
        assert add(a, ZERO) == a
        assert star(a, ONE) == a
        assert add(a, scalar_mul(-1, a)) == ZERO


def test_product_folds_left():
    import numpy as np

    rng = np.random.default_rng(11)
    elems = [rand_elem(rng, kmax=3, vmax=3) for _ in range(4)]
    acc = ONE
    for e in elems:
        acc = star(acc, e)
    assert product(elems) == acc


def test_json_round_trip():
    e = TomDieckElement(-4, {7: -9, 1: 2, 3: 0})
    assert e.to_json() == {"so2": -4, "zk": {"1": 2, "7": -9}}
