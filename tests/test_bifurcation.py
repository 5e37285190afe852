"""Bifurcation indices, the three criteria and the assembled report."""

import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import equideg.bifurcation as bifurcation
import equideg.spectral as spectral
from equideg.bifurcation import (AccumulationWarning, Eqcont3Point,
                                 IndexContradictionError, IndexRule,
                                 Perturbation, PreconditionError,
                                 ProblemSpec, bif_index,
                                 build_report, check_eqcont1,
                                 check_eqcont2, consistency_check,
                                 endpoint_degree, eqcont3_points)
from equideg.eqdeg import MissingIndexError, deg_id_minus_LA
from equideg.problems import example1, example2, example3
from equideg.reps import SO2, RepDecomposition, isotropy_gcd_set, period_labels
from equideg.spectral import (MatrixFamily, ResonancePoint, SpectralData,
                              TangencyWarning, resonant_frequencies, eigen_sym,
                              scan_resonances)
from equideg.udring import ZERO, TomDieckElement

from oracles import (charpoly_eigenvalues, random_orthogonal, random_symmetric,
                     reference_report)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded stiff and dense families)


def diag_family(*entries):
    """MatrixFamily from diagonal entry polynomials {power: coeff}."""
    n = len(entries)
    return MatrixFamily.from_entry_polynomials(
        n, {(i + 1, i + 1): poly for i, poly in enumerate(entries)})


def kepler_problem(family, scaled=False):
    return ProblemSpec(family.n, family, Perturbation.kepler(1.0, "constant"),
                       IndexRule.builtin(), scaled=scaled)


# ---------------------------------------------------------------- perturbations

def test_kepler_gradient_matches_finite_differences():
    pert = Perturbation.kepler(0.7, "lambda_squared")
    rng = np.random.default_rng(41)
    x = rng.normal(size=3)
    lam = 1.3
    g = pert.gradient_many(x[None, :], lam)[0]
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (pert.value_many((x + e)[None, :], lam)[0]
              - pert.value_many((x - e)[None, :], lam)[0]) / (2 * h)
        assert abs(g[i] - fd) < 1e-8


@pytest.mark.parametrize("scale", ["constant", "lambda_squared"])
def test_user_perturbation_differences_match_kepler(scale):
    # handed the Kepler gradient, the user kind's central differences
    # reproduce the analytic Hessian and lambda derivative
    kepler = Perturbation.kepler(0.7, scale)
    user = Perturbation.user(lambda x, lam: kepler.gradient_many(x, lam)[0])
    rng = np.random.default_rng(21)
    X = rng.normal(size=(8, 3))
    for lam in (-1.3, 0.4, 2.0):
        for name in ("hessian_many", "gradient_lambda_many"):
            want = getattr(kepler, name)(X, lam)
            got = getattr(user, name)(X, lam)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_kepler_hessian_matches_finite_differences():
    pert = Perturbation.kepler(1.0, "constant")
    x = np.array([0.3, -0.7, 0.2])
    H = pert.hessian_many(x, 0.0)[0]
    assert np.allclose(H, H.T)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (pert.gradient_many((x + e)[None, :], 0.0)[0]
              - pert.gradient_many((x - e)[None, :], 0.0)[0]) / (2 * h)
        assert np.allclose(H[:, i], fd, atol=1e-8)


def test_kepler_gradient_is_bounded_and_odd():
    pert = Perturbation.kepler(1.0, "constant")
    X = np.array([[1e6, 0.0], [0.0, -1e6], [0.5, 0.5]])
    G = pert.gradient_many(X, 0.0)
    assert np.all(np.abs(G) < 1.0)
    assert np.allclose(pert.gradient_many(-X, 0.0), -G)


def test_kepler_scale_lambda_squared_vanishes_at_zero():
    pert = Perturbation.kepler(1.0, "lambda_squared")
    X = np.array([[1.0, 2.0]])
    assert np.allclose(pert.gradient_many(X, 0.0), 0.0)
    assert pert.value_many(X, 0.0)[0] == 0.0


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation("kepler", a=-1.0, scale="constant")
    with pytest.raises(ValueError, match="positive finite a"):
        Perturbation.kepler(math.inf)
    with pytest.raises(ValueError):
        Perturbation.kepler(1.0, scale="cubic")
    with pytest.raises(ValueError):
        Perturbation("user")
    with pytest.raises(ValueError):
        Perturbation("gravity")
    with pytest.raises(AttributeError):
        Perturbation.none().kind = "kepler"


def test_user_perturbation_routes_callables():
    pert = Perturbation.user(lambda x, lam: 2.0 * x, value=lambda x, lam: x @ x)
    X = np.array([[1.0, -2.0]])
    assert np.allclose(pert.gradient_many(X, 0.0), [[2.0, -4.0]])
    assert pert.value_many(X, 0.0)[0] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        Perturbation.user(lambda x, lam: x).value_many(X, 0.0)
    assert np.allclose(pert.hessian_many(X, 0.0)[0], 2.0 * np.eye(2),
                       rtol=0.0, atol=1e-9)


# ------------------------------------------------------------------ index rule

def test_index_rule_builtin_and_value_and_unavailable():
    s = eigen_sym(np.diag([2.0, -3.0]))
    assert IndexRule.builtin().ind_of(s, 0.0) == (-1) ** (2 - 1)
    assert IndexRule.value(5).ind_of(s, 0.0) == 5
    assert IndexRule.value(lambda lam: 3 if lam > 0 else -3).ind_of(s, 1.0) == 3
    rule = IndexRule.unavailable()
    assert rule.kind == "unavailable"
    with pytest.raises(MissingIndexError):
        rule.ind_of(s, 0.0)
    with pytest.raises(ValueError):
        IndexRule("value")
    with pytest.raises(ValueError):
        IndexRule("magic")
    with pytest.raises(AttributeError):
        rule.kind = "builtin"


def test_index_rule_value_rejects_an_index_that_is_not_an_integer():
    s = eigen_sym(np.diag([2.0, -3.0]))
    assert IndexRule.value(np.int64(-2)).ind_of(s, 0.0) == -2
    for v in (1.5, -0.7, "1", True, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"got {v!r}")):
            IndexRule.value(v)
    for v in (2.9, False, None):
        with pytest.raises(ValueError, match=f"got {v!r}"):
            IndexRule.value(lambda lam, v=v: v).ind_of(s, 0.0)


# ----------------------------------------------------------------- problem spec

def test_problem_spec_gradient_and_potential():
    ex = example2()
    X = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, -0.5, 1.0, 2.0]])
    lam = 0.25
    A = ex.problem().family.eval(lam)
    G = ex.problem().gradient_many(X, lam)
    # quadratic part x A plus the bounded gravitational gradient
    pert = ex.problem().perturbation.gradient_many(X, lam)
    assert np.allclose(G, X @ A + pert)
    # gradient of the potential, checked by finite differences
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (ex.problem().potential_many(X + e, lam)
              - ex.problem().potential_many(X - e, lam)) / (2 * h)
        assert np.allclose(G[:, j], fd, atol=1e-7)


def test_problem_spec_hessian_is_jacobian_of_gradient():
    ex = example2()
    x = np.array([0.2, -0.1, 0.4, 0.3])
    lam = 0.1
    H = ex.problem().hessian_many(x, lam)[0]
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (ex.problem().gradient_many((x + e)[None], lam)[0]
              - ex.problem().gradient_many((x - e)[None], lam)[0]) / (2 * h)
        assert np.allclose(H[:, j], fd, atol=1e-7)


def test_problem_spec_validation():
    fam = diag_family({0: 1.0})
    with pytest.raises(ValueError):
        ProblemSpec(2, fam)
    with pytest.raises(TypeError):
        ProblemSpec(1, np.eye(1))
    with pytest.raises(ValueError):
        ProblemSpec(1, fam).scaled_base_matrix()
    p = ProblemSpec(1, fam, None, None)
    assert p.perturbation.kind == "none" and p.index_rule.kind == "unavailable"
    with pytest.raises(AttributeError):
        p.scaled = True


def test_scaled_problem_needs_a_lambda_squared_family():
    # 4 + lambda^2 is not lambda^2 A: rejected at construction instead of
    # falling through build_report to criterion "none"
    fam = MatrixFamily([[[4.0]], [[0.0]], [[1.0]]])
    with pytest.raises(ValueError, match="lambda\\^2"):
        ProblemSpec(1, fam, Perturbation.kepler(1.0), IndexRule.builtin(), scaled=True)


# ------------------------------------------------------------- endpoint degrees

def test_endpoint_degree_nonresonant_agrees_with_closed_form():
    ex = example2()
    for lam in (ex.lambda_minus, ex.lambda_plus):
        deg, undefined, s = endpoint_degree(ex.problem(), lam)
        assert undefined == frozenset()
        assert deg == deg_id_minus_LA(ex.problem().family.eval(lam))


def test_endpoint_degree_resonant_endpoint_uses_index():
    # example1 at lambda = -1: spectrum {0, sqrt2 - 1, -1 - sqrt2, sqrt5 - 1},
    # resonant only at frequency 0, index (-1)^(4-1) = -1, j_1 = 1
    ex = example1()
    deg, undefined, s = endpoint_degree(ex.problem(), -1.0)
    assert undefined == frozenset()
    assert resonant_frequencies(s) == frozenset({0})
    assert deg == TomDieckElement(-1, {1: -1})
    deg_p, _, _ = endpoint_degree(ex.problem(), 1.0)
    assert deg_p == TomDieckElement(-1, {1: -2})


def test_endpoint_degree_marks_undefined_coordinates():
    # constant eigenvalue exactly at 1^2 leaves Z_1 undefined
    fam = diag_family({0: 1.0}, {0: 7.0})
    p = kepler_problem(fam)
    deg, undefined, _ = endpoint_degree(p, 0.0)
    assert undefined == frozenset({1})
    assert 1 not in deg.zk
    assert deg.a0 == (-1) ** 2  # no strictly negative eigenvalues, n = 2
    assert deg.zk.get(2) == 1  # j_2 counts the eigenvalue 7 > 4


def test_endpoint_degree_without_index_raises():
    fam = diag_family({0: 1.0})
    p = ProblemSpec(1, fam, Perturbation.none(), IndexRule.unavailable())
    with pytest.raises(MissingIndexError):
        endpoint_degree(p, 0.0)


# ------------------------------------------------------------------- bif index

def test_bif_index_example1():
    ex = example1()
    assert bif_index(ex.problem(), ex.lambda_minus, ex.lambda_plus) == TomDieckElement(0, {1: -1})


def test_bif_index_example2():
    ex = example2()
    assert bif_index(ex.problem(), ex.lambda_minus, ex.lambda_plus) == TomDieckElement(0, {2: 1})


def test_bif_index_example3():
    ex = example3()
    assert bif_index(ex.problem(), ex.lambda_minus, ex.lambda_plus) == TomDieckElement(0, {2: 1})


def test_bif_index_trims_undefined_coordinates():
    # both endpoints resonant at k = 1: the Z_1 coordinate is dropped
    fam = diag_family({0: 1.0}, {1: 1.0, 0: 7.0})
    p = kepler_problem(fam)
    bif, undefined = bifurcation._bif(*bifurcation._endpoints(p, -0.5, 0.5, 1e-9))
    assert undefined == frozenset({1})
    assert 1 not in bif.zk


def test_bif_index_antisymmetric_on_nonresonant_endpoints():
    ex = example2()
    fwd = bif_index(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    rev = bif_index(ex.problem(), ex.lambda_plus, ex.lambda_minus)
    assert fwd == -1 * rev


def _random_nonresonant_problem(rng, n):
    """Polynomial family of degree <= 2 with three nonresonant probe values."""
    while True:
        coeffs = np.stack([random_symmetric(rng, n, scale=3.0)
                           for _ in range(3)])
        fam = MatrixFamily(coeffs)
        lams = np.sort(rng.uniform(-1.5, 1.5, size=3))
        if any(abs(b - a) < 0.05 for a, b in zip(lams, lams[1:])):
            continue
        if all(not resonant_frequencies(eigen_sym(fam.eval(l))) for l in lams):
            return kepler_problem(fam), lams


def test_bif_index_additive_over_subdivision():
    rng = np.random.default_rng(43)
    for _ in range(25):
        p, (a, b, c) = _random_nonresonant_problem(rng, int(rng.integers(1, 5)))
        whole = bif_index(p, a, c)
        left = bif_index(p, a, b)
        right = bif_index(p, b, c)
        assert whole == left + right
        assert bif_index(p, b, a) == -1 * left


def _brute_j_jumps(s_m, s_p):
    vm, vp = s_m.expanded.tolist(), s_p.expanded.tolist()
    out = []
    for k in range(1, math.isqrt(int(max(vm + vp + [0.0]))) + 2):
        jm, jp = sum(v > k * k for v in vm), sum(v > k * k for v in vp)
        if jm != jp:
            out.append((k, jm, jp))
    return out


@pytest.mark.parametrize("workload", ["stiff", "dense"])
def test_j_jumps_match_brute_force_counts(workload):
    for seed in range(5):
        for fam in workloads.make_inputs(workload, seed):
            mf = MatrixFamily(fam.coeffs())
            s_m, s_p = eigen_sym(mf.eval(workloads.LO)), eigen_sym(mf.eval(workloads.HI))
            assert bifurcation._j_jumps(s_m, s_p) == _brute_j_jumps(s_m, s_p), fam.label
            assert bifurcation._j_jumps(s_p, s_m) == _brute_j_jumps(s_p, s_m), fam.label


def test_j_jumps_from_an_eigenvalue_on_a_square():
    # j_2 counts eigenvalues strictly above 4, so 4 -> 5 moves it
    s_m, s_p = SpectralData(((4.0, 1),), 1e-9), SpectralData(((5.0, 1),), 1e-9)
    assert bifurcation._j_jumps(s_m, s_p) == _brute_j_jumps(s_m, s_p) == [(2, 0, 1)]


# ------------------------------------------------------------------ criterion 1

def test_eqcont1_fires_on_index_flip():
    # eigenvalue 2*lambda changes sign: index flips between the endpoints
    p = kepler_problem(diag_family({1: 2.0}))
    v = check_eqcont1(p, -1.0, 1.0)
    assert v.holds and v.name == "eqcont1(i)"
    assert "flips" in v.message


def test_eqcont1_fires_on_jk_jump_outside_kset():
    ex = example1()
    v = check_eqcont1(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert v.holds and v.name == "eqcont1(ii)"
    assert v.witness_k == 1
    assert v.kset == frozenset()


def test_eqcont1_jump_at_kset_frequency_does_not_fire():
    # eigenvalue pinned at 4 = 2^2 at both endpoints puts 2 in the K-set,
    # the second entry jumps across 4 as well, so the only j_2 jump is
    # hidden; frequencies 1 (from gcd closure) stay jump-free
    fam = diag_family({0: 4.0}, {1: 1.0, 0: 4.0})
    p = kepler_problem(fam)
    v = check_eqcont1(p, -0.5, 0.5)
    assert 2 in v.kset
    assert not v.holds


def test_eqcont1_silent_for_constant_family():
    p = kepler_problem(diag_family({0: 2.0}))
    v = check_eqcont1(p, -1.0, 1.0)
    assert not v.holds
    assert v.name == "eqcont1"


def test_eqcont1_needs_the_index():
    fam = diag_family({1: 2.0})
    p = ProblemSpec(1, fam, Perturbation.none(), IndexRule.unavailable())
    with pytest.raises(MissingIndexError):
        check_eqcont1(p, -1.0, 1.0)


def test_a_supplied_index_contradicting_the_spectrum_is_named():
    # A(lambda) = 0.5 + 0.1 lambda is nonresonant at both ends with j_0 = 1,
    # so the index is -1 there; the rule supplies +1 at lambda = 1, and the
    # cascade reaches eqcont1, which reads it
    fam = MatrixFamily([[[0.5]], [[0.1]]])
    flip = IndexRule.value(lambda lam: 1 if lam > 0 else -1)
    p = ProblemSpec(1, fam, Perturbation.kepler(1.0), flip)
    with pytest.raises(IndexContradictionError,
                       match=re.escape("index at infinity 1 supplied at lambda = 1 ")) as exc:
        build_report(p, -1.0, 1.0)
    assert "(-1)^j_0 = -1" in str(exc.value)
    assert not issubclass(IndexContradictionError, (MissingIndexError, PreconditionError))
    # the value the spectrum fixes is accepted, and at a resonant endpoint
    # the rule is the only source of the index
    agree = ProblemSpec(1, fam, Perturbation.kepler(1.0), IndexRule.value(-1))
    assert build_report(agree, -1.0, 1.0).criterion.name == "none"
    resonant = ProblemSpec(1, diag_family({1: 1.0}), Perturbation.kepler(1.0),
                           IndexRule.value(lambda lam: 1 if lam > 0 else -1))
    assert build_report(resonant, 0.0, 1.0).criterion.name == "eqcont1(i)"


# ------------------------------------------------------------------ criterion 2

def test_eqcont2_fires_on_example2():
    ex = example2()
    v = check_eqcont2(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert v.holds and v.name == "eqcont2(ii)"
    assert v.witness_k == 2
    assert v.lambda0 == pytest.approx(0.0, abs=1e-9)
    assert "meets (infinity, lambda0 = 0)" in v.message


def test_eqcont2_fires_on_j0_flip():
    # n = 1, eigenvalue lambda crosses 0: j_0 flips 0 -> 1
    p = kepler_problem(diag_family({1: 1.0}))
    v = check_eqcont2(p, -0.5, 0.5)
    assert v.holds and v.name == "eqcont2(i)"
    assert v.lambda0 == pytest.approx(0.0, abs=1e-9)


def test_eqcont2_rejects_resonant_endpoint():
    ex = example2()
    with pytest.raises(PreconditionError, match="nonresonant"):
        check_eqcont2(ex.problem(), 0.0, ex.lambda_plus)


def test_eqcont2_rejects_example3_two_resonances():
    ex = example3()
    with pytest.raises(PreconditionError, match="exactly one") as err:
        check_eqcont2(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    # both interior resonances are named: 0 and (4 - sqrt10)^(1/3)
    msg = str(err.value)
    assert "0.0" in msg and "0.9426852" in msg


def test_eqcont2_rejects_no_resonance():
    p = kepler_problem(diag_family({0: 2.0}))
    with pytest.raises(PreconditionError, match="found 0"):
        check_eqcont2(p, -1.0, 1.0)


# ------------------------------------------------------------------ criterion 3

def scaled_problem(A):
    fam = MatrixFamily.scaled_quadratic(np.asarray(A, dtype=float))
    return ProblemSpec(fam.n, fam, Perturbation.kepler(1.0, "lambda_squared"),
                       IndexRule.builtin(), scaled=True)


def test_eqcont3_single_eigenvalue_grid():
    # A = [4]: bifurcation points k/2 inside (0.4, 1.6) are 0.5, 1.0, 1.5
    p = scaled_problem([[4.0]])
    pts = eqcont3_points(p, (0.4, 1.6))
    assert [pt.lambda0 for pt in pts] == pytest.approx([0.5, 1.0, 1.5])
    assert [pt.k0 for pt in pts] == [1, 2, 3]
    ind = (-1) ** 1  # n = 1, no negative eigenvalues
    assert all(pt.bif_zk0 == ind for pt in pts)
    assert all(pt.alpha0 == 4.0 for pt in pts)


def test_eqcont3_keeps_coincident_points_of_different_k_apart():
    # alpha = 1 with k = 1 and alpha = 4 with k = 2 both give lambda0 = 1;
    # each jump sits in its own Z_k coordinate, as in the interval's index
    p = scaled_problem(np.diag([1.0, 4.0]))
    pts = eqcont3_points(p, (0.9, 1.1))
    assert [(pt.lambda0, pt.k0, pt.alpha0, pt.bif_zk0) for pt in pts] == [
        (1.0, 1, pytest.approx(1.0), 1), (1.0, 2, pytest.approx(4.0), 1)]
    r = build_report(p, 0.9, 1.1)
    assert r.bif == TomDieckElement(0, {1: 1, 2: 1})
    assert r.eqcont3 == pts


def test_eqcont3_ignores_negative_spectrum():
    p = scaled_problem(np.diag([-9.0, 4.0]))
    pts = eqcont3_points(p, (0.4, 1.1))
    assert [pt.lambda0 for pt in pts] == pytest.approx([0.5, 1.0])
    assert all(pt.alpha0 == pytest.approx(4.0) for pt in pts)


def test_eqcont3_rejects_singular_base_matrix():
    p = scaled_problem(np.diag([0.0, 4.0]))
    with pytest.raises(PreconditionError, match="eigenvalue at 0"):
        eqcont3_points(p, (0.4, 1.6))


def test_eqcont3_warns_near_zero_spectrum():
    # eigenvalue above tolerance but close enough to 0 that the points
    # k/sqrt(alpha) pile up far out and lose accuracy
    p = scaled_problem([[1e-6]])
    with pytest.warns(AccumulationWarning):
        pts = eqcont3_points(p, (0.4, 2.5e3))
    assert [pt.lambda0 for pt in pts] == pytest.approx([1e3, 2e3])


def test_eqcont3_window_validation():
    p = scaled_problem([[4.0]])
    with pytest.raises(ValueError):
        eqcont3_points(p, (-0.5, 1.0))
    with pytest.raises(ValueError):
        eqcont3_points(p, (1.0, 0.5))
    with pytest.raises(ValueError, match="window must sit inside"):
        eqcont3_points(p, (0.5, math.inf))
    # the points k/2, k = 1..200000, are counted before any is enumerated
    with pytest.raises(PreconditionError, match="200000 candidate points"):
        eqcont3_points(p, (0.5, 1e5))


def test_eqcont3_point_json():
    pt = Eqcont3Point(1.0, 2, 4.0, -1)
    assert pt.to_json() == {"lambda0": 1.0, "k0": 2, "alpha0": 4.0, "bif_zk0": -1}
    assert json.loads(json.dumps(pt.to_json())) == pt.to_json()


def test_eqcont3_counts_only_points_strictly_inside_the_window():
    # A = diag(4, 4): points k/2; 1.0 (k = 2) and 1.5 (k = 3) sit on window ends
    p = scaled_problem(np.diag([4.0, 4.0]))
    assert eqcont3_points(p, (1.0, 1.5)) == []
    assert eqcont3_points(p, (1.0, 1.4)) == []
    assert [(pt.lambda0, pt.k0) for pt in eqcont3_points(p, (1.0, 1.6))] == [(1.5, 3)]


# --------------------------------------------------------------------- periods

def rp(lam0, freqs):
    return ResonancePoint(lam0, RepDecomposition(tuple((1, k) for k in sorted(freqs))))


def periods(lam0, freqs):
    """A resonance's predicted periods: its kernel's isotropy labels."""
    return isotropy_gcd_set(rp(lam0, freqs).kernel_rep)


def test_predict_periods_single_frequency():
    labels = periods(0.0, {2})
    assert labels == frozenset({2})
    assert period_labels(labels) == ["pi"]


def test_predict_periods_example3_point():
    labels = periods(0.0, {2, 3, 5})
    assert labels == frozenset({1, 2, 3, 5})
    assert period_labels(labels) == ["2pi", "pi", "2pi/3", "2pi/5"]


def test_predict_periods_zero_frequency_only():
    labels = periods(-1.0, {0})
    assert labels == frozenset({SO2})
    assert period_labels(labels) == ["0"]
    with pytest.raises(ValueError, match="at least one frequency"):
        rp(-1.0, set())


def test_predict_periods_mixed():
    labels = periods(0.0, {0, 4, 6})
    assert labels == frozenset({2, 4, 6, SO2})
    assert period_labels(labels) == ["pi", "2pi/4", "2pi/6", "0"]


# ----------------------------------------------------------------- consistency

def test_consistency_disjoint_labels():
    trivial = RepDecomposition(())
    mode2 = RepDecomposition(((1, 2),))
    v = consistency_check(trivial, mode2)
    assert not v["consistent"]
    assert v["shared"] == []


def test_consistency_shared_gcd_label():
    left = RepDecomposition(((1, 4), (1, 6)))
    right = RepDecomposition(((2, 2),))
    v = consistency_check(left, right)
    assert v["consistent"]
    assert 2 in v["shared"]


def test_consistency_json_encoding_sorts_mixed_labels():
    left = RepDecomposition(((1, 0), (1, 3)))
    right = RepDecomposition(((1, 3),))
    obj = consistency_check(left, right)
    assert obj["shared"] == [3]
    assert obj["labels_left"][-1] == "SO(2)"


# --------------------------------------------------------------------- reports

def test_build_report_example2_fires_eqcont2():
    ex = example2()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert r.criterion.name == "eqcont2(ii)" and r.criterion.holds
    assert r.bif == TomDieckElement(0, {2: 1})
    assert r.bif_ls == 0
    assert len(r.resonances) == 1
    assert period_labels(isotropy_gcd_set(r.resonances[0].kernel_rep)) == ["pi"]
    assert r.to_json()["predicted_periods"] == [
        {"lambda0": r.resonances[0].lambda0, "divisors": [2], "includes_zero": False}]
    assert r.flags["zero_set_bounded"] is True


def test_build_report_example1_falls_back_to_eqcont1():
    ex = example1()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert r.criterion.name == "eqcont1(ii)"
    assert r.criterion.witness_k == 1
    assert [round(x.lambda0, 6) for x in r.resonances] == \
        pytest.approx([-1.0, 1.0 - math.sqrt(2.0), 1.0], abs=1e-6)


def test_build_report_example3_survives_double_resonance():
    ex = example3()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert r.criterion.name == "eqcont1(ii)"
    assert r.criterion.witness_k == 2
    assert len(r.resonances) == 2
    assert r.resonances[0].frequencies == frozenset({2, 3, 5})
    assert r.resonances[1].frequencies == frozenset({2})
    assert r.resonances[1].lambda0 == pytest.approx((4.0 - math.sqrt(10.0)) ** (1 / 3),
                                                    abs=1e-6)


def test_build_report_scaled_family_uses_eqcont3():
    p = scaled_problem([[4.0]])
    r = build_report(p, 0.4, 1.6)
    assert r.criterion.name == "eqcont3" and r.criterion.holds
    assert len(r.eqcont3) == 3
    assert r.criterion.lambda0 == pytest.approx(0.5)


def test_build_report_counts_no_eqcont3_point_at_a_resonant_k():
    # 0.5 = 1/sqrt(4) is a k = 1 point strictly inside [0.4, 0.6], but the
    # end 0.4 = 1/sqrt(6.25) is resonant at k = 1: Bif has no Z_1 to witness it
    p = scaled_problem(np.diag([4.0, 6.25]))
    assert [pt.lambda0 for pt in eqcont3_points(p, (0.4, 0.6))] == [0.5]
    r = build_report(p, 0.4, 0.6)
    assert (r.criterion.name, r.eqcont3, r.bif_undefined) == ("none", [], frozenset({1}))


def scaled_corpus(seed, size):
    """(problem, lm, lp) for scaled problems, n <= 3, half of them rotated;
    three windows in four have an end exactly on a point k/sqrt(alpha)."""
    rng = np.random.default_rng(seed)
    for i in range(size):
        n = 1 + i % 3
        alphas = rng.choice([0.25, 1.0, 2.0, 2.25, 4.0, 6.25, 9.0, -1.0, -4.0], size=n)
        alphas[0] = abs(alphas[0])
        A = np.diag(alphas)
        if i % 2:
            Q = random_orthogonal(rng, n)
            A = Q @ A @ Q.T
        p = scaled_problem(A)
        roots = [math.sqrt(v) for v, _ in eigen_sym(p.scaled_base_matrix()).positive_spectrum()]

        def on_a_point():
            return int(rng.integers(1, 4)) / roots[rng.integers(len(roots))]

        lm = on_a_point() if i % 4 < 2 else float(rng.uniform(0.2, 1.5))
        lp = on_a_point() if i % 4 in (0, 2) else lm + float(rng.uniform(0.1, 1.0))
        if lm != lp:
            yield p, min(lm, lp), max(lm, lp)


def test_scaled_corpus_never_trips_the_self_check():
    names = []
    for p, lm, lp in scaled_corpus(7, 60):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            names.append(build_report(p, lm, lp).criterion.name)
    assert len(names) >= 55 and set(names) == {"eqcont3", "none"}


def test_eqcont3_jumps_agree_with_the_index_on_every_scaled_report():
    # each point's jump sits in its own Z_k coordinate: summed per k, the
    # jumps are the index's coordinates, also where points of different k
    # coincide
    cases = [*scaled_corpus(7, 60), *scaled_corpus(11, 200),
             (scaled_problem(np.diag([1.0, 4.0])), 0.9, 1.1)]
    assert len(cases) == 247
    bad = []
    for p, lm, lp in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = build_report(p, lm, lp)
        ks = (set(r.bif.zk) | {pt.k0 for pt in r.eqcont3}) - r.bif_undefined
        for k in sorted(ks):
            total = sum(pt.bif_zk0 for pt in r.eqcont3 if pt.k0 == k)
            if total != r.bif.coeff(k):
                bad.append((lm, lp, k, total, r.bif.coeff(k)))
    assert bad == []


def test_build_report_none_fires():
    p = kepler_problem(diag_family({0: 2.0}))
    r = build_report(p, -1, 1)
    assert r.criterion.name == "none"
    assert not r.criterion.holds
    assert r.bif == ZERO
    assert r.resonances == []
    # integer endpoints are written as floats
    assert repr(r.to_json()["interval"]) == "[-1.0, 1.0]"


def test_eqcont2_silent_on_a_touching_curve():
    # 4 + lambda^2 touches 4 at lambda = 0 without crossing: one resonance,
    # nonresonant endpoints, no j_k jump, so no criterion fires
    p = kepler_problem(diag_family({0: 4.0, 2: 1.0}, {0: 2.0}))
    v = check_eqcont2(p, -0.5, 0.5)
    assert (v.name, v.holds, v.lambda0) == ("eqcont2", False, 0.0)
    assert v.message == "no j_k jump across the resonance"
    r = build_report(p, -0.5, 0.5)
    assert (r.criterion.name, r.criterion.holds) == ("none", False)
    assert [x.lambda0 for x in r.resonances] == [0.0]
    assert r.resonances[0].frequencies == frozenset({2})


def test_build_report_example3_without_index_fires_nothing():
    # eqcont2 needs one resonance (there are two), eqcont1 needs the index
    ex = example3()
    p = ProblemSpec(ex.problem().n, ex.problem().family, ex.problem().perturbation,
                    IndexRule.unavailable())
    r = build_report(p, ex.lambda_minus, ex.lambda_plus)
    assert (r.criterion.name, r.criterion.holds) == ("none", False)
    assert r.bif == TomDieckElement(0, {2: 1})
    assert len(r.resonances) == 2


@pytest.mark.parametrize("A, rule, error, name", [
    ([[4.0]], IndexRule.unavailable(), MissingIndexError, "eqcont2(ii)"),
    (np.diag([1e-12, 4.0]), IndexRule.builtin(), PreconditionError, "eqcont1(ii)")],
    ids=["no-index", "det-A-zero"])
def test_build_report_scaled_family_falls_through_eqcont3(A, rule, error, name):
    # 4 lambda^2 = 1 at lambda = 0.5 inside (0.4, 0.6); eqcont3 raises, and
    # the cascade goes on to eqcont2, or to eqcont1 where A's zero
    # eigenvalue makes both endpoints resonant at k = 0
    fam = MatrixFamily.scaled_quadratic(A)
    p = ProblemSpec(fam.n, fam, Perturbation.kepler(1.0, "lambda_squared"), rule,
                    scaled=True)
    with pytest.raises(error):
        eqcont3_points(p, (0.4, 0.6))
    r = build_report(p, 0.4, 0.6)
    assert r.eqcont3 == []
    assert (r.criterion.name, r.criterion.holds, r.criterion.witness_k) == (name, True, 1)
    assert [x.lambda0 for x in r.resonances] == pytest.approx([0.5])


@pytest.mark.parametrize("make", [example1, example2, example3])
def test_build_report_scans_once(make, monkeypatch):
    calls = []
    scan = bifurcation.scan_resonances

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "scan_resonances", counting)
    ex = make()
    build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert len(calls) == 1


@pytest.mark.parametrize("make, calls", [(example1, 5), (example2, 3), (example3, 4)])
def test_build_report_analyses_each_endpoint_once(make, calls, monkeypatch):
    # one eigendecomposition per endpoint and one per resonance point
    count = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        count.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ex = make()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert len(count) == 2 + len(r.resonances) == calls


@pytest.mark.parametrize("seed", range(5))
def test_build_report_bisects_in_stacked_rounds(seed, monkeypatch):
    # one det stack for the nodes of each scanned k and one per bisection
    # round of all its brackets (one det per bisection step made 22)
    count = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: count.append(a.shape) or det(a))
    for fam in workloads.make_inputs("stiff", seed):
        count.clear()
        build_report(kepler_problem(MatrixFamily(fam.coeffs())), workloads.LO, workloads.HI)
        assert len(count) <= 3, fam.label


@pytest.mark.parametrize("make, points, indices",
                         [(example1, 3, 2), (example2, 1, 0), (example3, 2, 2)])
def test_build_report_derives_each_invariant_once(make, points, indices, monkeypatch):
    # one resonant set per endpoint and per resonance point, one list of
    # j_k jumps, and the index at infinity once per endpoint, only where the
    # degree's sign or a criterion reads it
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(bifurcation, "resonant_frequencies")
    count(spectral, "resonant_frequencies")
    count(bifurcation, "_j_jumps")
    count(bifurcation, "index_of_spectrum")
    ex = make()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    assert len(r.resonances) == points
    assert calls.pop("resonant_frequencies") == 2 + points
    assert calls.pop("_j_jumps") == 1
    assert calls.pop("index_of_spectrum", 0) == indices


def _rotated(rng, diagonals):
    """Q diag(p_i(lambda)) Q^T for diagonal polynomials {power: coeff}."""
    fam = diag_family(*diagonals)
    Q = random_orthogonal(rng, fam.n)
    return MatrixFamily(np.einsum("ij,pjk,lk->pil", Q, fam.coeffs, Q))


def _diag_at(diagonals, lam):
    return [sum(c * lam ** q for q, c in d.items()) for d in diagonals]


def _reference_cases():
    """(problem, lm, lp, eigenvalues at lm, at lp, index values or None)."""
    rng = np.random.default_rng(2024)
    builtin = IndexRule.builtin()
    for i in range(24):
        n = 2 + i % 5
        C = rng.normal(0.0, 3.0, size=(3, n, n))
        C[0] += np.diag(rng.uniform(-2.0, 30.0, size=n))
        fam = MatrixFamily(C)
        ind = int(rng.choice([-1, 1])) if i % 4 == 0 else None
        rule = builtin if ind is None else IndexRule.value(ind)
        p = ProblemSpec(n, fam, Perturbation.kepler(1.0), rule)
        yield (p, -1.0, 1.0, charpoly_eigenvalues(fam.eval(-1.0)),
               charpoly_eigenvalues(fam.eval(1.0)), ind)
    diagonal = [
        # resonant endpoints: 4 at lambda = 0 and 0 at lambda = 1
        ([{0: 4.0, 1: 1.0}, {0: 1.0, 1: -1.0}, {0: 9.5}], 0.0, 1.0),
        ([{0: 9.0, 1: 3.0}, {0: 1.0}, {0: 16.0, 1: -7.0}, {0: 2.5}], 0.0, 1.0),
        # (-1)^{j_0} flips at the one resonance: eqcont2(i)
        ([{1: 1.0}, {0: 2.5}], -0.5, 0.5),
        # index flips with three interior resonances: eqcont1(i)
        ([{1: 1.0}, {0: 2.5, 1: 2.0}], -1.0, 1.0),
        ([{1: -1.0}, {0: 5.0, 1: 3.0}, {0: -3.0}], -1.0, 1.0),
    ] + [([{0: 10.0 ** q + 0.0123, 1: 1.0}, {0: 2.5}], -0.5, 0.5) for q in (4, 6, 8)]
    for diagonals, lm, lp in diagonal:
        p = ProblemSpec(len(diagonals), _rotated(rng, diagonals),
                        Perturbation.kepler(1.0), builtin)
        yield p, lm, lp, _diag_at(diagonals, lm), _diag_at(diagonals, lp), None


def test_report_matches_the_per_k_reference():
    names = set()
    for p, lm, lp, eig_m, eig_p, ind in _reference_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            points = len(scan_resonances(p.family, lm, lp))
            try:
                want = reference_report(eig_m, eig_p, points, ind, ind)
            except ValueError:
                # the supplied index contradicts a nonresonant endpoint
                with pytest.raises(IndexContradictionError):
                    build_report(p, lm, lp)
                names.add("contradiction")
                continue
            r = build_report(p, lm, lp)
        so2, zk, undefined, name, witness = want
        assert r.bif == TomDieckElement(so2, zk)
        assert r.bif_undefined == undefined
        assert (r.criterion.name, r.criterion.witness_k) == (name, witness)
        names.add(name)
    assert names == {"eqcont1(i)", "eqcont1(ii)", "eqcont2(i)", "eqcont2(ii)", "none",
                     "contradiction"}


def test_build_report_emits_each_scan_warning_once():
    # (l - 0.3)^2 + 4 touches 4 between grid nodes; the endpoints are
    # nonresonant, so the single-resonance criterion is tried too
    p = kepler_problem(diag_family({0: 4.09, 1: -0.6, 2: 1.0}, {0: -2.5}))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build_report(p, -1.0, 1.0)
    assert [w.category for w in rec] == [TangencyWarning]


def test_build_report_consistency_rows():
    ex = example2()
    cps = {"origin": RepDecomposition(())}
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus, critical_points=cps)
    assert len(r.consistency) == 1
    row = r.consistency[0]
    assert row["critical_point"] == "origin"
    assert row["consistent"] is False


def test_report_is_immutable():
    ex = example2()
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    with pytest.raises(AttributeError):
        r.criterion = None
