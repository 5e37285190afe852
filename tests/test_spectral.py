import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import equideg.spectral as spectral
from equideg.spectral import (DegenerateSpectrumError, EigenConvergenceError,
                              MatrixFamily, NonIsolatedResonanceError,
                              ResolutionWarning, SpectralData,
                              TangencyWarning, eigen_sym,
                              frequency_bound, j_k, k_set, morse_index,
                              resonant_frequencies, scan_resonances)
from oracles import (charpoly_eigenvalues, random_orthogonal, random_symmetric,
                     reference_reachable_frequencies, reference_scan_one_frequency)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded stiff and dense families)
from equideg.eqdeg import degree_of_spectrum  # noqa: E402

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)


def family_example1():
    # diag(l^2 - 1, sqrt2 + l, l - sqrt2, sqrt5 + l)
    return MatrixFamily.from_entry_polynomials(4, {
        (1, 1): {2: 1.0, 0: -1.0},
        (2, 2): {0: SQRT2, 1: 1.0},
        (3, 3): {0: -SQRT2, 1: 1.0},
        (4, 4): {0: SQRT5, 1: 1.0},
    })


def family_example2():
    return MatrixFamily.from_entry_polynomials(4, {
        (1, 1): {0: 4.0, 1: 1.0},
        (2, 2): {0: 2.0}, (3, 3): {0: 2.0}, (4, 4): {0: 2.0},
    })


def family_example3():
    return MatrixFamily.from_entry_polynomials(5, {
        (1, 1): {0: 4.0, 2: 0.5},
        (2, 2): {3: 1.0, 0: -SQRT10},
        (3, 3): {0: 9.0, 2: 0.5},
        (4, 4): {3: 1.0, 0: SQRT10},
        (5, 5): {0: 25.0, 2: 0.5},
    })


def expand(spectral):
    out = []
    for v, m in spectral.eigenvalues:
        out.extend([v] * m)
    return np.array(out)


def test_symmetric_matrix_symmetrizes_exactly():
    # every matrix is read as (A + A^T) / 2: eigh alone would read one triangle
    A = [[0.0, 0.0], [6.0, 0.0]]
    fam = MatrixFamily.constant(A)
    assert np.array_equal(fam.coeffs[0], [[0.0, 3.0], [3.0, 0.0]])
    assert eigen_sym(A) == eigen_sym(fam.coeffs[0])
    assert eigen_sym(A).values() == pytest.approx([-3.0, 3.0])
    assert j_k(A, 2) == 0
    for take in (eigen_sym, lambda a: j_k(a, 1), MatrixFamily.constant):
        with pytest.raises(ValueError):
            take([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="must be finite"):
            take([[np.inf, 0.0], [0.0, 1.0]])
    # halves are added, so no finite entry overflows
    assert np.array_equal(MatrixFamily.constant([[1, 1e308], [1e308, 1]]).coeffs[0],
                          [[1.0, 1e308], [1e308, 1.0]])
    assert eigen_sym([[0, 1e308], [1e308, 0]]).values() == pytest.approx([-1e308, 1e308])
    assert np.array_equal(MatrixFamily([[[0.0, 1.7e308], [1.5e308, 0.0]]]).coeffs[0],
                          [[0.0, 1.6e308], [1.6e308, 0.0]])
    with pytest.raises(ValueError, match="read-only"):
        fam.coeffs[0, 0, 1] = 1.0
    with pytest.raises(AttributeError):
        fam.coeffs = None


def test_eigen_sym_diagonal_clusters():
    s = eigen_sym(np.diag([3.0, 1.0, 1.0]))
    assert s.eigenvalues == ((1.0, 2), (3.0, 1))
    assert s.n == 3


@pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (9,), (1, 2, 3, 9), (9, 1, 1, 3)])
def test_eigen_sym_cluster_values_are_the_means_of_their_runs(sizes):
    # a one-value run is taken as it stands; every value is np.mean's, bit
    # for bit, down to the sign of a zero
    rng = np.random.default_rng(len(sizes) * 10 + sizes[0])
    for _ in range(20):
        centres = np.cumsum(rng.uniform(1.0, 5.0, len(sizes))) - 7.0
        values = np.concatenate([c + rng.uniform(-1e-12, 1e-12, m)
                                 for c, m in zip(centres, sizes)])
        Q = random_orthogonal(rng, len(values))
        A = Q @ np.diag(values) @ Q.T
        A = A / 2.0 + A.T / 2.0
        vals = np.linalg.eigh(A)[0]
        runs = np.split(vals, np.cumsum(sizes)[:-1])
        assert [(v.hex(), m) for v, m in eigen_sym(A).eigenvalues] \
            == [(float(np.mean(r)).hex(), len(r)) for r in runs]
    for zero in ([[-0.0]], [[0.0]], np.diag([-0.0, 3.0])):
        vals = np.linalg.eigh(np.asarray(zero))[0]
        assert [v.hex() for v, _ in eigen_sym(zero).eigenvalues] \
            == [float(np.mean([v])).hex() for v in vals]


def test_runs_chains_or_anchors_by_what_joins_compares():
    values = [0.0, 0.6, 1.2]
    assert spectral._runs(values, lambda run, v: v - run[-1] <= 1.0) == [values]
    assert spectral._runs(values, lambda run, v: v - run[0] <= 1.0) == [[0.0, 0.6], [1.2]]
    assert spectral._runs([], lambda run, v: True) == []


def test_expanded_is_built_once_and_read_only():
    s = SpectralData(((-1.0, 2), (4.0, 1), (9.0, 3)), 1e-9)
    assert "expanded" not in vars(s)
    first = s.expanded
    assert first.tolist() == [-1.0, -1.0, 4.0, 9.0, 9.0, 9.0]
    assert s.expanded is first
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.0
    assert s.counts_above([0, 2, 3]).tolist() == [4, 3, 0]
    assert s.expanded is first


def test_eigen_sym_offdiagonal_pair():
    s = eigen_sym([[0.0, 1.0], [1.0, 0.0]])
    assert s.eigenvalues == ((-1.0, 1), (1.0, 1))


def test_eigen_sym_clusters_near_degenerate_pairs():
    s = eigen_sym(np.diag([2.0, 2.0 + 1e-13, 5.0]), tol=1e-9)
    assert [m for _, m in s.eigenvalues] == [2, 1]


def test_eigen_sym_matches_charpoly_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        A = random_symmetric(rng, n)
        got = expand(eigen_sym(A))
        want = charpoly_eigenvalues(A)
        assert np.abs(got - want).max() < 1e-8


def test_eigen_sym_invariant_under_orthogonal_conjugation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = random_symmetric(rng, 6)
        Q = random_orthogonal(rng, 6)
        a = expand(eigen_sym(A))
        b = expand(eigen_sym(Q @ A @ Q.T))
        assert np.abs(a - b).max() < 1e-8


def test_morse_index():
    assert morse_index(eigen_sym(np.diag([-1.0, -1.0, 2.0]))) == 2
    A1 = np.diag([0.0, SQRT2 + 1.0, 1.0 - SQRT2, SQRT5 + 1.0])
    assert morse_index(eigen_sym(A1)) == 1
    assert morse_index(eigen_sym(np.diag([0.5, 3.0]))) == 0


def test_j_k_example_values():
    f1 = family_example1()
    assert j_k(f1.eval(1.0), 1) == 2
    assert j_k(f1.eval(-1.0), 1) == 1
    f2 = family_example2()
    assert j_k(f2.eval(0.5), 2) == 1
    assert j_k(f2.eval(-0.5), 2) == 0
    f3 = family_example3()
    assert j_k(f3.eval(1.0), 2) == 4
    assert j_k(f3.eval(-1.0), 2) == 3


def test_eigen_sym_rejects_eigenpairs_that_miss_the_residual_bound(
        monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        vals, vecs = eigh(a)
        return vals + 1e-6, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(EigenConvergenceError, match="eigenpair residual"):
        eigen_sym(np.diag([1.0, 4.0]))


def test_eigen_sym_names_a_failed_decomposition(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(EigenConvergenceError,
                       match="eigen decomposition failed"):
        eigen_sym(np.diag([1.0, 4.0]))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        eigen_sym(np.diag([1.0, 2.0]), tol)
    with pytest.raises(ValueError, match="positive and finite"):
        scan_resonances(family_example2(), -0.5, 0.5, tol=tol)


def test_scan_needs_a_finite_interval():
    for lo, hi in ((-math.inf, 0.5), (-0.5, math.inf), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="finite lo < hi"):
            scan_resonances(family_example2(), lo, hi)


def test_j_k_degenerate_input_names_eigenvalue():
    with pytest.raises(DegenerateSpectrumError, match="4"):
        j_k(np.diag([4.0, 1.0]), 2)
    # two clusters within tol of 4 (abs tol 5e-9): the lower one is named
    with pytest.raises(DegenerateSpectrumError, match=repr(4.0 - 4e-9)):
        j_k(np.diag([4.0 + 4e-9, 4.0 - 4e-9]), 2)
    with pytest.raises(ValueError):
        j_k(np.diag([1.0]), -1)


def test_j_k_nonincreasing_and_counting_identity():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        d = rng.uniform(-3.0, 30.0, size=n)
        # skip the (measure-zero) draws that land on a square
        if any(abs(v - k * k) < 1e-6 for v in d for k in range(7)):
            continue
        A = np.diag(d)
        prev = None
        for k in range(6):
            jk = j_k(A, k)
            assert jk == int(np.sum(d > k * k))
            if prev is not None:
                assert jk <= prev
            prev = jk


def test_resonant_frequencies():
    s = eigen_sym(np.diag([0.0, 1.0, 4.0, 6.0]))
    assert resonant_frequencies(s) == {0, 1, 2}
    assert resonant_frequencies(eigen_sym(np.diag([-2.0, 2.5]))) == frozenset()


def test_resonant_frequencies_matches_the_loop_over_every_k():
    rng = np.random.default_rng(5)
    for tol in (1e-9, 0.3, 5.0):
        for _ in range(30):
            k = rng.integers(0, 10 ** int(rng.integers(1, 4)), size=3)
            near = k * k + rng.choice([-1.0, 1.0], 3) * tol * rng.choice([0.0, 0.5, 1.0, 1.5], 3)
            values = np.unique(np.concatenate([near, rng.uniform(-3.0, 40.0, 2)]))
            s = SpectralData(tuple((float(v), 1) for v in values), tol)
            loop = {j for j in range(frequency_bound(s.top + s.tol) + 1)
                    if s.multiplicity(j * j) > 0}
            assert resonant_frequencies(s) == loop


def test_counts_above_matches_the_loop_over_clusters():
    # clusters with multiplicities, some exactly on a square, one far out
    rng = np.random.default_rng(8)
    for _ in range(30):
        values = np.unique(np.concatenate([rng.integers(0, 12, 3) ** 2.0,
                                           rng.uniform(-5.0, 150.0, 4), [1e8 + 0.5]]))
        s = SpectralData(tuple((float(v), int(m)) for v, m in
                               zip(values, rng.integers(1, 4, len(values)))), 1e-9)
        ks = np.r_[0:14, 9998:10002]
        loop = [sum(m for v, m in s.eigenvalues if v > k * k) for k in ks.tolist()]
        assert s.counts_above(ks).tolist() == loop
        assert s.counts_above(7) == loop[7]


def test_matrix_family_eval():
    fam = MatrixFamily([[[1.0, 0.0], [0.0, 2.0]], [[0.5, 1.0], [1.0, 0.0]]])
    A = fam.eval(2.0)
    assert np.allclose(A, [[2.0, 2.0], [2.0, 2.0]])
    many = fam.eval_many([0.0, 2.0])
    assert np.allclose(many[0], [[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(many[1], A)
    assert fam.degree == 1 and fam.n == 2
    with pytest.raises(AttributeError):
        fam.coeffs = None

    # one evaluation of A: a matrix has the same bits alone and in a stack
    rng = np.random.default_rng(0)
    differ = 0
    for _ in range(1200):
        n, d = int(rng.integers(1, 9)), int(rng.integers(0, 4))
        fam = MatrixFamily(rng.standard_normal((d + 1, n, n)))
        lams = rng.uniform(-2.0, 2.0, 11)
        many = fam.eval_many(lams)
        differ += sum(not np.array_equal(many[i], fam.eval(lam))
                      for i, lam in enumerate(lams.tolist()))
    assert differ == 0

    # so the scan's node determinants are those its bisection steps compute
    fam = MatrixFamily(rng.standard_normal((4, 5, 5)))
    nodes, shift = np.linspace(-2.0, 2.0, 65), 4.0 * np.eye(5)
    dets = np.linalg.det(fam.eval_many(nodes) - shift)
    assert all(dets[i] == np.linalg.det(fam.eval(lam) - shift)
               for i, lam in enumerate(nodes.tolist()))


def test_matrix_family_entry_validation():
    with pytest.raises(ValueError):
        MatrixFamily.from_entry_polynomials(2, {(0, 1): {0: 1.0}})
    with pytest.raises(ValueError):
        MatrixFamily.from_entry_polynomials(2, {(1, 1): {-1: 1.0}})
    with pytest.raises(ValueError, match="coefficient stack"):
        MatrixFamily(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="coefficient stack"):
        MatrixFamily(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError, match="must be finite"):
        MatrixFamily.from_entry_polynomials(2, {(1, 2): {1: math.inf}})
    fam = MatrixFamily.from_entry_polynomials(2, {(1, 2): {0: 3.0}})
    assert fam.eval(0.0)[1, 0] == 3.0


def test_scaled_quadratic_family():
    fam = MatrixFamily.scaled_quadratic(np.diag([4.0, 2.0]))
    assert np.allclose(fam.eval(3.0), np.diag([36.0, 18.0]))
    assert np.allclose(fam.eval(0.0), 0.0)


def test_scan_example1_interior_and_endpoint_resonances():
    pts = scan_resonances(family_example1(), -1.0, 1.0)
    assert [sorted(p.frequencies) for p in pts] == [[0], [1], [0]]
    assert abs(pts[0].lambda0 - (-1.0)) < 1e-9
    assert abs(pts[1].lambda0 - (1.0 - SQRT2)) < 1e-9
    assert abs(pts[2].lambda0 - 1.0) < 1e-9
    assert pts[1].det_nonzero and not pts[0].det_nonzero
    assert pts[1].kernel_rep.parts == ((1, 1),)


def test_scan_example2_single_resonance():
    pts = scan_resonances(family_example2(), -0.5, 0.5)
    assert len(pts) == 1
    assert pts[0].lambda0 == 0.0
    assert pts[0].frequencies == {2}
    assert pts[0].kernel_rep.parts == ((1, 2),)


def test_scan_example3_two_interior_resonances():
    pts = scan_resonances(family_example3(), -1.0, 1.0)
    assert len(pts) == 2
    assert pts[0].lambda0 == 0.0
    assert sorted(pts[0].frequencies) == [2, 3, 5]
    assert pts[0].kernel_rep.parts == ((1, 2), (1, 3), (1, 5))
    # second tangency-free crossing where the fourth entry reaches 4
    lam1 = (4.0 - SQRT10) ** (1.0 / 3.0)
    assert abs(pts[1].lambda0 - lam1) < 1e-6
    assert pts[1].frequencies == {2}


def test_scan_nonresonant_family_is_empty():
    fam = MatrixFamily.constant(np.diag([-1.0, -2.0]))
    assert scan_resonances(fam, -1.0, 1.0) == []


def test_scan_moving_eigenvalue_through_one():
    fam = MatrixFamily.from_entry_polynomials(1, {(1, 1): {1: 1.0}})
    pts = scan_resonances(fam, 0.5, 1.5)
    assert len(pts) == 1
    assert abs(pts[0].lambda0 - 1.0) < 1e-9
    assert pts[0].frequencies == {1}


def test_scan_detects_non_isolated_resonance():
    fam = MatrixFamily.constant(np.diag([4.0, 2.0]))
    with pytest.raises(NonIsolatedResonanceError):
        scan_resonances(fam, -1.0, 1.0)


def test_scan_warns_on_off_node_tangency():
    # (l - 0.3)^2 + 4 touches 4 between grid nodes, no sign change
    fam = MatrixFamily.from_entry_polynomials(1, {
        (1, 1): {0: 4.0 + 0.09, 1: -0.6, 2: 1.0}})
    with pytest.warns(TangencyWarning):
        pts = scan_resonances(fam, -1.0, 1.0)
    assert pts == []


def test_scan_warns_on_unresolved_root_pair():
    # eigenvalue 1 + l^2 - 1e-8 has roots +-1e-4, inside one grid cell
    fam = MatrixFamily.from_entry_polynomials(1, {(1, 1): {0: 1.0 - 1e-8, 2: 1.0}})
    with pytest.warns(ResolutionWarning):
        pts = scan_resonances(fam, -1.0, 1.0)
    assert len(pts) >= 1


def rotated_quadratic_family(rng, polys):
    """Q diag(c_i + b_i l + a_i l^2) Q^T for rows (c, b, a) of ``polys``."""
    Q = random_orthogonal(rng, len(polys))
    return MatrixFamily(np.einsum("ij,pj,kj->pik", Q, np.asarray(polys).T, Q))


def pruning_families():
    """(name, family) pairs on [-1, 1] for the frequency-pruning tests."""
    rng = np.random.default_rng(2024)
    fams = []
    for i in range(12):
        n = int(rng.integers(3, 9))
        polys = np.column_stack([rng.uniform(-5.0, 60.0, n), rng.uniform(-20.0, 20.0, n),
                                 rng.uniform(-10.0, 10.0, n)])
        fams.append((f"random{i}-n{n}", rotated_quadratic_family(rng, polys)))
    # a curve of slope 3e4 crosses up to five squares inside one cell
    fams.append(("steep", rotated_quadratic_family(
        rng, [[0.0, 3e4, 0.0], [7.5, 0.0, 0.0], [30.0, -2.0, 1.0]])))
    # the off-node tangency of (l - 0.3)^2 + 4 with 4
    fams.append(("tangency", MatrixFamily.from_entry_polynomials(
        1, {(1, 1): {0: 4.09, 1: -0.6, 2: 1.0}})))
    return fams + [("example1", family_example1()), ("example2", family_example2()),
                   ("example3", family_example3())]


def _recorded_scan(fam):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        pts = scan_resonances(fam, -1.0, 1.0)
    return [p.to_json() for p in pts], [(w.category, str(w.message)) for w in rec]


PRUNING = pruning_families()


@pytest.mark.parametrize("name, fam", PRUNING, ids=[name for name, _ in PRUNING])
def test_skipped_frequencies_have_no_roots_and_no_warnings(name, fam, monkeypatch):
    tol = spectral.DEFAULT_TOL
    nodes = np.linspace(-1.0, 1.0, spectral.DEFAULT_GRID + 1)
    mats = fam.eval_many(nodes)
    reach = spectral._reachable_frequencies(fam, nodes, mats, tol)
    full = range(frequency_bound(float(np.linalg.eigvalsh(mats).max())) + 2)
    for k in set(full) - set(reach):
        assert spectral._scan_one_frequency(fam, nodes, mats, k, tol) == ([], [])
    pruned = _recorded_scan(fam)
    # the sweep over every frequency up to one square past the sampled top
    monkeypatch.setattr(spectral, "_reachable_frequencies", lambda *a: list(full))
    assert pruned == _recorded_scan(fam)


def test_scan_sweeps_only_reachable_frequencies(monkeypatch):
    # one curve crosses 1000^2 in one cell and the other stays at 2.5: the
    # eigenvalues are taken at the 65 block ends and at the inner nodes of
    # the blocks around the crossing only, not at all 513 nodes, besides
    # the 2 coefficient matrices
    swept, matrices = [], []
    sweep, eigvalsh = spectral._scan_one_frequency, np.linalg.eigvalsh

    def counting(family, nodes, mats, k, tol):
        swept.append(k)
        return sweep(family, nodes, mats, k, tol)

    monkeypatch.setattr(spectral, "_scan_one_frequency", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: matrices.append(len(a)) or eigvalsh(a))
    fam = MatrixFamily.from_entry_polynomials(2, {(1, 1): {0: 1e6 + 0.0123, 1: 1.0},
                                                  (2, 2): {0: 2.5}})
    [pt] = scan_resonances(fam, -0.5, 0.5)
    assert abs(pt.lambda0 + 0.0123) < 1e-9
    assert pt.frequencies == {1000}
    assert 1000 in swept and len(swept) <= 3
    assert matrices[:2] == [2, 65] and sum(matrices) <= 100


def test_k_set():
    def at(A):
        return resonant_frequencies(eigen_sym(A))

    f1 = family_example1()
    assert k_set(at(f1.eval(-1.0)), at(f1.eval(1.0))) == frozenset()
    f2 = family_example2()
    assert k_set(at(f2.eval(-0.5)), at(f2.eval(0.5))) == frozenset()
    assert k_set(at(np.diag([4.0, 36.0, -1.0])), at(np.diag([9.0, -5.0, -1.0]))) == {2, 6, 3}
    # the frequency 0 joins no closure
    assert k_set(frozenset({0, 4}), frozenset({0})) == {4}


def test_eigen_sym_rejects_bad_tol():
    with pytest.raises(ValueError):
        eigen_sym(np.eye(2), tol=0.0)


def _diag1(terms):
    """The 1 x 1 family with entry sum_p c lambda^p for {p: c}."""
    return MatrixFamily.from_entry_polynomials(1, {(1, 1): terms})


def _underflow_family(c):
    """c (lambda - 0.0123456), exact for a power of two c."""
    return _diag1({0: -0.0123456 * c, 1: c})


def _node_roots_family(lams):
    """4 + 64 prod (lambda - l): det(A - 4 Id) vanishes at each l, and is
    0.0 there when every l is a dyadic grid node, since every coefficient
    and every node value is then exact."""
    poly = 64.0 * np.poly(lams)[::-1]
    poly[0] += 4.0
    return _diag1(dict(enumerate(poly.tolist())))


HALF_CELL = (300 + 0.5) / 512 - 0.5   # a cell midpoint of the [-1/2, 1/2] grid
EIGHTH_CELL = (300 + 0.125) / 512 - 0.5   # the third bisection midpoint of that cell
CUBIC_ROOT, CUBIC_SLOPE = 0.0123456, 1e-7


def _cubic_family():
    """(lambda - r)^3 + c (lambda - r) with c small: det(A) has one simple
    root r, and the cubic term dominates on r's grid cell, so the secant
    root of the cell's ends misses r."""
    r, c = CUBIC_ROOT, CUBIC_SLOPE
    return _diag1({0: -r ** 3 - c * r, 1: 3.0 * r * r + c, 2: -3.0 * r, 3: 1.0})


def _bench_family(fam):
    return MatrixFamily(fam.coeffs())


def scan_oracle_cases():
    """(id, family, lo, hi, frequencies or None for every k up to one square
    past the sampled top)."""
    nodes = np.linspace(-0.5, 0.5, 513)
    cases = [("example1", family_example1(), -1.0, 1.0, None),
             ("example2", family_example2(), -0.5, 0.5, None),
             ("example3", family_example3(), -1.0, 1.0, None)]
    for seed in (0, 1):
        for fam in workloads.make_inputs("stiff", seed):
            mf = _bench_family(fam)
            reach = spectral._reachable_frequencies(mf, nodes, mf.eval_many(nodes),
                                                    spectral.DEFAULT_TOL)
            ks = sorted({k + d for k in reach for d in (-1, 0, 1)} | set(range(4)))
            cases.append((f"stiff-{seed}-{fam.label}", mf, -0.5, 0.5, ks))
    cases += [(f"dense-0-{fam.label}", _bench_family(fam), -0.5, 0.5, None)
              for fam in workloads.make_inputs("dense", 0)[:2]]
    probe = workloads.dense_family(np.random.default_rng([0, workloads.PROBE_N]),
                                   workloads.PROBE_N,
                                   workloads.DENSE_CROSSINGS[workloads.PROBE_N], "n64")
    cases.append(("dense-0-n64", _bench_family(probe), -0.5, 0.5, None))
    cases += [
        ("root-on-first-node", _diag1({0: 4.5, 1: 1.0}), -0.5, 0.5, [2]),
        ("root-on-last-node", _diag1({0: 3.5, 1: 1.0}), -0.5, 0.5, [2]),
        ("two-tiny-nodes", _node_roots_family(nodes[200:202]), -0.5, 0.5, [2]),
        ("three-tiny-nodes", _node_roots_family(nodes[200:203]), -0.5, 0.5, [2]),
        ("even-tangency", MatrixFamily.from_entry_polynomials(
            2, {(1, 1): {0: 4.0123, 1: 1.0}, (2, 2): {0: 4.0123, 1: 1.0}}), -0.5, 0.5, None),
        # (lambda - m)^2 + 4: equal |det| on the two nodes beside the touch
        ("tangency-at-cell-midpoint", _diag1({0: 4.0 + HALF_CELL ** 2, 1: -2.0 * HALF_CELL,
                                              2: 1.0}), -0.5, 0.5, None),
        ("two-roots-in-one-cell", _diag1({0: 1.0 - 1e-8, 2: 1.0}), -1.0, 1.0, None),
        ("root-at-cell-midpoint", _diag1({0: 4.0 - HALF_CELL, 1: 1.0}), -0.5, 0.5, None),
        ("root-at-third-midpoint", _diag1({0: 4.0 - EIGHTH_CELL, 1: 1.0}), -0.5, 0.5, None),
        ("curved-det", _cubic_family(), -0.5, 0.5, None),
        # cells of 2e-10, narrower than tol: the bracket is its own root
        ("cell-narrower-than-tol", _diag1({0: -3.3e-8, 1: 1.0}), 0.0, 1e-7, None),
        ("three-brackets", _node_roots_family([-0.3001, 0.1001, 0.3701]), -0.5, 0.5, [2]),
    ]
    # a product of two dets would underflow: at 2^-532 already across the
    # grid cell of the root, at 2^-515 in its later bisection steps
    cases += [(f"underflow-2^-{e}", _underflow_family(2.0 ** -e), -0.5, 0.5, None)
              for e in (515, 532)]
    return cases


@pytest.mark.parametrize("e", [0, 515, 532, 665])
def test_scan_finds_a_root_whose_det_products_underflow(e):
    # signs are compared by sign bit, so the root is the same at every scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = scan_resonances(_underflow_family(2.0 ** -e), -0.5, 0.5)
    assert [(pt.lambda0.hex(), pt.frequencies) for pt in points] \
        == [((0.0123456004075706).hex(), {0})]


def _scan_outcome(fam, nodes, mats, k, tol):
    """``_scan_one_frequency`` in the reference's terms: (roots, warnings as
    (class name, message)), or ("NonIsolatedResonanceError", message)."""
    try:
        roots, warns = spectral._scan_one_frequency(fam, nodes, mats, k, tol)
    except NonIsolatedResonanceError as exc:
        return "NonIsolatedResonanceError", str(exc)
    return roots, [(cls.__name__, message) for cls, message in warns]


SCAN_ORACLE = scan_oracle_cases()


@pytest.mark.parametrize("name, fam, lo, hi, ks", SCAN_ORACLE,
                         ids=[case[0] for case in SCAN_ORACLE])
def test_scan_one_frequency_matches_the_per_node_reference(name, fam, lo, hi, ks,
                                                          monkeypatch):
    tol = spectral.DEFAULT_TOL
    nodes = np.linspace(lo, hi, spectral.DEFAULT_GRID + 1)
    mats = fam.eval_many(nodes)
    if ks is None:
        ks = range(frequency_bound(float(np.linalg.eigvalsh(mats).max())) + 2)
    got, stacks, seen, det = {}, {}, [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: seen.append(len(m)) or det(m))
    for k in ks:
        seen.clear()
        got[k] = _scan_outcome(fam, nodes, mats, k, tol)
        stacks[k] = seen[1:]   # the sizes of the bisection rounds' stacks
        # exact float equality of the roots; warnings by class, text and order
        assert got[k] == reference_scan_one_frequency(fam.coeffs, nodes, k, tol), f"k = {k}"
    if name == "root-on-first-node":
        assert got[2] == ([lo], [])
    elif name == "root-on-last-node":
        assert got[2] == ([hi], [])
    elif name == "two-tiny-nodes":
        assert got[2] == (nodes[200:202].tolist(), [])
    elif name == "three-tiny-nodes":
        assert got[2][0] == "NonIsolatedResonanceError"
    elif name == "even-tangency":
        assert got[2][0] == [] and [c for c, _ in got[2][1]] == ["TangencyWarning"]
    elif name == "tangency-at-cell-midpoint":
        assert got[2][0] == [] and [c for c, _ in got[2][1]] == ["TangencyWarning"] * 2
    elif name == "two-roots-in-one-cell":
        assert len(got[1][0]) == 2 and [c for c, _ in got[1][1]] == ["ResolutionWarning"]
    elif name == "root-at-cell-midpoint":
        # the first bisection midpoint is the root itself, det is exactly 0.0
        assert got[2] == ([HALF_CELL], [])
    elif name == "root-at-third-midpoint":
        # the secant guess is exact, and one round reaches the 0.0 at its
        # third midpoint and drops the rest of the path
        assert got[2] == ([EIGHTH_CELL], []) and len(stacks[2]) == 1
    elif name == "curved-det":
        # each round's guess is wrong after a few steps
        assert len(got[0][0]) == 1 and abs(got[0][0][0] - CUBIC_ROOT) <= tol
        assert len(stacks[0]) >= 4
    elif name == "cell-narrower-than-tol":
        assert len(got[0][0]) == 1 and stacks[0] == []
    elif name == "three-brackets":
        # one stack per round for all three brackets, the first with the 21
        # guessed steps of each
        assert len(got[2][0]) == 3 and stacks[2][0] == 3 * 21 and len(stacks[2]) < 3


def test_bisection_stops_at_adjacent_floats(monkeypatch):
    # the floats near the root, 0.0071, are 2^-60 = 8.7e-19 apart: at tol
    # 1e-18 bisection ends on the width, below it where the bracket's ends
    # are adjacent floats and its midpoint rounds to one of them (it never
    # ended there before), with the same root
    fam = MatrixFamily(workloads.make_inputs("stiff", 1)[0].coeffs())
    nodes = np.linspace(-0.5, 0.5, spectral.DEFAULT_GRID + 1)
    mats = fam.eval_many(nodes)
    (k,) = spectral._reachable_frequencies(fam, nodes, mats, spectral.DEFAULT_TOL)
    seen, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: seen.append(len(m)) or det(m))
    got = []
    for tol in (1e-18, 1e-19, 1e-300):
        seen.clear()
        got.append(_scan_outcome(fam, nodes, mats, k, tol))
        # each round takes one or more of the 51 steps that halve a cell of
        # 2^-9 to 2^-60
        assert len(seen) <= 1 + 51
        assert got[-1] == reference_scan_one_frequency(fam.coeffs, nodes, k, tol)
    assert got[0] == got[1] == got[2] and len(got[0][0]) == 1
    assert abs(got[0][0][0] - scan_resonances(fam, -0.5, 0.5)[0].lambda0) < 1e-9
    # the whole scan ends too; the eigenpair residual check at the root
    # cannot meet such a tol
    with pytest.raises(EigenConvergenceError):
        scan_resonances(fam, -0.5, 0.5, tol=1e-19)


REACH_CASES = [(name, fam, -1.0, 1.0) for name, fam in PRUNING] + [
    (name, fam, lo, hi) for name, fam, lo, hi, _ in SCAN_ORACLE]


@pytest.mark.parametrize("name, fam, lo, hi", REACH_CASES,
                         ids=[case[0] for case in REACH_CASES])
def test_reachable_frequencies_match_the_full_grid_reference(name, fam, lo, hi):
    # eigvalsh only in the blocks of cells whose range holds a square gives
    # the set the cell ranges of the whole grid give, on coarse and fine grids
    for grid in (2, 9, 512, 1000):
        nodes = np.linspace(lo, hi, grid + 1)
        mats = fam.eval_many(nodes)
        for tol in (1e-9, 1e-3):
            assert spectral._reachable_frequencies(fam, nodes, mats, tol) \
                == reference_reachable_frequencies(fam.coeffs, nodes, mats, tol), \
                f"grid = {grid}, tol = {tol}"


# per-curve value half-width 10 for the constant families below: the scale
# 1 + ||A|| is 1000 and tol 0.01, and no curve moves
MERGE_LAYOUTS = {
    "disjoint": ([25.0, 49.0, 100.0, 999.0], [(4, 5), (7, 7), (10, 10)]),
    "adjacent": ([25.0, 36.0, 49.0, 999.0], [(4, 5), (6, 6), (7, 7)]),
    "overlapping": ([1.0, 14.5, 999.0], [(0, 3), (3, 4)]),
    "nested": ([6.5, 14.5, 999.0], [(0, 4), (3, 4)]),
    "mixed": ([999.0, 14.5, 100.0, 1.0, 36.0, 25.0, -50.0], [(3, 4), (10, 10), (0, 3),
                                                            (6, 6), (4, 5)]),
    "none": ([-50.0, 999.0], []),
}


@pytest.mark.parametrize("layout", list(MERGE_LAYOUTS))
def test_reachable_frequencies_merges_integer_intervals(layout):
    values, ranges = MERGE_LAYOUTS[layout]
    # each curve reaches the k with |k^2 - value| <= 10, one interval of k
    assert [r for r in ([k for k in range(40) if abs(k * k - v) <= 10.0] for v in values)
            if r] == [list(range(a, b + 1)) for a, b in ranges]
    union = sorted(set().union(*(range(a, b + 1) for a, b in ranges)))
    fam = MatrixFamily.constant(np.diag(values))
    nodes = np.linspace(-1.0, 1.0, 3)
    got = spectral._reachable_frequencies(fam, nodes, fam.eval_many(nodes), 0.01)
    assert got == union
    assert all(type(k) is int for k in got)
    assert json.loads(json.dumps(got)) == union
    # the union itself, in any order and with empty intervals that add nothing
    first, last = [a for a, _ in ranges], [b for _, b in ranges]
    assert spectral._integers_in(first[::-1] + [9], last[::-1] + [8]) == union
    assert spectral._integers_in(np.array(first, dtype=float), np.array(last, dtype=float)) \
        == union


def test_near_lists_the_clusters_within_tol():
    s = SpectralData(((4.0 - 0.9e-8, 1), (4.0 + 0.9e-8, 2), (9.0, 1)), 1e-8)
    assert s.near(4) == [(4.0 - 0.9e-8, 1), (4.0 + 0.9e-8, 2)]
    assert s.multiplicity(4) == 3
    assert s.near(5) == [] and s.multiplicity(5) == 0


def test_integers_in_empty_input():
    assert spectral._integers_in([], []) == []
    assert spectral._integers_in(np.zeros(0), np.zeros(0)) == []
    assert spectral._integers_in([5], [3]) == []


def test_frequency_enumerations_are_counted_first():
    # each enumeration of k counts before it lists: MAX_FREQUENCIES in
    # overlapping intervals pass, one more raises, and so does a count
    # far past any list, which used to be built or run without end
    cap = spectral.MAX_FREQUENCIES
    assert len(spectral._integers_in([1, 2], [cap // 2, cap])) == cap
    msg = f"enumerating {cap + 1} frequencies k exceeds MAX_FREQUENCIES = {cap}"
    with pytest.raises(spectral.TooManyFrequenciesError, match=msg):
        spectral._integers_in([0, 1], [cap // 2, cap])
    with pytest.raises(spectral.TooManyFrequenciesError, match="1e\\+145 frequencies"):
        resonant_frequencies(SpectralData(((1e308, 1),), 1e299))
    with pytest.raises(spectral.TooManyFrequenciesError, match="1e\\+10 frequencies"):
        degree_of_spectrum(SpectralData(((1e20, 1),), 1e11), 1)
    # a report on diag(1e10 + 0.0123 + l, 2.5) reads 10^5 of them
    assert len(degree_of_spectrum(SpectralData(((2.5, 1), (1e10 + 0.0123, 1)), 10.0), 1).zk) \
        == 10**5
    assert isinstance(spectral.TooManyFrequenciesError(), ValueError)


def test_resonance_outside_tol_band_takes_nearest_cluster_multiplicity():
    # bisection stops at |dlambda| < tol, which a slope of 1e6 turns into an
    # eigenvalue 9e-5 from 4: the kernel takes the nearest cluster's multiplicity
    (pt,) = scan_resonances(_diag1({0: 4.0123, 1: 1e6}), -1e-6, 1e-6)
    assert pt.lambda0 == pytest.approx(-1.22e-8, rel=1e-2)
    assert pt.frequencies == frozenset({2})
    assert pt.kernel_rep.parts == ((1, 2),)
    s = eigen_sym(_diag1({0: 4.0123, 1: 1e6}).eval(pt.lambda0))
    assert s.multiplicity(4) == 0 and s.near(4) == []
