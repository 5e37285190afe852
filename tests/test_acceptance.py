"""Acceptance gate: the ten headline criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
Each criterion is a single test; its assertion message lists every
sub-check that missed its pinned tolerance.
"""

import math

import numpy as np

from equideg.bifurcation import bif_index, build_report
from equideg.galerkin import (FourierLoop, continue_to_infinity,
                              energy_drift, minimal_period_divisor,
                              newton_solve, residual)
from equideg.problems import example1, example2, example3
from equideg.reps import isotropy_gcd_set, period_labels
from equideg.spectral import (eigen_sym, j_k, resonant_frequencies,
                              scan_resonances)
from equideg.udring import ONE, ZERO, TomDieckElement, add, star

from oracles import (_analytic_jacobian, charpoly_eigenvalues, fd_jacobian,
                     minus_id_morse, random_symmetric)
from test_bifurcation import _random_nonresonant_problem
from test_eqdeg import block_deg, concat_block_data, rand_block_data
from test_udring import rand_elem


def criterion(num, name):
    """Print exactly one PASS/FAIL line per criterion, then assert."""
    def deco(fn):
        def run():
            failures = []
            try:
                fn(failures)
            except Exception:
                print(f"[FAIL] criterion {num:2d}: {name}")
                raise
            print(f"[{'PASS' if not failures else 'FAIL'}] "
                  f"criterion {num:2d}: {name}")
            assert not failures, (
                f"criterion {num} ({name}): " + "; ".join(failures[:8]))
        # keep the collected name, but not the wrapped signature: pytest
        # must see a zero-argument test
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return deco


def chk(failures, ok, msg):
    if not ok:
        failures.append(msg)


@criterion(1, "example 1 spectral invariants and resonance location")
def test_criterion_01(failures):
    ex = example1()
    A_p, A_m = ex.problem().family.eval(1.0), ex.problem().family.eval(-1.0)
    chk(failures, j_k(A_p, 1) == 2, f"j_1 at +1 is {j_k(A_p, 1)}, want 2")
    chk(failures, j_k(A_m, 1) == 1, f"j_1 at -1 is {j_k(A_m, 1)}, want 1")
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)   # on [-1, 1]
    rule = ex.problem().index_rule
    chk(failures, rule.ind_of(r.s_plus, ex.lambda_plus) == -1, "index at +1 is not -1")
    chk(failures, rule.ind_of(r.s_minus, ex.lambda_minus) == -1, "index at -1 is not -1")
    chk(failures, r.kset == frozenset(), f"K-set {sorted(r.kset)} not empty")
    interior = [(p, isotropy_gcd_set(p.kernel_rep)) for p in r.resonances
                if p.det_nonzero]
    chk(failures, len(interior) == 1,
        f"{len(interior)} interior resonances, want 1")
    if interior:
        pt, labels = interior[0]
        lam0 = pt.lambda0
        chk(failures, abs(lam0 - (1.0 - math.sqrt(2.0))) < 1e-9,
            f"lambda0 {lam0!r} misses 1 - sqrt2 by more than 1e-9")
        chk(failures, labels == {1} and period_labels(labels) == ["2pi"],
            f"predicted periods {period_labels(labels)}, want exactly 2pi")


@criterion(2, "example 2 spectral invariants and single-resonance criterion")
def test_criterion_02(failures):
    ex = example2()
    met = resonant_frequencies(eigen_sym(ex.problem().family.eval(0.0)))
    chk(failures, met == frozenset({2}),
        f"squares met at 0: {sorted(k * k for k in met)}, want [4]")
    jp = j_k(ex.problem().family.eval(0.5), 2)
    jm = j_k(ex.problem().family.eval(-0.5), 2)
    chk(failures, (jp, jm) == (1, 0), f"j_2 pair {(jp, jm)}, want (1, 0)")
    r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
    v = r.criterion
    chk(failures, v.holds and v.name == "eqcont2(ii)" and v.witness_k == 2,
        f"criterion verdict {v.name} witness {v.witness_k}")
    chk(failures, abs(v.lambda0) < 1e-9, f"lambda0 {v.lambda0!r} not at 0")
    labels = isotropy_gcd_set(r.resonances[0].kernel_rep)
    chk(failures, labels == {2} and period_labels(labels) == ["pi"],
        f"predicted periods {period_labels(labels)}, want exactly pi")


@criterion(3, "example 3 spectral invariants and period set")
def test_criterion_03(failures):
    ex = example3()
    met = resonant_frequencies(eigen_sym(ex.problem().family.eval(0.0)))
    chk(failures, met == frozenset({2, 3, 5}),
        f"squares met at 0: {sorted(k * k for k in met)}, want [4, 9, 25]")
    jp = j_k(ex.problem().family.eval(1.0), 2)
    jm = j_k(ex.problem().family.eval(-1.0), 2)
    chk(failures, (jp, jm) == (4, 3), f"j_2 pair {(jp, jm)}, want (4, 3)")
    at0 = [p for p in scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)
           if abs(p.lambda0) < 1e-9]
    chk(failures, len(at0) == 1, f"{len(at0)} resonances at 0, want 1")
    if at0:
        labels = isotropy_gcd_set(at0[0].kernel_rep)
        chk(failures, labels == {1, 2, 3, 5}
            and period_labels(labels) == ["2pi", "pi", "2pi/3", "2pi/5"],
            f"predicted periods {period_labels(labels)}, want 2pi, pi, 2pi/3, 2pi/5")


@criterion(4, "nonzero bifurcation index invisible to the scalar shadow")
def test_criterion_04(failures):
    for make in (example1, example2, example3):
        ex = make()
        r = build_report(ex.problem(), ex.lambda_minus, ex.lambda_plus)
        chk(failures, r.bif != ZERO, f"{make.__name__}: bifurcation index is zero")
        chk(failures, r.bif_ls == 0, f"{make.__name__}: scalar shadow {r.bif_ls}, want 0")


@criterion(5, "ring laws on 1000 random triples")
def test_criterion_05(failures):
    rng = np.random.default_rng(2025)
    bad = 0
    for _ in range(1000):
        a, b, c = (rand_elem(rng) for _ in range(3))
        ok = (add(a, b) == add(b, a)
              and star(a, b) == star(b, a)
              and add(add(a, b), c) == add(a, add(b, c))
              and star(star(a, b), c) == star(a, star(b, c))
              and star(a, add(b, c)) == add(star(a, b), star(a, c))
              and star(a, ONE) == a and star(ONE, a) == a
              and add(a, ZERO) == a and star(a, ZERO) == ZERO)
        # canonical form: no stored zero coordinates anywhere
        for e in (add(a, b), star(a, b), star(a, add(b, c))):
            ok = ok and all(v != 0 for v in e.zk.values())
        bad += not ok
    chk(failures, bad == 0, f"{bad} of 1000 triples violated a ring law")


@criterion(6, "linear degree laws on random block data")
def test_criterion_06(failures):
    # on the block formula of tests/oracles.py, the oracle of the degrees
    # the pipeline computes
    rng = np.random.default_rng(2026)
    bad_product = bad_suspension = 0
    for _ in range(200):
        d1, d2 = rand_block_data(rng), rand_block_data(rng)
        if block_deg(concat_block_data(d1, d2)) != star(block_deg(d1), block_deg(d2)):
            bad_product += 1
        free_k = max(k for _, k in d1[0]) + 1
        if block_deg(concat_block_data(d1, (((2, free_k),), (0,)))) != block_deg(d1):
            bad_suspension += 1
    chk(failures, bad_product == 0,
        f"{bad_product} of 200 pairs broke the product formula")
    chk(failures, bad_suspension == 0,
        f"{bad_suspension} of 200 pairs broke suspension invariance")
    bad_minus = 0
    for _ in range(100):
        ks = sorted(rng.choice(np.arange(0, 7), size=int(rng.integers(1, 4)),
                               replace=False).tolist())
        parts = tuple((int(rng.integers(1, 4)), int(k)) for k in ks)
        j0 = next((j for j, k in parts if k == 0), 0)
        sign = (-1) ** j0
        want = TomDieckElement(sign, {k: sign * j for j, k in parts if k >= 1})
        if block_deg((parts, minus_id_morse(parts))) != want:
            bad_minus += 1
    chk(failures, bad_minus == 0,
        f"{bad_minus} of 100 minus-identity degrees missed the closed form")


@criterion(7, "interval additivity and antisymmetry of the index")
def test_criterion_07(failures):
    rng = np.random.default_rng(2027)
    bad = 0
    for _ in range(50):
        p, (a, b, c) = _random_nonresonant_problem(rng, int(rng.integers(1, 5)))
        left, right = bif_index(p, a, b), bif_index(p, b, c)
        ok = (bif_index(p, a, c) == left + right
              and bif_index(p, b, a) == -1 * left
              and bif_index(p, c, b) == -1 * right)
        bad += not ok
    chk(failures, bad == 0,
        f"{bad} of 50 families broke additivity or antisymmetry")


@criterion(8, "eigenvalues against the characteristic-polynomial oracle")
def test_criterion_08(failures):
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = random_symmetric(rng, n, scale=3.0)
        s = eigen_sym(A)
        got = np.array([v for v, m in s.eigenvalues for _ in range(m)])
        want = np.array(charpoly_eigenvalues(A))
        worst = max(worst, float(np.abs(np.sort(got) - np.sort(want)).max()))
    chk(failures, worst < 1e-8,
        f"worst eigenvalue error {worst:.3e} exceeds 1e-8")


@criterion(9, "continuation evidence along the example branches")
def test_criterion_09(failures):
    amplitudes = [10.0, 20.0, 40.0, 80.0, 160.0]

    ex2 = example2()
    r2 = [p for p in scan_resonances(ex2.problem().family, ex2.lambda_minus, ex2.lambda_plus)
          if p.det_nonzero][0]
    branch = continue_to_infinity(ex2.problem(), r2, amplitudes, modes=16)
    chk(failures, all(not bp.failed for bp in branch),
        "example 2: a branch point failed to converge")
    for bp in branch:
        chk(failures, bp.residual_norm < 1e-9,
            f"example 2: residual {bp.residual_norm:.2e} at R={bp.amplitude:g}")
        chk(failures, minimal_period_divisor(bp.loop) == 2,
            f"example 2: period not pi at R={bp.amplitude:g}")
    chk(failures, abs(branch[-1].lam - r2.lambda0) < 0.05,
        f"example 2: |lambda(160)| = {abs(branch[-1].lam):.3g} >= 0.05")
    tail = [abs(bp.lam - r2.lambda0) for bp in branch[-3:]]
    chk(failures, tail[0] >= tail[1] >= tail[2],
        f"example 2: |lambda| tail {tail} not monotone")
    # Energy: the Kepler term -1/sqrt(|x|^2 + a) has poles at |x|^2 = -a, so
    # a loop u ~ R v cos(k0 t) is analytic only in the strip |Im t| < sigma,
    # sigma = asinh(sqrt(a)/R)/k0, and an N-mode loop keeps an O(1) drift
    # while N sigma is small. What a truncated solution can promise is the
    # spectral rate: refined from N to 2N modes at its own lambda, its drift
    # falls by at least exp(-N sigma). Beyond R = 40 the drift only starts to
    # fall at N >= 4R modes, so R = 80 and 160 are refined to N = 4R first and
    # checked from 4R to 8R modes (320 to 640, 640 to 1280).
    a = ex2.problem().perturbation.a
    k0 = min(k for k in r2.frequencies if k >= 1)
    for bp in branch:
        R = bp.amplitude
        sigma = math.asinh(math.sqrt(a) / R) / k0
        loop = bp.loop
        if R > 40.0:
            loop = newton_solve(loop.truncated(int(4 * R)), bp.lam, ex2.problem())
        drift = energy_drift(loop, bp.lam, ex2.problem())
        for N in (16, 32) if R <= 40.0 else (int(4 * R),):
            loop = newton_solve(loop.truncated(2 * N), bp.lam, ex2.problem())
            refined = energy_drift(loop, bp.lam, ex2.problem())
            chk(failures, refined <= math.exp(-N * sigma) * drift,
                f"example 2: energy drift {drift:.3e} at N={N} fell only to "
                f"{refined:.3e} at N={2 * N}, R={R:g} "
                f"(bound factor exp(-N sigma) = {math.exp(-N * sigma):.3f})")
            drift = refined

    ex1 = example1()
    r1 = [p for p in scan_resonances(ex1.problem().family, ex1.lambda_minus, ex1.lambda_plus)
          if p.det_nonzero][0]
    branch1 = continue_to_infinity(ex1.problem(), r1, amplitudes, modes=16)
    chk(failures, all(not bp.failed for bp in branch1),
        "example 1: a branch point failed to converge")
    for bp in branch1:
        chk(failures, bp.residual_norm < 1e-9,
            f"example 1: residual {bp.residual_norm:.2e} at R={bp.amplitude:g}")
        chk(failures, minimal_period_divisor(bp.loop) == 1,
            f"example 1: period not 2pi at R={bp.amplitude:g}")


@criterion(10, "Jacobian consistency and time-shift equivariance")
def test_criterion_10(failures):
    p = example2().problem()
    rng = np.random.default_rng(2030)
    worst_jac = worst_shift = 0.0
    for _ in range(20):
        loop = FourierLoop(0.4 * rng.normal(size=4),
                           0.4 * rng.normal(size=(3, 4)),
                           0.4 * rng.normal(size=(3, 4)))
        lam = float(rng.uniform(-0.4, 0.4))
        M = 13

        def func(x, lam=lam):
            return residual(FourierLoop.unpack(x, 4, 3), lam, p, M)

        x = loop.pack()
        J_an = _analytic_jacobian(loop, lam, p, M)
        J_fd = fd_jacobian(func, x, func(x))
        scale = max(1.0, float(np.abs(J_an).max()))
        worst_jac = max(worst_jac, float(np.abs(J_an - J_fd).max()) / scale)

        s = float(rng.uniform(0.0, 2.0 * math.pi))
        Mbig = 1024
        lhs = residual(loop.shifted(s), lam, p, Mbig)
        rhs = FourierLoop.unpack(residual(loop, lam, p, Mbig), 4, 3).shifted(s)
        worst_shift = max(worst_shift,
                          float(np.abs(lhs - rhs.pack()).max()))
    chk(failures, worst_jac < 1e-5,
        f"worst relative Jacobian disagreement {worst_jac:.3e} >= 1e-5")
    chk(failures, worst_shift < 1e-12,
        f"worst equivariance defect {worst_shift:.3e} >= 1e-12")
