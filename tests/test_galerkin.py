"""Fourier loops, residuals, Newton solves and branch continuation."""

import dataclasses
import math

import numpy as np
import pytest

from equideg import galerkin
from equideg.bifurcation import IndexRule, Perturbation, ProblemSpec
from equideg.galerkin import (BranchPoint, FourierLoop,
                              NewtonConvergenceError, SingularJacobianError,
                              _analytic_jacobian, _coeffs,
                              _continuation_system, _gauss_newton,
                              _lstsq_step, _phase_row, _phase_row_value,
                              continue_to_infinity, energy_drift,
                              minimal_period, minimal_period_divisor,
                              newton_solve, residual, write_branch_csv)
from equideg.problems import example1, example2, example3
from equideg.spectral import MatrixFamily, scan_resonances

from oracles import fd_jacobian


def linear_problem(*diag_polys, pert=None):
    n = len(diag_polys)
    fam = MatrixFamily.from_entry_polynomials(
        n, {(i + 1, i + 1): poly for i, poly in enumerate(diag_polys)})
    return ProblemSpec(n, fam, pert or Perturbation.none(), IndexRule.builtin())


def random_loop(rng, n, N, scale=1.0):
    return FourierLoop(scale * rng.normal(size=n),
                       scale * rng.normal(size=(N, n)),
                       scale * rng.normal(size=(N, n)))


# -------------------------------------------------------------------- loops

def test_loop_shapes_and_immutability():
    loop = FourierLoop.zero(3, 5)
    assert loop.n == 3 and loop.N == 5
    with pytest.raises(AttributeError):
        loop.n = 4
    with pytest.raises(ValueError):
        loop.a0[0] = 1.0
    with pytest.raises(ValueError):
        FourierLoop(np.zeros(2), np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        FourierLoop(np.zeros(2), np.zeros((3, 1)), np.zeros((3, 1)))


def test_loop_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    loop = random_loop(rng, 3, 4)
    back = FourierLoop.unpack(loop.pack(), 3, 4)
    assert np.array_equal(back.a0, loop.a0)
    assert np.array_equal(back.acos, loop.acos)
    assert np.array_equal(back.asin, loop.asin)


def test_loop_values_single_mode():
    loop = FourierLoop.single_mode(2, [1.0, -0.5], N=4)
    M = 17
    t = 2.0 * math.pi * np.arange(M) / M
    vals = loop.values(M)
    assert np.allclose(vals[:, 0], np.cos(2 * t))
    assert np.allclose(vals[:, 1], -0.5 * np.cos(2 * t))


def test_loop_velocity_matches_shifted_difference():
    rng = np.random.default_rng(3)
    loop = random_loop(rng, 2, 5)
    M = 64
    h = 1e-6
    fd = (loop.shifted(h).values(M) - loop.shifted(-h).values(M)) / (2 * h)
    assert np.allclose(loop.velocity(M), fd, atol=1e-7)


def test_loop_values_and_velocity_match_the_table_formula():
    # the inverse-FFT synthesis against explicit cos/sin tables, down to
    # the fewest nodes the residual accepts
    rng = np.random.default_rng(13)
    N = 7
    loop = random_loop(rng, 3, N)
    k = np.arange(1, N + 1)
    for M in (2 * N + 2, 4 * N + 1):
        t = 2.0 * math.pi * np.arange(M) / M
        C, S = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
        vals = loop.a0[None, :] + C @ loop.acos + S @ loop.asin
        vel = -S @ (k[:, None] * loop.acos) + C @ (k[:, None] * loop.asin)
        assert np.abs(loop.values(M) - vals).max() < 1e-12
        assert np.abs(loop.velocity(M) - vel).max() < 1e-12
    with pytest.raises(ValueError, match="2N\\+1"):
        loop.values(2 * N)


def test_loop_shifted_is_time_translation():
    rng = np.random.default_rng(4)
    loop = random_loop(rng, 2, 6)
    s = 0.7
    M = 48
    t = 2.0 * math.pi * np.arange(M) / M
    k = np.arange(1, 7)
    direct = (loop.a0[None, :]
              + np.cos(np.outer(t + s, k)) @ loop.acos
              + np.sin(np.outer(t + s, k)) @ loop.asin)
    assert np.allclose(loop.shifted(s).values(M), direct, atol=1e-12)


def test_loop_truncated_pads_and_drops():
    rng = np.random.default_rng(5)
    loop = random_loop(rng, 2, 4)
    up = loop.truncated(6)
    assert up.N == 6
    assert np.array_equal(up.acos[:4], loop.acos)
    assert np.all(up.acos[4:] == 0.0)
    down = loop.truncated(2)
    assert np.array_equal(down.asin, loop.asin[:2])


def test_loop_amplitude_and_mode_energy():
    loop = FourierLoop.single_mode(3, [2.0, 0.0], N=4)
    assert loop.amplitude() == pytest.approx(2.0, abs=1e-12)
    e = loop.mode_energy()
    assert e[2] == pytest.approx(4.0)
    assert e[0] == e[1] == e[3] == 0.0


# ----------------------------------------------------------------- residual

def test_residual_zero_loop_is_zero():
    p = example2().problem
    loop = FourierLoop.zero(4, 8)
    assert np.allclose(residual(loop, 0.3, p), 0.0)


def test_residual_linear_diagonal_closed_form():
    # constant diagonal A: residual rows are (a_ii - k^2) * coefficient
    p = linear_problem({0: 4.0}, {0: 2.0})
    rng = np.random.default_rng(6)
    loop = random_loop(rng, 2, 5)
    r = FourierLoop.unpack(residual(loop, 0.0, p), 2, 5)
    d = np.array([4.0, 2.0])
    assert np.allclose(r.a0, d * loop.a0, atol=1e-12)
    for k in range(1, 6):
        assert np.allclose(r.acos[k - 1], (d - k * k) * loop.acos[k - 1], atol=1e-12)
        assert np.allclose(r.asin[k - 1], (d - k * k) * loop.asin[k - 1], atol=1e-12)


def test_residual_exact_solution_of_linear_problem():
    # u = R cos(2t) solves u'' = -A u for A = diag(4) at any amplitude
    p = linear_problem({0: 4.0})
    for R in (1.0, 10.0, 1e4):
        loop = FourierLoop.single_mode(2, [R], N=6)
        assert np.abs(residual(loop, 0.0, p)).max() < 1e-9 * R


def test_residual_against_quadrature_oracle():
    # same fine grid, but coefficients via explicit cosine/sine sums instead
    # of the fft: pins down index offsets and normalization
    p = example2().problem
    rng = np.random.default_rng(7)
    loop = random_loop(rng, 4, 3, scale=0.4)
    lam = 0.2
    M = 4096
    got = FourierLoop.unpack(residual(loop, lam, p, M=M), 4, 3)
    t = 2.0 * math.pi * np.arange(M) / M
    G = p.gradient_many(loop.values(M), lam)
    c0 = G.mean(axis=0)
    assert np.allclose(got.a0, c0, atol=1e-10)
    for k in range(1, 4):
        ck = 2.0 / M * (G * np.cos(k * t)[:, None]).sum(axis=0)
        sk = 2.0 / M * (G * np.sin(k * t)[:, None]).sum(axis=0)
        assert np.allclose(got.acos[k - 1],
                           -k * k * loop.acos[k - 1] + ck, atol=1e-10)
        assert np.allclose(got.asin[k - 1],
                           -k * k * loop.asin[k - 1] + sk, atol=1e-10)


def test_residual_commutes_with_time_shift():
    # on a node count generous enough that aliasing sits at machine level,
    # the residual of a shifted loop is the shifted residual
    p = example2().problem
    rng = np.random.default_rng(8)
    loop = random_loop(rng, 4, 6, scale=0.5)
    s = 1.234
    M = 1024
    r_of_shifted = FourierLoop.unpack(residual(loop.shifted(s), 0.1, p, M), 4, 6)
    shifted_r = FourierLoop.unpack(residual(loop, 0.1, p, M), 4, 6).shifted(s)
    assert np.abs(r_of_shifted.pack() - shifted_r.pack()).max() < 1e-12


def test_residual_node_count_guard():
    loop = FourierLoop.zero(1, 4)
    p = linear_problem({0: 1.0})
    with pytest.raises(ValueError):
        residual(loop, 0.0, p, M=9)


def test_phase_row_zero_at_reference():
    rng = np.random.default_rng(9)
    loop = random_loop(rng, 3, 4)
    assert _phase_row_value(loop, loop) == pytest.approx(0.0, abs=1e-12)
    other = random_loop(rng, 3, 4)
    # antisymmetry of the pairing
    assert _phase_row_value(loop, other) == pytest.approx(
        -_phase_row_value(other, loop))


# ------------------------------------------------------------------ jacobians

def test_analytic_jacobian_matches_finite_differences():
    p = example2().problem
    rng = np.random.default_rng(10)
    loop = random_loop(rng, 4, 3, scale=0.5)
    lam = 0.1
    M = 13

    def func(x):
        return residual(FourierLoop.unpack(x, 4, 3), lam, p, M)

    x = loop.pack()
    J_an = _analytic_jacobian(loop, lam, p, M)
    J_fd = fd_jacobian(func, x, func(x))
    assert np.abs(J_an - J_fd).max() < 1e-5


def parity_indices(n, N):
    """Packed indices of (a0 and cos, sin) coefficients, built from unpack."""
    idx = FourierLoop.unpack(np.arange(n * (2 * N + 1), dtype=float), n, N)
    cos = np.concatenate([idx.a0, idx.acos.ravel()]).astype(int)
    return np.sort(cos), np.sort(idx.asin.ravel().astype(int))


def block_indices(n, N):
    """(even rows, even columns, odd rows, odd columns) of the augmented
    Jacobian: rows are the packed residual, the phase row dim and the pin
    row dim + 1; columns are the packed loop and lambda at dim."""
    dim = n * (2 * N + 1)
    cos, sin = parity_indices(n, N)
    return np.r_[cos, dim + 1], np.r_[cos, dim], np.r_[sin, dim], sin


def full_continuation_jacobian(p, ref, k0, M, z):
    """The whole augmented Jacobian of _continuation_system's func, built
    from the full harmonic-balance matrix: the reference the even and odd
    blocks are checked against."""
    n, N = ref.n, ref.N
    dim = n * (2 * N + 1)
    pin = slice(n + 2 * n * (k0 - 1), n + 2 * n * k0)  # acos_k0, asin_k0
    lp, lam = FourierLoop.unpack(z[:-1], n, N), z[-1]
    J = np.zeros((dim + 2, dim + 1))
    J[:dim, :dim] = _analytic_jacobian(lp, lam, p, M)
    J[:dim, dim] = _coeffs(p.gradient_lambda_many(lp.values(M), lam), N)
    J[dim, :dim] = _phase_row(ref)
    J[dim + 1, pin] = z[pin] / np.linalg.norm(z[pin])
    return J


def even_loop(rng, n, N, scale=1.0):
    loop = random_loop(rng, n, N, scale)
    return FourierLoop(loop.a0, loop.acos, np.zeros_like(loop.asin))


@pytest.mark.parametrize("make", [example1, example2, example3])
def test_continuation_jacobian_matches_finite_differences(make):
    # the augmented system at even loops: lambda column (example 1 has a
    # lambda^2 Kepler scale and a lambda-dependent family) and pin row in
    # the even block, phase row in the odd block
    p = make().problem
    rng = np.random.default_rng(11)
    N, M, k0 = 3, 13, 2
    even_rows, even_cols, odd_rows, odd_cols = block_indices(p.n, N)
    for _ in range(5):
        ref = even_loop(rng, p.n, N, scale=0.5)
        func, jac, _ = _continuation_system(p, ref, 1.5, k0, M)
        z = np.concatenate([even_loop(rng, p.n, N, scale=0.5).pack(),
                            [rng.uniform(-0.9, 0.9)]])
        even, odd = jac(z)
        J_fd = fd_jacobian(func, z, func(z))
        assert even.shape == (p.n * (N + 1) + 1,) * 2
        assert odd.shape == (p.n * N + 1, p.n * N)
        scale = max(1.0, float(np.abs(even).max()), float(np.abs(odd).max()))
        assert np.abs(even - J_fd[np.ix_(even_rows, even_cols)]).max() / scale < 1e-5
        assert np.abs(odd - J_fd[np.ix_(odd_rows, odd_cols)]).max() / scale < 1e-5


@pytest.mark.parametrize("make", [example1, example2, example3])
def test_continuation_jacobian_is_block_diagonal_at_even_loops(make):
    # reversibility: at a loop even in t on symmetric nodes the cos rows
    # do not see the sin columns and vice versa; the phase row lives on the
    # sin columns, the pin row on the cos columns.  A loop with sin content
    # couples the two, so the first check can fail.  The blocks jac builds
    # directly are the full matrix's diagonal blocks.
    p = make().problem
    rng = np.random.default_rng(14)
    N, k0 = 5, 2
    M = 4 * N + 1
    dim = p.n * (2 * N + 1)
    cos, sin = parity_indices(p.n, N)
    even_rows, even_cols, odd_rows, odd_cols = block_indices(p.n, N)
    lam_col, phase, pin = dim, dim, dim + 1
    for _ in range(3):
        loop = random_loop(rng, p.n, N, scale=0.5)
        even = FourierLoop(loop.a0, loop.acos, np.zeros_like(loop.asin))
        lam = rng.uniform(-0.9, 0.9)
        z = np.concatenate([even.pack(), [lam]])
        J = full_continuation_jacobian(p, even, k0, M, z)
        scale = float(np.abs(J).max())
        assert np.abs(J[np.ix_(cos, sin)]).max() <= 1e-13 * scale
        assert np.abs(J[np.ix_(sin, even_cols)]).max() <= 1e-13 * scale
        assert np.all(J[phase, even_cols] == 0.0)
        assert np.all(J[pin, sin] == 0.0)
        assert J[phase, lam_col] == 0.0

        _, jac, _ = _continuation_system(p, even, 1.5, k0, M)
        even_block, odd_block = jac(z)
        assert np.abs(even_block - J[np.ix_(even_rows, even_cols)]).max() \
            <= 1e-14 * scale
        assert np.abs(odd_block - J[np.ix_(odd_rows, odd_cols)]).max() \
            <= 1e-14 * scale

        J = full_continuation_jacobian(
            p, loop, k0, M, np.concatenate([loop.pack(), [lam]]))
        scale = float(np.abs(J).max())
        assert np.abs(J[np.ix_(cos, sin)]).max() > 1e-6 * scale


def _resonance(ex, lam0):
    points = scan_resonances(ex.problem.family, ex.lm, ex.lp)
    return min(points, key=lambda r: abs(r.lambda0 - lam0))


BRANCH_RESONANCES = [(example1, 1.0 - math.sqrt(2.0)),
                     (example2, 0.0),
                     (example3, (4.0 - math.sqrt(10.0)) ** (1.0 / 3.0))]


def as_user(make):
    """The example maker ``make`` with the example's perturbation handed
    over as a user gradient callable."""
    def make_user():
        ex = make()
        pert = ex.problem.perturbation
        user = Perturbation.user(lambda x, lam: pert.gradient_many(x, lam)[0])
        return dataclasses.replace(ex, problem=dataclasses.replace(
            ex.problem, perturbation=user))
    make_user.__name__ = f"{make.__name__}_user"
    return make_user


@pytest.mark.parametrize("make, lam0", BRANCH_RESONANCES)
@pytest.mark.parametrize("modes", [8, 16])
def test_reversible_step_agrees_with_the_full_solve(monkeypatch, make, lam0, modes):
    # the same branch through the even-block step and through one full
    # least-squares solve of the whole augmented Jacobian per step
    ex = make()
    r = _resonance(ex, lam0)
    last_z = {}
    system = galerkin._continuation_system

    def recording_system(p, ref, R, k0, M):
        func, jac, solve = system(p, ref, R, k0, M)

        def rec(z):
            last_z[R] = (p, ref, k0, M, z.copy())
            return jac(z)
        return func, rec, solve

    def full_system(p, ref, R, k0, M):
        func, _, _ = system(p, ref, R, k0, M)
        return (func, lambda z: full_continuation_jacobian(p, ref, k0, M, z),
                _lstsq_step)

    monkeypatch.setattr(galerkin, "_continuation_system", recording_system)
    new = continue_to_infinity(ex.problem, r, [4.0, 16.0, 64.0], modes)
    monkeypatch.setattr(galerkin, "_continuation_system", full_system)
    ref = continue_to_infinity(ex.problem, r, [4.0, 16.0, 64.0], modes)
    assert len(new) == len(ref) == 3
    for a, b in zip(new, ref):
        assert not a.failed and not b.failed
        assert a.newton_steps == b.newton_steps
        assert a.active_modes == b.active_modes
        assert minimal_period_divisor(a.loop) == minimal_period_divisor(b.loop)
        assert abs(a.lam - b.lam) <= 1e-12
        assert np.abs(a.loop.pack() - b.loop.pack()).max() <= 1e-10
        assert np.all(a.loop.asin == 0.0)
        sv = np.linalg.svd(full_continuation_jacobian(*last_z[a.amplitude]),
                           compute_uv=False)
        assert a.jacobian_cond == pytest.approx(sv[0] / sv[-1], rel=1e-6)


def test_reversible_step_detects_a_singular_odd_block():
    # n = 1, N = 2: the even block is the identity, the odd block has two
    # equal columns, so only the singular values of the odd block reveal
    # that the full Jacobian is rank deficient
    n, N = 1, 2
    dim = n * (2 * N + 1)
    even_rows, even_cols, odd_rows, odd_cols = block_indices(n, N)
    even, odd = np.eye(n * (N + 1) + 1), np.ones((n * N + 1, n * N))
    J = np.zeros((dim + 2, dim + 1))
    J[even_rows, even_cols] = 1.0
    J[np.ix_(odd_rows, odd_cols)] = 1.0
    func = lambda z: np.ones(dim + 2)
    _, _, block_solve = _continuation_system(linear_problem({0: 1.0}),
                                             FourierLoop.zero(n, N), 1.0, 1, 9)
    for blocks, solve in (((even, odd), block_solve), (J, _lstsq_step)):
        with pytest.raises(SingularJacobianError) as err:
            _gauss_newton(func, np.zeros(dim + 1), 1e-10, 5, lambda z: blocks,
                          solve)
        assert err.value.cond > 1e14


@pytest.mark.parametrize("make, lam0", BRANCH_RESONANCES + [
    (as_user(make), lam0) for make, lam0 in BRANCH_RESONANCES])
@pytest.mark.parametrize("modes", [8, 32])
def test_continuation_step_costs_one_lstsq_and_one_svd(monkeypatch, make,
                                                       lam0, modes):
    # each Newton step solves the even block once and takes the odd block's
    # singular values once; the full harmonic-balance matrix is never built,
    # also for a user perturbation, whose Hessian is a central difference
    ex = make()
    r = _resonance(ex, lam0)
    calls = {"lstsq": 0, "svd": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    def forbidden(*args):
        raise AssertionError("continuation built the full Jacobian")

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(galerkin, "_analytic_jacobian", forbidden)
    branch = continue_to_infinity(ex.problem, r, [4.0, 16.0, 64.0], modes)
    assert not any(bp.failed for bp in branch)
    steps = sum(bp.newton_steps for bp in branch)
    assert steps > 0
    assert calls == {"lstsq": steps, "svd": steps}


# --------------------------------------------------------------- newton solve

def test_newton_exact_guess_converges_without_iterating(monkeypatch):
    # convergence is checked before the first step: with no step budget at
    # all an exact guess still comes back, bit for bit
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(2, [3.0], N=4)
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 0)
    out = newton_solve(guess, 0.0, p)
    assert np.array_equal(out.pack(), guess.pack())


def test_newton_inexact_guess_with_no_budget_raises():
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(1, [1.0], N=4)  # not a solution
    func = lambda x: residual(FourierLoop.unpack(x, 1, 4), 0.0, p)
    jac = lambda x: _analytic_jacobian(FourierLoop.unpack(x, 1, 4), 0.0, p, 17)
    with pytest.raises(NewtonConvergenceError):
        _gauss_newton(func, guess.pack(), 1e-10, 0, jac)


def test_newton_singular_jacobian_detected():
    # for A = diag(4) any mode-2 content solves the truncated system, so the
    # mode-2 columns vanish identically; the analytic Jacobian sees the rank
    # drop exactly (finite differences would blur it with O(1e-10) noise)
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(1, [0.1], N=2)
    with pytest.raises(SingularJacobianError) as err:
        newton_solve(guess, 0.0, p)
    assert err.value.cond > 1e14


def test_newton_converges_on_perturbed_linear_problem():
    # x'' = -9x - x/(1+x^2)^(3/2) has a pi/... irrational-frequency kernel,
    # no 2pi-periodic branch; the zero loop is the isolated solution nearby
    p = linear_problem({0: 9.5}, pert=Perturbation.kepler(1.0, "constant"))
    guess = FourierLoop.single_mode(3, [1e-3], N=6)
    out = newton_solve(guess, 0.0, p)
    assert np.abs(out.pack()).max() < 1e-8


def test_continuation_user_perturbation_agrees_with_builtin():
    # a user perturbation has no Hessian, so its Newton steps use finite
    # differences; handed the Kepler gradient it must find the same branch
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    user = ProblemSpec(4, ex.problem.family, Perturbation.user(
        lambda x, lam: x / (x @ x + 1.0) ** 1.5), IndexRule.builtin())
    an = continue_to_infinity(ex.problem, r, [3.0, 6.0], modes=10)
    fd = continue_to_infinity(user, r, [3.0, 6.0], modes=10)
    for a, b in zip(an, fd):
        assert not a.failed and not b.failed
        assert abs(a.lam - b.lam) < 1e-8
        assert np.abs(a.loop.pack() - b.loop.pack()).max() < 1e-8
        assert b.energy_drift is None  # no potential to measure it with


def test_newton_and_continuation_share_the_node_rule():
    # both solvers collocate on 4N+1 nodes and newton_solve keeps the
    # guess's N, so a converged branch point is already a newton_solve
    # solution and comes back bit for bit (on 2N+3 nodes its residual is
    # above 1e-6 and a solve there would move it)
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    bp = continue_to_infinity(ex.problem, r, [4.0], modes=6)[0]
    assert np.abs(residual(bp.loop, bp.lam, ex.problem, 15)).max() > 1e-6
    out = newton_solve(bp.loop, bp.lam, ex.problem)
    assert out.N == 6
    assert np.array_equal(out.pack(), bp.loop.pack())


def test_newton_solution_shift_family():
    # any time shift of a solution is again a solution; per-mode residual
    # energies are shift-invariant (the packed components themselves rotate)
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    branch = continue_to_infinity(ex.problem, r, [2.0], modes=10)
    loop = branch[0].loop
    M = 1024

    def mode_energies(lp):
        r_loop = FourierLoop.unpack(residual(lp, branch[0].lam, ex.problem, M),
                                    4, 10)
        return np.concatenate([[float(r_loop.a0 @ r_loop.a0)],
                               r_loop.mode_energy()])

    base = mode_energies(loop)
    for s in (0.5, 1.7, math.pi):
        assert np.abs(mode_energies(loop.shifted(s)) - base).max() < 1e-12


# --------------------------------------------------------------- continuation

def test_continuation_linear_family_stays_at_resonance():
    # A(lambda) = [lambda]: u = R cos t solves exactly at lambda = 1 for
    # every R, so the branch sticks to lambda0 with a single active mode
    fam = MatrixFamily.from_entry_polynomials(1, {(1, 1): {1: 1.0}})
    p = ProblemSpec(1, fam, Perturbation.none(), IndexRule.builtin())
    r = scan_resonances(fam, 0.5, 1.5)[0]
    assert r.lambda0 == pytest.approx(1.0, abs=1e-9)
    branch = continue_to_infinity(p, r, [1.0, 2.0, 4.0], modes=8)
    for bp in branch:
        assert not bp.failed
        assert bp.lam == pytest.approx(1.0, abs=1e-8)
        assert bp.active_modes == frozenset({1})
        assert minimal_period(bp.loop) == pytest.approx(2.0 * math.pi)
        assert bp.residual_norm < 1e-10


def test_continuation_example2_drifts_to_resonance():
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    branch = continue_to_infinity(ex.problem, r, [2.0, 4.0, 8.0], modes=12)
    assert all(not bp.failed for bp in branch)
    drift = [abs(bp.lam - r.lambda0) for bp in branch]
    assert drift[0] > drift[1] > drift[2]
    for bp in branch:
        # the mode-2 pair carries essentially all of the loop
        frac = bp.loop.mode_energy()[1] / bp.loop.mode_energy().sum()
        assert frac > 0.99
        assert minimal_period_divisor(bp.loop) == 2
        assert bp.residual_norm < 1e-9


def test_continuation_failure_appends_marker_and_truncates(monkeypatch):
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 0)
    branch = continue_to_infinity(ex.problem, r, [2.0, 4.0], modes=10)
    assert len(branch) == 1
    assert branch[0].failed
    assert branch[0].residual_norm == math.inf


def test_continuation_direction_validation():
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    with pytest.raises(ValueError, match="direction"):
        continue_to_infinity(ex.problem, r, [1.0], direction=5)


def test_continuation_follows_each_direction_of_a_triple_crossing():
    # diag(4 + l, 4 + l, 4 + l, 2): k0^2 = 4 has multiplicity 3 at l = 0,
    # so there is one branch per coordinate axis of the first three
    p = linear_problem({0: 4.0, 1: 1.0}, {0: 4.0, 1: 1.0}, {0: 4.0, 1: 1.0},
                       {0: 2.0}, pert=Perturbation.kepler(1.0, "constant"))
    r = scan_resonances(p.family, -0.5, 0.5)[0]
    assert r.kernel_rep.multiplicity(2) == 3
    axes = set()
    for direction in range(3):
        branch = continue_to_infinity(p, r, [2.0, 4.0], modes=8,
                                      direction=direction)
        assert all(not bp.failed and bp.residual_norm < 1e-10 for bp in branch)
        mode2 = np.abs(branch[0].loop.acos[1])
        axis = int(np.argmax(mode2))
        assert mode2[axis] == pytest.approx(2.0)
        assert np.delete(mode2, axis).max() < 1e-10
        axes.add(axis)
    assert axes == {0, 1, 2}
    with pytest.raises(ValueError, match="multiplicity is 3"):
        continue_to_infinity(p, r, [2.0], direction=3)


def test_continuation_rejects_nonpositive_amplitudes():
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    for amplitudes in ([0.0, 1.0], [-1.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            continue_to_infinity(ex.problem, r, amplitudes)


def test_continuation_needs_modes_up_to_k0():
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    with pytest.raises(ValueError, match="k0 = 2"):
        continue_to_infinity(ex.problem, r, [1.0], modes=1)
    for modes in (0, -3):
        with pytest.raises(ValueError, match=f"modes = {modes}"):
            continue_to_infinity(ex.problem, r, [1.0], modes=modes)


def test_continuation_needs_positive_frequency():
    from equideg.reps import RepDecomposition
    from equideg.spectral import ResonancePoint
    ex = example2()
    r = ResonancePoint(0.0, frozenset({0}), RepDecomposition(((1, 0),)), True)
    with pytest.raises(ValueError, match="positive frequency"):
        continue_to_infinity(ex.problem, r, [1.0])


def test_continuation_truncation_refinement_is_small():
    # doubling the truncation order barely moves the retained coefficients
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    coarse = continue_to_infinity(ex.problem, r, [2.0], modes=16)[0]
    fine = newton_solve(coarse.loop.truncated(32), coarse.lam, ex.problem)
    assert np.abs(fine.acos[:16] - coarse.loop.acos).max() < 1e-5
    assert np.abs(fine.asin[:16] - coarse.loop.asin).max() < 1e-5


# -------------------------------------------------------------------- periods

def test_minimal_period_of_constant_loop_is_zero():
    loop = FourierLoop(np.array([1.0, 2.0]), np.zeros((4, 2)), np.zeros((4, 2)))
    assert minimal_period_divisor(loop) == 0
    assert minimal_period(loop) == 0.0
    assert minimal_period_divisor(FourierLoop.zero(2, 4)) == 0


def test_minimal_period_gcd_of_active_modes():
    loop = FourierLoop.single_mode(2, [1.0], N=6)
    assert minimal_period(loop) == pytest.approx(math.pi)
    acos = loop.acos.copy()
    acos[2, 0] = 0.5  # add mode 3: gcd(2, 3) = 1
    mixed = FourierLoop(loop.a0, acos, loop.asin)
    assert minimal_period_divisor(mixed) == 1
    assert minimal_period(mixed) == pytest.approx(2.0 * math.pi)


def test_minimal_period_does_not_depend_on_the_loop_scale():
    # scaled by 1e300 the mode energies overflow when squared, scaled by
    # 1e-300 they underflow; the divisor sees neither
    acos = np.zeros((6, 2))
    acos[1] = [1.0, -0.5]
    acos[3, 0] = 0.25
    for scale in (1.0, 1e300, 1e-300):
        loop = FourierLoop(np.zeros(2), scale * acos, np.zeros((6, 2)))
        assert minimal_period_divisor(loop) == 2


def test_minimal_period_ignores_relative_noise():
    acos = np.zeros((5, 1))
    acos[1, 0] = 1.0
    acos[2, 0] = 1e-9  # far below the relative threshold
    loop = FourierLoop(np.zeros(1), acos, np.zeros((5, 1)))
    assert minimal_period_divisor(loop) == 2


# --------------------------------------------------------------------- energy

def test_energy_conserved_on_exact_linear_orbit():
    fam = MatrixFamily.from_entry_polynomials(1, {(1, 1): {1: 1.0}})
    p = ProblemSpec(1, fam, Perturbation.none(), IndexRule.builtin())
    loop = FourierLoop.single_mode(1, [2.0], N=6)
    assert energy_drift(loop, 1.0, p) < 1e-12


def test_energy_drift_small_amplitude_branch():
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    branch = continue_to_infinity(ex.problem, r, [0.4], modes=32)
    bp = branch[0]
    assert not bp.failed
    assert energy_drift(bp.loop, bp.lam, ex.problem) < 1e-9


def test_energy_drift_detects_bad_loop():
    # a random non-solution has wildly varying energy
    p = example2().problem
    rng = np.random.default_rng(12)
    loop = random_loop(rng, 4, 4)
    assert energy_drift(loop, 0.0, p) > 1e-2


# ------------------------------------------------------------------------ csv

def test_write_branch_csv_roundtrip(tmp_path):
    ex = example2()
    r = scan_resonances(ex.problem.family, ex.lm, ex.lp)[0]
    branch = continue_to_infinity(ex.problem, r, [2.0, 4.0], modes=6)
    path = tmp_path / "branch.csv"
    write_branch_csv(path, branch)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# branch of 2pi-periodic solutions")
    header = lines[1].split(",")
    n, N = 4, 6
    assert len(header) == 4 + n + 2 * n * N
    assert header[:4] == ["lambda", "amplitude", "residual_norm",
                          "min_period_divisor"]
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    assert data.shape == (2, len(header))
    # 17 significant digits reproduce lambda exactly
    assert data[0, 0] == branch[0].lam
    assert data[1, 1] == 4.0
    assert data[0, 3] == minimal_period_divisor(branch[0].loop)


def test_write_branch_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_branch_csv(tmp_path / "x.csv", [])
