"""Fourier loops, residuals, Newton solves and branch continuation."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equideg import galerkin
from equideg.bifurcation import IndexRule, Perturbation, ProblemSpec
from equideg.galerkin import (FourierLoop, NewtonConvergenceError,
                              SingularJacobianError, _continuation_system,
                              _gauss_newton, _rank_checked,
                              continue_to_infinity, energy_drift,
                              minimal_period, minimal_period_divisor,
                              newton_solve, residual, write_branch_csv)
from equideg.problems import example1, example2, example3
from equideg.spectral import MatrixFamily, scan_resonances

from oracles import (_analytic_jacobian, _lstsq_step, fd_jacobian,
                     full_continuation_jacobian, phase_row)


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


def test_single_mode_needs_a_retained_mode():
    for k in (0, -1, 5):
        with pytest.raises(ValueError, match="outside 1..N"):
            FourierLoop.single_mode(k, [1.0], N=4)
    assert FourierLoop.single_mode(4, [1.0], N=4).acos[3, 0] == 1.0


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
    p = example2().problem()
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
    p = example2().problem()
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
    p = example2().problem()
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
    assert phase_row(loop) @ loop.pack() == pytest.approx(0.0, abs=1e-12)
    other = random_loop(rng, 3, 4)
    # antisymmetry of the pairing
    assert phase_row(loop) @ other.pack() == pytest.approx(
        -(phase_row(other) @ loop.pack()))


# ------------------------------------------------------------------ jacobians

def test_analytic_jacobian_matches_finite_differences():
    p = example2().problem()
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
    """(rows, columns) of the cosine system in full_continuation_jacobian:
    the cos rows and the pin row dim + 1 against the cos columns and
    lambda at dim."""
    dim = n * (2 * N + 1)
    cos, _ = parity_indices(n, N)
    return np.r_[cos, dim + 1], np.r_[cos, dim]


def part_indices(n, N, part):
    """(rows, columns) of one part (positions, block) of the continuation
    Jacobian in the numbering of block_indices: the part's pin row shares
    the position dim with its lambda column."""
    pos, _ = part
    dim = n * (2 * N + 1)
    return np.where(pos == dim, dim + 1, pos), pos


def same_indices(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def even_loop(rng, n, N, scale=1.0):
    loop = random_loop(rng, n, N, scale)
    return FourierLoop(loop.a0, loop.acos, np.zeros_like(loop.asin))


@pytest.mark.parametrize("make", [example1, example2, example3])
def test_continuation_jacobian_matches_finite_differences(make):
    # the cosine system at even loops: the lambda column (example 1 has a
    # lambda^2 Kepler scale and a lambda-dependent family) and the pin row
    # border the cos/cos block and share the position dim
    p = make().problem()
    rng = np.random.default_rng(11)
    N, M, k0 = 3, 13, 2
    cos, _ = parity_indices(p.n, N)
    for _ in range(5):
        ref = even_loop(rng, p.n, N, scale=0.5)
        func, jac = _continuation_system(p, ref, 1.5, k0, M)
        z = np.concatenate([even_loop(rng, p.n, N, scale=0.5).pack(),
                            [rng.uniform(-0.9, 0.9)]])
        ((pos, block),) = jac(z)    # the random loop uses every coordinate
        assert np.array_equal(pos, np.r_[cos, p.n * (2 * N + 1)])
        assert block.shape == (p.n * (N + 1) + 1,) * 2
        J_fd = fd_jacobian(func, z, func(z))
        scale = max(1.0, float(np.abs(block).max()))
        assert np.abs(block - J_fd[np.ix_(pos, pos)]).max() / scale < 1e-5


@pytest.mark.parametrize("make", [example1, example2, example3])
def test_continuation_jacobian_is_block_diagonal_at_even_loops(make):
    # reversibility: at a loop even in t on symmetric nodes the cos rows
    # do not see the sin columns and vice versa; the phase row lives on the
    # sin columns, the pin row on the cos columns.  So the full system
    # needs no phase row there, and its cosine system is the solver's.  A
    # loop with sin content couples the two, so the first check can fail.
    # The block jac builds directly is the full matrix's diagonal block.
    p = make().problem()
    rng = np.random.default_rng(14)
    N, k0 = 5, 2
    M = 4 * N + 1
    dim = p.n * (2 * N + 1)
    cos, sin = parity_indices(p.n, N)
    rows, cols = block_indices(p.n, N)
    lam_col, phase, pin = dim, dim, dim + 1
    for _ in range(3):
        loop = random_loop(rng, p.n, N, scale=0.5)
        even = FourierLoop(loop.a0, loop.acos, np.zeros_like(loop.asin))
        lam = rng.uniform(-0.9, 0.9)
        J = full_continuation_jacobian(p, even, k0, M, even, lam)
        scale = float(np.abs(J).max())
        assert np.abs(J[np.ix_(cos, sin)]).max() <= 1e-13 * scale
        assert np.abs(J[np.ix_(sin, cols)]).max() <= 1e-13 * scale
        assert np.all(J[phase, cols] == 0.0)
        assert np.all(J[pin, sin] == 0.0)
        assert J[phase, lam_col] == 0.0

        _, jac = _continuation_system(p, even, 1.5, k0, M)
        (part,) = jac(np.concatenate([even.pack(), [lam]]))
        assert same_indices(part_indices(p.n, N, part), (rows, cols))
        assert np.abs(part[1] - J[np.ix_(rows, cols)]).max() <= 1e-14 * scale

        J = full_continuation_jacobian(p, loop, k0, M, loop, lam)
        scale = float(np.abs(J).max())
        assert np.abs(J[np.ix_(cos, sin)]).max() > 1e-6 * scale


def unperturbed_example2(lam_on_2=0.0):
    """Example 2 without its Kepler term, A(lambda) = diag(4 + lambda, 2, 2,
    2), or with 2 + lambda_on_2 lambda as its second entry."""
    return linear_problem({0: 4.0, 1: 1.0}, {0: 2.0, 1: lam_on_2}, {0: 2.0},
                          {0: 2.0})


@pytest.mark.parametrize("problem, axes, pinned", [
    (lambda: example1().problem(), [0], [0]),
    (lambda: example2().problem(), [0], [0]),
    (lambda: example3().problem(), [2], [2]),
    (lambda: example2().problem(), [0, 1], [0]),
    (unperturbed_example2, [0, 1], [0, 1]),
    (lambda: unperturbed_example2(1.0), [0, 1], [0])],
    ids=["example1", "example2", "example3", "hessian-joins", "pin-joins",
         "lambda-column-joins"])
def test_continuation_jacobian_splits_exactly_on_decoupled_loops(
        problem, axes, pinned):
    # A(lambda) is diagonal, so a loop on some axes links only those.  Its
    # mode k0 uses the pinned axes.  One part holds the axes linked to
    # lambda, every other axis is a part of its own.  On two axes, one link
    # joins the second axis to the part with lambda: example 2's Kepler
    # Hessian, with its u u^T term, or, without it, the pin row or the
    # lambda column alone.  Between parts the cosine system is exactly 0,
    # within one it is the part's block, and the parts' singular values
    # are the whole cosine system's.
    p = problem()
    rng = np.random.default_rng(17)
    N, k0 = 5, 2
    M = 4 * N + 1
    rows, cols = block_indices(p.n, N)
    on, pin = np.zeros((2, p.n))
    on[axes], pin[pinned] = 1.0, 1.0
    for _ in range(3):
        loop = even_loop(rng, p.n, N, scale=0.5)
        acos = on * loop.acos
        acos[k0 - 1] *= pin
        loop, lam = FourierLoop(on * loop.a0, acos, loop.asin), rng.uniform(-0.9, 0.9)
        J = full_continuation_jacobian(p, loop, k0, M, loop, lam)
        scale = float(np.abs(J).max())
        _, jac = _continuation_system(p, loop, 1.5, k0, M)
        parts = jac(np.concatenate([loop.pack(), [lam]]))
        assert sorted(len(pos) // (N + 1) for pos, _ in parts) \
            == [1] * (p.n - len(axes)) + [len(axes)]
        indices = [part_indices(p.n, N, part) for part in parts]
        assert np.array_equal(np.sort(np.concatenate([r for r, _ in indices])),
                              np.sort(rows))
        assert np.array_equal(np.sort(np.concatenate([c for _, c in indices])),
                              np.sort(cols))
        for a, (r, _) in enumerate(indices):
            for b, (_, c) in enumerate(indices):
                assert a == b or np.all(J[np.ix_(r, c)] == 0.0)
        for (r, c), (_, block) in zip(indices, parts):
            assert np.abs(block - J[np.ix_(r, c)]).max() <= 1e-14 * scale
        whole = np.sort(np.linalg.svd(J[np.ix_(rows, cols)], compute_uv=False))
        split = np.sort(np.concatenate([
            np.linalg.svd(block, compute_uv=False) for _, block in parts]))
        assert np.abs(split - whole).max() <= 1e-12 * whole[-1]


@pytest.mark.parametrize("pattern", ["diagonal", "chain", "dense"])
def test_parts_transform_only_the_linked_lanes_bit_for_bit(pattern):
    # parts() transforms only the Hessian lanes H[:, i, j] that are not all
    # exactly 0; FFT lanes are independent, so every part's block equals,
    # bit for bit, the one built from the whole stack's transform.  dense
    # is the rotated examples' pattern; in chain, coordinates 0 and 2 share
    # a part through 1 while their own lane is all 0.
    rng = np.random.default_rng(19)
    n = 4
    i, j = np.indices((n, n))
    mask = {"diagonal": i == j, "chain": abs(i - j) <= 1, "dense": i >= 0}[pattern]
    for N in (3, 16):
        M = 4 * N + 1
        parts = galerkin._part_builder(n, N, M)
        for _ in range(20):
            H = mask * rng.normal(size=(M, n, n)) \
                * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, n))
            hc = (np.fft.fft(H, axis=0) / M).real
            for pos, block in parts(H):
                S = pos[pos < n]
                assert np.array_equal(block, galerkin._cos_block(
                    hc[:, S][:, :, S], galerkin._layout(len(S), N, M)))


def test_singular_block_of_a_part_without_lambda_fails_the_point():
    # A(lambda) = diag(1 + lambda, 4): the second coordinate is a part of
    # its own and sits exactly at 2^2, so its cosine block is singular
    # whatever lambda does; its residual rows are exactly 0, so no LU
    # meets it; the iteration converges, and the rank check that
    # continuation runs on the returned singular values fails the point
    p = linear_problem({0: 1.0, 1: 1.0}, {0: 4.0})
    N, k0 = 4, 1
    seed = FourierLoop.single_mode(k0, [2.0, 0.0], N)
    func, jac = _continuation_system(p, seed, 2.0, k0, 4 * N + 1)
    z0 = np.concatenate([seed.pack(), [0.5]])
    assert [len(pos) for pos, _ in jac(z0)] == [N + 2, N + 1]
    *_, sv = _gauss_newton(func, z0, jac)
    with pytest.raises(SingularJacobianError) as err:
        _rank_checked(sv())
    assert err.value.cond > 1e14


def test_converged_point_with_rank_deficient_jacobian_fails(monkeypatch):
    # continuation takes each converged point's singular values for its
    # jacobian_cond; a zero among them turns the point into a failed marker
    ex = example2()
    solve = galerkin._solve_parts

    def deficient(parts, f):
        step, sv = solve(parts, f)
        return step, lambda: np.r_[sv(), 0.0]

    branch = continue_to_infinity(ex.problem(), _resonance(ex, 0.0), [4.0, 8.0])
    assert not any(bp.failed for bp in branch)
    monkeypatch.setattr(galerkin, "_solve_parts", deficient)
    branch = continue_to_infinity(ex.problem(), _resonance(ex, 0.0), [4.0, 8.0])
    assert len(branch) == 1 and branch[0].failed


def _resonance(ex, lam0):
    points = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)
    return min(points, key=lambda r: abs(r.lambda0 - lam0))


BRANCH_RESONANCES = [(example1, 1.0 - math.sqrt(2.0)),
                     (example2, 0.0),
                     (example3, (4.0 - math.sqrt(10.0)) ** (1.0 / 3.0))]


def as_user(make):
    """The example maker ``make`` with the example's perturbation handed
    over as a user gradient callable."""
    def make_user():
        ex = make()
        pert = ex.problem().perturbation
        user = Perturbation.user(lambda x, lam: pert.gradient_many(x, lam)[0])
        return dataclasses.replace(ex, _spec=dataclasses.replace(
            ex.problem(), perturbation=user))
    make_user.__name__ = f"{make.__name__}_user"
    return make_user


def rotated(make):
    """The example maker ``make`` with A(lambda) turned to Q A(lambda) Q^T
    for a fixed random rotation Q: the Kepler term is rotation invariant,
    so the branches turn with it, but they use every coordinate."""
    def make_rotated():
        ex = make()
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.normal(size=(ex.problem().n,) * 2))
        family = MatrixFamily(Q @ ex.problem().family.coeffs @ Q.T)
        return dataclasses.replace(ex, _spec=dataclasses.replace(
            ex.problem(), family=family))
    make_rotated.__name__ = f"{make.__name__}_rotated"
    return make_rotated


@pytest.mark.parametrize("make, lam0", BRANCH_RESONANCES)
@pytest.mark.parametrize("modes", [8, 16])
def test_reversible_step_agrees_with_the_full_solve(monkeypatch, make, lam0, modes):
    # the same branch through the cosine step and through one full
    # least-squares solve per step of the whole augmented system: sin rows,
    # sin columns and a phase row against the seed
    ex = make()
    r = _resonance(ex, lam0)
    last_z = {}
    system = galerkin._continuation_system

    def full_jacobian(p, ref, k0, M, z):
        loop = FourierLoop.unpack(z[:-1], ref.n, ref.N)
        return full_continuation_jacobian(p, ref, k0, M, loop, z[-1])

    def recording_system(p, ref, R, k0, M):
        func, jac = system(p, ref, R, k0, M)

        def rec(z):
            last_z[R] = (p, ref, k0, M, z.copy())
            return jac(z)
        return func, rec

    def full_system(p, ref, R, k0, M):
        func, _ = system(p, ref, R, k0, M)
        phase = phase_row(ref)
        return (lambda z: np.insert(func(z), -1, phase @ z[:-1]),
                lambda z: full_jacobian(p, ref, k0, M, z))

    monkeypatch.setattr(galerkin, "_continuation_system", recording_system)
    new = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    monkeypatch.setattr(galerkin, "_continuation_system", full_system)
    monkeypatch.setattr(galerkin, "_solve_parts", _lstsq_step)
    ref = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    assert len(new) == len(ref) == 3
    for a, b in zip(new, ref):
        assert not a.failed and not b.failed
        assert a.newton_steps == b.newton_steps
        assert a.active_modes == b.active_modes
        assert minimal_period_divisor(a.loop) == minimal_period_divisor(b.loop)
        assert abs(a.lam - b.lam) <= 1e-12
        assert np.abs(a.loop.pack() - b.loop.pack()).max() <= 1e-10
        assert np.all(a.loop.asin == 0.0)
        rows, cols = block_indices(a.loop.n, a.loop.N)
        J = full_jacobian(*last_z[a.amplitude])
        sv = np.linalg.svd(J[np.ix_(rows, cols)], compute_uv=False)
        assert a.jacobian_cond == pytest.approx(sv[0] / sv[-1], rel=1e-6)


def test_regular_cosine_block_converges_whatever_the_sin_block(monkeypatch):
    # A(lambda) = diag(1 + lambda, delta) with a Kepler term: a loop on the
    # first axis leaves the second a part of its own, whose sin/sin block
    # in the full Jacobian is delta I + S, S from the loop's Kepler Hessian.
    # delta = 2 - mu, mu the eigenvalue of that block at delta = 2 nearest
    # 0 at the point's last Jacobian, makes it singular there: an odd
    # direction that breaks the reversible symmetry.  The first axis does
    # not see delta, so the point is the same, bit for bit; its cosine
    # system stays regular, and the point converges with a finite
    # jacobian_cond.
    N, k0 = 8, 1
    M = 4 * N + 1
    sin_2 = 2 * np.arange(1, N + 1) * 2 + 1
    last_z = {}
    system = galerkin._continuation_system

    def recording_system(p, ref, R, k0, M):
        func, jac = system(p, ref, R, k0, M)
        return func, lambda z: last_z.update(z=z.copy()) or jac(z)

    def point(delta):
        p = linear_problem({0: 1.0, 1: 1.0}, {0: delta},
                           pert=Perturbation.kepler(1.0, "constant"))
        (r,) = scan_resonances(p.family, -0.5, 0.5)
        (bp,) = continue_to_infinity(p, r, [2.0], N)
        z = last_z["z"]
        J = full_continuation_jacobian(p, bp.loop, k0, M,
                                       FourierLoop.unpack(z[:-1], 2, N), z[-1])
        return bp, J[np.ix_(sin_2, sin_2)]

    monkeypatch.setattr(galerkin, "_continuation_system", recording_system)
    regular, odd = point(2.0)
    mu = np.linalg.eigvalsh(odd)
    singular, odd = point(2.0 - mu[np.argmin(np.abs(mu))])
    sv = np.linalg.svd(odd, compute_uv=False)
    assert sv[-1] <= 1e-14 * sv[0]
    assert not regular.failed and not singular.failed
    assert singular.loop.pack().tobytes() == regular.loop.pack().tobytes()
    assert singular.newton_steps == regular.newton_steps
    assert 1.0 <= singular.jacobian_cond < 1e14


def count_linalg(monkeypatch, names):
    """Count the calls of the np.linalg functions ``names``: (calls, sides),
    the number of calls and the set of largest matrix sides, by name."""
    calls = dict.fromkeys(names, 0)
    sides = {name: set() for name in names}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name] += 1
            sides[name].add(max(np.shape(a)))
            return real(a, *args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls, sides


def record_parts(monkeypatch):
    """The number of parts of each Gauss-Newton step newton_solve takes."""
    parts = []
    solve_parts = galerkin._solve_parts

    def recorded(blocks, f):
        parts.append(len(blocks))
        return solve_parts(blocks, f)

    monkeypatch.setattr(galerkin, "_solve_parts", recorded)
    return parts


@pytest.mark.parametrize("make, lam0", BRANCH_RESONANCES + [
    (as_user(make), lam0) for make, lam0 in BRANCH_RESONANCES] + [
    (rotated(example2), 0.0)])
@pytest.mark.parametrize("modes", [8, 32])
def test_continuation_step_costs_one_lstsq_and_one_svd(
        monkeypatch, make, lam0, modes):
    # the name is the cost this test first pinned down; the cost it now
    # asserts is lower: each Newton step solves by LU the square cosine
    # block of every uncoupled part of the Jacobian whose residual rows are
    # not all 0; only the converged point's last Jacobian has its singular
    # values taken, one svd per distinct block; no
    # least-squares solve and no full harmonic-balance matrix, also for a
    # user perturbation, whose Hessian is a central difference.  The
    # examples' A(lambda) is diagonal and their branches stay on one axis,
    # so every coordinate is a part of its own, no matrix has a side above
    # N + 2, and only the loop's axis, bordered by the pin row and lambda
    # column, moves; idle coordinates with the same diagonal entry of
    # A(lambda) have bit-identical blocks, and their repeats take no svd
    # (example 2's three idle entries 2 share one block: 6 svd calls).  The
    # rotated example couples them all into one part, the cosine block of
    # side n(N+1)+1.
    ex = make()
    r = _resonance(ex, lam0)
    n, C = ex.problem().n, ex.problem().family.coeffs
    parts = n if np.all(C == C * np.eye(n)) else 1
    distinct = len({C[:, i, i].tobytes() for i in range(n)}) if parts == n else 1
    calls, sides = count_linalg(monkeypatch, ["solve", "svd", "lstsq"])
    branch = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    assert not any(bp.failed for bp in branch)
    steps = sum(bp.newton_steps for bp in branch)
    assert steps > 0
    assert calls == {"solve": steps, "svd": distinct * len(branch),
                     "lstsq": 0}
    if make is example2 and modes == 32:
        assert calls["svd"] == 6
    if parts == 1:
        assert sides["solve"] == {n * (modes + 1) + 1}
    else:
        assert sides["solve"] == {modes + 2}
        assert max(sides["svd"]) <= modes + 2


@pytest.mark.parametrize("make, lam0", BRANCH_RESONANCES)
@pytest.mark.parametrize("modes", [8, 32])
def test_skipped_idle_parts_leave_every_branch_bit_for_bit(
        monkeypatch, make, lam0, modes):
    # a part whose residual rows are all exactly 0 takes step 0 without an
    # LU; an LU solve of every part gives the same branch, bit for bit, and
    # each LU the solver does run has a right-hand side that is not all 0
    ex = make()
    r = _resonance(ex, lam0)
    rhs = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: rhs.append(b.any()) or solve(a, b))
    skipped = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    assert rhs and all(rhs)
    solve_parts = galerkin._solve_parts

    def solve_every_part(parts, f):
        _, sv = solve_parts(parts, f)
        step = np.zeros(len(f))
        for pos, block in parts:
            step[pos] = solve(block, -f[pos])
        return step, sv

    monkeypatch.setattr(galerkin, "_solve_parts", solve_every_part)
    solved = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    assert len(skipped) == len(solved) == 3
    for a, b in zip(skipped, solved):
        assert a.loop.pack().tobytes() == b.loop.pack().tobytes()
        assert dataclasses.replace(a, loop=None) == dataclasses.replace(b, loop=None)


def test_exactly_singular_idle_part_is_left_to_the_rank_check():
    # A(lambda) = diag(9.5, 0) or diag(1 + lambda, 0), the latter with a
    # cubic force on the first axis, so its branch needs Newton steps: the
    # second coordinate's Hessian lane is exactly 0, so its cosine block, a
    # part of its own, has a zero a0 row, and a loop on the first axis
    # leaves its residual rows exactly 0.  No LU meets that block:
    # newton_solve converges, and continuation's rank check at the
    # converged point fails it.  The resonance lambda0 = 0, k0 = 1 of the
    # first coordinate is scanned with a second entry 2, off every k^2.
    guess = FourierLoop.single_mode(1, [1e-3, 0.0], N=6)
    out = newton_solve(guess, 0.0, linear_problem({0: 9.5}, {0: 0.0}))
    assert np.abs(out.pack()).max() < 1e-12

    cubic = Perturbation.user(lambda x, lam: np.array([0.01 * x[0] ** 3, 0.0]))
    p = linear_problem({0: 1.0, 1: 1.0}, {0: 0.0}, pert=cubic)
    scanned = linear_problem({0: 1.0, 1: 1.0}, {0: 2.0}).family
    (r,) = scan_resonances(scanned, -0.5, 0.5)
    N, k0 = 4, 1
    seed = FourierLoop.single_mode(k0, [2.0, 0.0], N)
    func, jac = _continuation_system(p, seed, 2.0, k0, 4 * N + 1)
    z0 = np.concatenate([seed.pack(), [r.lambda0]])
    z, norm, _, sv = _gauss_newton(func, z0, jac)
    assert norm <= galerkin.NEWTON_TOL
    with pytest.raises(SingularJacobianError) as err:
        _rank_checked(sv())
    assert err.value.cond == math.inf
    branch = continue_to_infinity(p, r, [2.0, 4.0], N)
    assert len(branch) == 1 and branch[0].failed


def test_exactly_singular_even_block_raises_singular_jacobian():
    # LU meets a zero pivot and numpy raises LinAlgError, a ValueError the
    # command line would print as "error: Singular matrix"; the iteration
    # turns it into SingularJacobianError with the singular values' verdict
    n, N = 1, 2
    dim = n * (2 * N + 1)
    pos = np.r_[parity_indices(n, N)[0], dim]
    with pytest.raises(SingularJacobianError) as err:
        _gauss_newton(lambda z: np.ones(dim + 1), np.zeros(dim + 1),
                      lambda z: [(pos, np.zeros((len(pos),) * 2))])
    assert err.value.cond == math.inf


def test_rank_check_runs_where_a_step_does_not_lower_the_residual(monkeypatch):
    # at 1e20 the seed's lambda column is of order 1e20: the LU step exists
    # but does not help, and the rank check on that Jacobian stops the
    # point after a few Jacobians instead of NEWTON_MAX_ITER of them (from
    # about 1e61 the point fails on overflow at its first Jacobian)
    ex = example2()
    r = _resonance(ex, 0.0)
    system = galerkin._continuation_system
    jacobians = {}
    rank_failures = []

    def counting_system(p, ref, R, k0, M):
        func, jac = system(p, ref, R, k0, M)

        def counted(z):
            jacobians[R] = jacobians.get(R, 0) + 1
            return jac(z)
        return func, counted

    def recording_rank_check(sv):
        try:
            return _rank_checked(sv)
        except SingularJacobianError:
            rank_failures.append(jacobians.get(1e20))
            raise

    monkeypatch.setattr(galerkin, "_continuation_system", counting_system)
    monkeypatch.setattr(galerkin, "_rank_checked", recording_rank_check)
    branch = continue_to_infinity(ex.problem(), r, [4.0, 1e20])
    assert [bp.failed for bp in branch] == [False, True]
    assert jacobians[4.0] == branch[0].newton_steps
    assert jacobians[1e20] == 3
    assert rank_failures == [3]  # raised once, at that point's last Jacobian


@pytest.mark.parametrize("modes", [16, 32])
def test_example3_probe_fails_at_its_first_amplitude(modes):
    # example 3 at lambda0 = 0 (frequencies 2, 3, 5) has no branch the
    # solver can follow from its k0 = 2 seed
    ex = example3()
    r = _resonance(ex, 0.0)
    assert r.lambda0 == pytest.approx(0.0, abs=1e-9)
    branch = continue_to_infinity(ex.problem(), r, [4.0, 16.0, 64.0], modes)
    assert len(branch) == 1 and branch[0].failed


@pytest.mark.parametrize("big", [1e308, 1.7e308])
def test_overflowing_lambda_column_fails_the_point_quietly(big):
    # at example 3's second resonance A'(lambda) has entries 3 lambda^2 of
    # about 2.7, so the lambda column u A'(lambda) of a loop of amplitude
    # 1e308 overflows: the overflow fails the point instead of warning
    # (RuntimeWarnings are errors here) and the converged point is kept
    ex = example3()
    r = _resonance(ex, (4.0 - math.sqrt(10.0)) ** (1.0 / 3.0))
    branch = continue_to_infinity(ex.problem(), r, [4.0, big], 16)
    assert [bp.failed for bp in branch] == [False, True]
    assert minimal_period_divisor(branch[1].loop) == 2


def test_overflowing_point_leaves_numpy_error_settings_as_they_were():
    # the overflow that fails the second point is raised inside the
    # continuation alone; the caller's numpy error settings are unchanged
    ex = example2()
    r = _resonance(ex, 0.0)
    before = np.geterr()
    branch = continue_to_infinity(ex.problem(), r, [4.0, 1.7e308])
    assert [bp.failed for bp in branch] == [False, True]
    assert np.geterr() == before


# --------------------------------------------------------------- newton solve

def test_newton_exact_guess_converges_without_iterating(monkeypatch):
    # convergence is checked before the first step: with no step budget at
    # all an exact guess still comes back, bit for bit
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(2, [3.0], N=4)
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 0)
    out = newton_solve(guess, 0.0, p)
    assert np.array_equal(out.pack(), guess.pack())


def test_newton_inexact_guess_with_no_budget_raises(monkeypatch):
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(1, [1.0], N=4)  # not a solution
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NewtonConvergenceError):
        newton_solve(guess, 0.0, p)
    # a residual that is not finite stops the solve before any step
    nan = linear_problem({0: 4.0}, pert=Perturbation.user(lambda x, lam: x * np.nan))
    with pytest.raises(NewtonConvergenceError,
                       match=r"^residual is not finite \(nan\) after 0 iterations$"):
        newton_solve(guess, 0.0, nan)


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


@pytest.mark.parametrize("big", [1e70, 1e200])
def test_newton_overflowing_guess_raises_floating_point_error(big):
    # the Kepler Hessian's r2^(5/2) overflows past about 1e61: the solve
    # raises the overflow by name at its first Jacobian, as continuation
    # does, and leaves the caller's numpy error settings as they were
    ex = example2()
    acos = np.zeros((8, ex.problem().n))
    acos[1, 0] = big
    guess = FourierLoop(np.zeros(ex.problem().n), acos, np.zeros_like(acos))
    before = np.geterr()
    with pytest.raises(FloatingPointError):
        newton_solve(guess, 0.0, ex.problem())
    assert np.geterr() == before


def test_newton_rejects_a_guess_with_sin_content():
    # the solve keeps asin exactly 0, so a guess that is not even in t is
    # refused rather than silently projected onto the even loops
    p = linear_problem({0: 4.0})
    guess = FourierLoop.single_mode(2, [1.0], N=4)
    for bad in (guess.shifted(0.3), FourierLoop(guess.a0, guess.acos,
                                                 guess.asin + 1e-300)):
        with pytest.raises(ValueError, match="even in t"):
            newton_solve(bad, 0.0, p)


def test_newton_converges_from_a_constant_guess(monkeypatch):
    # the Kepler Hessian at the constant guess (0.3, -0.2) couples the two
    # coordinates into one part, and the solve reaches the equilibrium at
    # the origin
    p = linear_problem({0: 2.0}, {0: 3.0},
                       pert=Perturbation.kepler(1.0, "constant"))
    guess = FourierLoop([0.3, -0.2], np.zeros((4, 2)), np.zeros((4, 2)))
    parts = record_parts(monkeypatch)
    out = newton_solve(guess, 0.0, p)
    assert len(parts) > 0 and set(parts) == {1}
    assert np.abs(residual(out, 0.0, p)).max() <= galerkin.NEWTON_TOL
    assert np.abs(out.pack()).max() < 1e-10
    assert np.all(out.asin == 0.0)


def test_newton_refinement_costs_one_solve_per_part(monkeypatch):
    # refining an example-2 branch point padded to 2N modes steps through
    # the continuation's parts: A(lambda) is diagonal and the loop stays
    # on one axis, so each of the n coordinates is a part of its own and no
    # matrix has a side above N + 1.  Only the loop's axis has residual
    # rows that are not all 0, so one LU solve per step; a converged
    # refinement takes no singular values and no least-squares solve.
    ex = example2()
    p, n = ex.problem(), ex.problem().n
    bp = continue_to_infinity(p, _resonance(ex, 0.0), [4.0], modes=8)[0]
    N = 16
    calls, sides = count_linalg(monkeypatch, ["solve", "svd", "lstsq"])
    steps = record_parts(monkeypatch)
    out = newton_solve(bp.loop.truncated(N), bp.lam, p)
    assert len(steps) > 0 and set(steps) == {n}
    assert calls == {"solve": len(steps), "svd": 0, "lstsq": 0}
    assert sides["solve"] == {N + 1}
    assert np.abs(residual(out, bp.lam, p)).max() <= galerkin.NEWTON_TOL
    assert np.all(out.asin == 0.0)


def test_continuation_user_perturbation_agrees_with_builtin():
    # a user perturbation has no Hessian, so its Newton steps use finite
    # differences; handed the Kepler gradient it must find the same branch
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    user = ProblemSpec(4, ex.problem().family, Perturbation.user(
        lambda x, lam: x / (x @ x + 1.0) ** 1.5), IndexRule.builtin())
    an = continue_to_infinity(ex.problem(), r, [3.0, 6.0], modes=10)
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
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    bp = continue_to_infinity(ex.problem(), r, [4.0], modes=6)[0]
    assert np.abs(residual(bp.loop, bp.lam, ex.problem(), 15)).max() > 1e-6
    out = newton_solve(bp.loop, bp.lam, ex.problem())
    assert out.N == 6
    assert np.array_equal(out.pack(), bp.loop.pack())


def test_newton_solution_shift_family():
    # any time shift of a solution is again a solution; per-mode residual
    # energies are shift-invariant (the packed components themselves rotate)
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    branch = continue_to_infinity(ex.problem(), r, [2.0], modes=10)
    loop = branch[0].loop
    M = 1024

    def mode_energies(lp):
        r_loop = FourierLoop.unpack(residual(lp, branch[0].lam, ex.problem(), M),
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
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    branch = continue_to_infinity(ex.problem(), r, [2.0, 4.0, 8.0], modes=12)
    assert all(not bp.failed for bp in branch)
    drift = [abs(bp.lam - r.lambda0) for bp in branch]
    assert drift[0] > drift[1] > drift[2]
    for bp in branch:
        # the mode-2 pair carries essentially all of the loop
        frac = bp.loop.mode_energy()[1] / bp.loop.mode_energy().sum()
        assert frac > 0.99
        assert minimal_period_divisor(bp.loop) == 2
        assert bp.residual_norm < 1e-9


def test_continuation_warns_when_the_drift_keeps_growing():
    # shrinking amplitudes walk example 3's branch away from its resonance
    # near 0.9427: the drift passes DRIFT_WINDOW and grows at 0.5 and 0.25
    ex = example3()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[1]
    with pytest.warns(galerkin.DivergenceWarning) as record:
        branch = continue_to_infinity(ex.problem(), r, [4.0, 1.0, 0.5, 0.25], modes=32)
    assert not any(bp.failed for bp in branch)
    assert [round(bp.lam, 3) for bp in branch] == [0.93, 0.727, 0.392, -0.458]
    assert [str(w.message).split(";")[0] for w in record] == [
        "lambda drift grew to 0.55 at amplitude 0.5",
        "lambda drift grew to 1.4 at amplitude 0.25"]


def test_continuation_failure_appends_marker_and_truncates(monkeypatch):
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    monkeypatch.setattr(galerkin, "NEWTON_MAX_ITER", 0)
    branch = continue_to_infinity(ex.problem(), r, [2.0, 4.0], modes=10)
    assert len(branch) == 1
    assert branch[0].failed
    assert branch[0].residual_norm == math.inf


def test_continuation_direction_validation():
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    with pytest.raises(ValueError, match="direction"):
        continue_to_infinity(ex.problem(), r, [1.0], direction=5)


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
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    for amplitudes in ([0.0, 1.0], [-1.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            continue_to_infinity(ex.problem(), r, amplitudes)


def test_continuation_needs_modes_up_to_k0():
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    with pytest.raises(ValueError, match="k0 = 2"):
        continue_to_infinity(ex.problem(), r, [1.0], modes=1)
    for modes in (0, -3):
        with pytest.raises(ValueError, match=f"modes = {modes}"):
            continue_to_infinity(ex.problem(), r, [1.0], modes=modes)


def test_continuation_imports_no_masked_arrays():
    # numpy.ma (imported by np.unique, np.setdiff1d, ...) would cost every
    # continuation run a module import and its memory
    code = ("import sys\n"
            "from equideg import continue_to_infinity, scan_resonances\n"
            "from equideg.problems import example2\n"
            "ex = example2()\n"
            "pt = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]\n"
            "branch = continue_to_infinity(ex.problem(), pt, [4.0, 16.0], 32)\n"
            "assert not any(bp.failed for bp in branch)\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"


def test_continuation_needs_positive_frequency():
    from equideg.reps import RepDecomposition
    from equideg.spectral import ResonancePoint
    ex = example2()
    r = ResonancePoint(0.0, RepDecomposition(((1, 0),)))
    assert not r.det_nonzero
    with pytest.raises(ValueError, match="positive frequency"):
        continue_to_infinity(ex.problem(), r, [1.0])


def test_continuation_truncation_refinement_is_small():
    # doubling the truncation order barely moves the retained coefficients
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    coarse = continue_to_infinity(ex.problem(), r, [2.0], modes=16)[0]
    fine = newton_solve(coarse.loop.truncated(32), coarse.lam, ex.problem())
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
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    branch = continue_to_infinity(ex.problem(), r, [0.4], modes=32)
    bp = branch[0]
    assert not bp.failed
    assert energy_drift(bp.loop, bp.lam, ex.problem()) < 1e-9


def test_energy_drift_detects_bad_loop():
    # a random non-solution has wildly varying energy
    p = example2().problem()
    rng = np.random.default_rng(12)
    loop = random_loop(rng, 4, 4)
    assert energy_drift(loop, 0.0, p) > 1e-2


# ------------------------------------------------------------------------ csv

def test_write_branch_csv_roundtrip(tmp_path):
    ex = example2()
    r = scan_resonances(ex.problem().family, ex.lambda_minus, ex.lambda_plus)[0]
    branch = continue_to_infinity(ex.problem(), r, [2.0, 4.0], modes=6)
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


def test_write_branch_csv_rows_match_the_per_value_format(tmp_path):
    # one format operation per row writes the bytes of a per-value
    # f"{v:.17g}" join, the failed marker's inf and the integer divisors too
    ex = example2()
    branch = continue_to_infinity(ex.problem(), _resonance(ex, 0.0), [4.0, 16.0, 1.7e308],
                                  modes=8)
    assert [bp.failed for bp in branch] == [False, False, True]
    assert branch[-1].residual_norm == math.inf
    assert all(isinstance(bp.minimal_period_divisor, int) for bp in branch)
    path = tmp_path / "branch.csv"
    write_branch_csv(path, branch)
    rows = [[bp.lam, bp.amplitude, bp.residual_norm, bp.minimal_period_divisor]
            + bp.loop.pack().tolist() for bp in branch]
    lines = path.read_bytes().split(b"\n", 2)
    assert lines[2] == "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                               for row in rows).encode()


def test_write_branch_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_branch_csv(tmp_path / "x.csv", [])
