"""Truncated-Fourier verification harness for u'' = -grad V(u, lambda).

A 2pi-periodic candidate is stored by its Fourier coefficients up to order
N.  Plugging the ansatz into the equation and projecting back onto the
retained modes gives the residual

    R_0      = c_0
    R_k^cos  = -k^2 a_k + c_k
    R_k^sin  = -k^2 b_k + s_k

with (c, s) the transform of t -> grad V(u(t), lambda) on M equispaced
nodes (the solvers use 4N+1; the residual needs at least 2N+2).  A
Gauss-Newton iteration on the residual augmented with a phase condition
(and, for continuation, an amplitude pin with lambda freed) runs to
NEWTON_TOL in at most NEWTON_MAX_ITER steps.  The truncation order N is
the solvers' only setting: newton_solve keeps its guess's and
continue_to_infinity takes ``modes``.  The branch points' measured minimal
periods, lambda drift and energy drift are the numerical evidence the
analysis module's predictions are checked against.  Each step assembles
the Jacobian in closed form from the potential's Hessian at the nodes
(for a user perturbation, a central difference of its gradient).

Continuation works in the time-reversible subspace.  Three facts make a
loop even in t (asin = 0) stay even:
  - the seed R v cos(k0 t), and each rescaled previous point, is even;
  - the system is reversible: u'' = -grad V(u) is autonomous and second
    order, so t -> u(-t) maps solutions to solutions;
  - the nodes t_m = 2 pi m / M are symmetric, t_m -> -t_m is m -> M - m.
At an even iterate the Hessian samples are even in m, their transform has
hs = 0 to roundoff, and the augmented Jacobian is block diagonal up to a
permutation.  The even block (cos rows and the pin row against a0, acos
and lambda) is square with side n(N+1)+1; the odd block (sin rows and the
phase row against asin) is (nN+1) x nN.  The residual's sin part is
roundoff, so the Gauss-Newton step solves the even block alone and keeps
asin exactly 0.  The odd block still enters the rank check and the
reported condition number through its singular values.  Both blocks are
assembled directly from the cosine coefficients hc of the Hessian samples
by the formula of newton_solve's Jacobian; the full augmented Jacobian,
whose hs entries vanish here, is never formed.  newton_solve takes general
guesses, adds the hs blocks and solves the full system.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bifurcation import FORMAT_VERSION

#: A mode is active in a branch point above this share of the loop's energy.
ACTIVE_MODE_FRACTION = 1e-8
#: A mode enters the minimal-period gcd above this share of the energy.
PERIOD_MODE_FRACTION = 1e-6
#: A lambda drift that grows past this distance from the resonance warns.
DRIFT_WINDOW = 0.5
#: Truncation order of continue_to_infinity and of problem files.
DEFAULT_MODES = 16
#: Gauss-Newton stops once the residual max-norm is at most this.
NEWTON_TOL = 1e-10
#: Gauss-Newton gives up after this many steps.
NEWTON_MAX_ITER = 50


class NewtonConvergenceError(RuntimeError):
    """Gauss-Newton failed to reach the tolerance in the iteration budget."""


class SingularJacobianError(RuntimeError):
    """Augmented Jacobian is rank deficient."""

    def __init__(self, message, cond):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class DivergenceWarning(UserWarning):
    """Branch drifts away from the expected resonance value."""


@dataclass(frozen=True, eq=False)
class FourierLoop:
    """Real trigonometric polynomial loop u(t) = a0 + sum_k (acos_k cos kt
    + asin_k sin kt), t in [0, 2pi), with vector coefficients in R^n."""

    a0: np.ndarray
    acos: np.ndarray
    asin: np.ndarray

    def __post_init__(self):
        a0 = np.array(self.a0, dtype=float)
        acos = np.array(self.acos, dtype=float)
        asin = np.array(self.asin, dtype=float)
        if a0.ndim != 1 or acos.ndim != 2 or acos.shape != asin.shape \
                or acos.shape[1] != a0.shape[0]:
            raise ValueError("coefficient shapes disagree")
        for name, arr in (("a0", a0), ("acos", acos), ("asin", asin)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.a0.shape[0]

    @property
    def N(self):
        return self.acos.shape[0]

    @classmethod
    def zero(cls, n, N):
        return cls(np.zeros(n), np.zeros((N, n)), np.zeros((N, n)))

    @classmethod
    def single_mode(cls, k, vec, N):
        """R^n-valued loop vec*cos(kt)."""
        vec = np.asarray(vec, dtype=float)
        acos = np.zeros((N, vec.shape[0]))
        acos[k - 1] = vec
        return cls(np.zeros(vec.shape[0]), acos, np.zeros_like(acos))

    def pack(self):
        return np.concatenate([self.a0,
                               np.stack([self.acos, self.asin], axis=1).ravel()])

    @classmethod
    def unpack(cls, x, n, N):
        a0 = x[:n]
        rest = x[n:].reshape(N, 2, n)
        return cls(a0, rest[:, 0, :], rest[:, 1, :])

    def values(self, M):
        """Sample u on M >= 2N+1 equispaced nodes, shape (M, n)."""
        return _synthesize(self.a0, self.acos, self.asin, M)

    def velocity(self, M):
        """Sample u' on M >= 2N+1 equispaced nodes, shape (M, n)."""
        k = np.arange(1, self.N + 1)[:, None]
        return _synthesize(np.zeros(self.n), k * self.asin, -k * self.acos, M)

    def amplitude(self, M=None):
        """sup_t |u(t)| approximated on the collocation grid."""
        M = _nodes(M, self.N)
        return float(np.linalg.norm(self.values(M), axis=1).max())

    def mode_energy(self):
        """Per-mode coefficient energy |acos_k|^2 + |asin_k|^2, k = 1..N."""
        return (self.acos ** 2).sum(axis=1) + (self.asin ** 2).sum(axis=1)

    def shifted(self, s):
        """The loop t -> u(t + s): a rigid rotation of coefficient pairs."""
        k = np.arange(1, self.N + 1)
        c, sn = np.cos(k * s)[:, None], np.sin(k * s)[:, None]
        return FourierLoop(self.a0,
                           c * self.acos + sn * self.asin,
                           -sn * self.acos + c * self.asin)

    def truncated(self, N):
        """Copy with the truncation order changed (pad or drop modes)."""
        acos = np.zeros((N, self.n))
        asin = np.zeros((N, self.n))
        m = min(N, self.N)
        acos[:m] = self.acos[:m]
        asin[:m] = self.asin[:m]
        return FourierLoop(self.a0, acos, asin)


def _nodes(M, N):
    """M, or the default of 4N+1 collocation nodes when M is 0 or None."""
    return M or 4 * N + 1


def _synthesize(c0, ccos, csin, M):
    """c0 + sum_k (ccos_k cos kt + csin_k sin kt) on M equispaced nodes.

    One inverse real FFT of X_0 = M c0, X_k = (M/2)(ccos_k - i csin_k).
    Every mode must lie below the Nyquist bin, k < M/2, or it would alias.
    """
    N, n = ccos.shape
    if M < 2 * N + 1:
        raise ValueError(f"need at least 2N+1 = {2 * N + 1} nodes, got {M}")
    X = np.zeros((M // 2 + 1, n), dtype=complex)
    X[0] = M * c0
    X[1:N + 1] = 0.5 * M * (ccos - 1j * csin)
    return np.fft.irfft(X, n=M, axis=0)


@dataclass(frozen=True)
class BranchPoint:
    loop: FourierLoop
    lam: float
    amplitude: float
    residual_norm: float
    active_modes: frozenset
    failed: bool = False
    newton_steps: int | None = None      # Gauss-Newton steps taken
    jacobian_cond: float | None = None   # sigma_max / sigma_min, last step
    energy_drift: float | None = None    # see energy_drift()


def _coeffs(samples, N):
    """Packed Fourier coefficients, modes 0..N, of samples on M nodes."""
    M = samples.shape[0]
    G = np.fft.rfft(samples, axis=0)
    return FourierLoop(G[0].real / M, 2.0 * G[1:N + 1].real / M,
                       -2.0 * G[1:N + 1].imag / M).pack()


def residual(loop, lam, p, M=None):
    """Coefficient-space residual of u'' + grad V(u, lambda) = 0."""
    M = _nodes(M, loop.N)
    if M < 2 * loop.N + 2:
        raise ValueError("need at least 2N+2 collocation nodes")
    c = _coeffs(p.gradient_many(loop.values(M), lam), loop.N)
    k2 = np.repeat(np.arange(1, loop.N + 1) ** 2, 2 * loop.n)  # cos and sin of mode k
    return c - np.concatenate([np.zeros(loop.n), k2]) * loop.pack()


def _phase_row(ref):
    """Gradient of the phase condition, a linear form in the packed loop."""
    k = np.arange(1, ref.N + 1)[:, None]
    return math.pi * np.concatenate([
        np.zeros(ref.n), np.stack([k * ref.asin, -k * ref.acos], axis=1).ravel()])


def _phase_row_value(ref, loop):
    """Integral of <d/dt u_ref, u> over a period, from coefficients.

    Zero at loop = ref, so a solver seeded at ref satisfies the phase
    condition from the start.
    """
    return float(_phase_row(ref) @ loop.pack())


def _norm(v):
    """np.linalg.norm(v) without overflow: v is scaled by 2^-e and back, exactly."""
    e = max(math.frexp(float(np.abs(v).max()))[1] - 500, 0)
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


def _layout(n, N, M):
    """Index layout of both solvers' Jacobians: packed positions of the cos
    coefficients (k, i) (a0, then acos_k) and of the sin ones, each cos k,
    and the flat indices of h[(k -/+ l) % M, i, j] in an (M, n, n) array."""
    k, i = np.repeat(np.arange(N + 1), n), np.tile(np.arange(n), N + 1)
    ij = i[:, None] * n + i[None, :]
    dif = (k[:, None] - k[None, :]) % M * n * n + ij
    tot = (k[:, None] + k[None, :]) % M * n * n + ij
    return np.maximum(2 * k - 1, 0) * n + i, (2 * k * n + i)[n:], k, dif, tot


def _cos_blocks(hc, layout):
    """The cos/cos and sin/sin blocks of the residual Jacobian, the whole
    of it at a loop even in t: hc[k-l] + hc[k+l] and hc[k-l] - hc[k+l], the
    mean row halved, k^2 subtracted on the diagonal (see _analytic_jacobian)."""
    _, _, k, dif, tot = layout
    n, hc, d = hc.shape[1], hc.ravel(), np.diag_indices(len(k))
    toe, han = hc[dif], hc[tot]
    cc, ss = toe + han, toe - han
    cc[:n] *= 0.5
    cc[d], ss[d] = cc[d] - k * k, ss[d] - k * k
    return cc, ss[n:, n:]


def _analytic_jacobian(loop, lam, p, M):
    """Exact residual Jacobian P diag(H(u(t_m))) T - diag(k^2).

    This is the alternating frequency/time form of harmonic balance.  With
    hc[j] - i hs[j] = (1/M) sum_m H(u(t_m)) exp(-i j t_m), the block of
    mode-k residual rows against mode-l coefficients is, by the product
    formulas for cos/sin, a Toeplitz part in k - l plus a Hankel part in
    k + l (indices mod M, exact for the discrete sums):

        cos/cos: hc[k-l] + hc[k+l]    cos/sin: hs[k+l] - hs[k-l]
        sin/cos: hs[k+l] + hs[k-l]    sin/sin: hc[k-l] - hc[k+l]

    The mean row k = 0 is halved; the sin columns and rows of k = 0 do
    not exist.  The hc blocks are _cos_blocks.
    """
    n, N = loop.n, loop.N
    layout = cos, sin, _, dif, tot = _layout(n, N, M)
    F = np.fft.fft(p.hessian_many(loop.values(M), lam), axis=0) / M
    hs = -F.imag.ravel()
    cs = hs[tot] - hs[dif]
    cs[:n] *= 0.5
    J = np.empty((n * (2 * N + 1),) * 2)
    J[np.ix_(cos, cos)], J[np.ix_(sin, sin)] = _cos_blocks(F.real, layout)
    J[np.ix_(cos, sin)] = cs[:, n:]
    J[np.ix_(sin, cos)] = (hs[tot] + hs[dif])[n:]
    return J


def _lstsq_step(J, f):
    """Least-squares step -J^+ f and the singular values of J."""
    step, _, _, sv = np.linalg.lstsq(J, -f, rcond=None)
    return step, sv


def _gauss_newton(func, x0, tol, max_iter, jac, solve=_lstsq_step):
    """Least-squares Newton on an overdetermined system.

    Convergence is checked before the first step, so an exact initial
    guess returns without assembling a Jacobian, and a residual that is
    not finite raises NewtonConvergenceError before any is assembled.
    ``solve(jac(x), f)`` takes whatever ``jac`` returns and gives back the
    step and the singular values of the Jacobian; the default is one full
    least-squares solve of a matrix.  Returns the solution, its residual
    max-norm, the number of steps taken and the condition number of the
    last Jacobian (None when no step was taken).
    """
    x = x0.copy()
    cond = None
    for it in range(max_iter + 1):
        f = func(x)
        norm = float(np.abs(f).max())
        if norm <= tol:
            return x, norm, it, cond
        if not math.isfinite(norm):
            raise NewtonConvergenceError(
                f"residual is not finite ({norm}) after {it} iterations")
        if it == max_iter:
            raise NewtonConvergenceError(
                f"no convergence after {max_iter} iterations "
                f"(residual {norm:.3e}, tolerance {tol:.3e})")
        step, sv = solve(jac(x), f)
        smax, smin = sv.max(), sv.min()
        cond = float(smax / max(smin, 1e-300))
        if smin <= 1e-14 * smax:
            raise SingularJacobianError("augmented Jacobian is rank deficient",
                                        cond=cond)
        x = x + step
    raise AssertionError("unreachable")


def newton_solve(guess, lam, p):
    """Solve the projected system at fixed lambda from a caller's guess.

    The solve keeps the guess's truncation order; pad the guess first
    (FourierLoop.truncated) to solve with more modes.  The time-shift
    degeneracy is removed by a phase condition against the guess
    derivative; the system is solved in least-squares sense.
    """
    n, N = guess.n, guess.N
    M = _nodes(None, N)

    def func(x):
        lp = FourierLoop.unpack(x, n, N)
        return np.concatenate([residual(lp, lam, p, M),
                               [_phase_row_value(guess, lp)]])

    def jac(x):
        lp = FourierLoop.unpack(x, n, N)
        return np.vstack([_analytic_jacobian(lp, lam, p, M), _phase_row(guess)])

    x, *_ = _gauss_newton(func, guess.pack(), NEWTON_TOL, NEWTON_MAX_ITER, jac)
    return FourierLoop.unpack(x, n, N)


def _continuation_system(p, ref, R, k0, M):
    """(func, jac, solve) of the augmented system in z = (packed loop,
    lambda): residual, phase condition against ref, and the mode-k0
    coefficient norm pinned to R.

    jac returns the (even, odd) blocks of the Jacobian at an even iterate
    (see the module docstring): _cos_blocks with the lambda column and pin
    row, and with the phase row.  solve(blocks, f) steps on the even block
    alone and returns the singular values of both blocks, which are those
    of the block-diagonal whole.
    """
    n, N = ref.n, ref.N
    dim = n * (2 * N + 1)
    pin = slice(n + 2 * n * (k0 - 1), n + 2 * n * k0)  # acos_k0, asin_k0
    layout = cos, sin, *_ = _layout(n, N, M)
    even_rows, even_cols = np.r_[cos, dim + 1], np.r_[cos, dim]
    phase = _phase_row(ref)[sin]

    def func(z):
        lp = FourierLoop.unpack(z[:-1], n, N)
        return np.concatenate([residual(lp, z[-1], p, M),
                               [_phase_row_value(ref, lp), _norm(z[pin]) - R]])

    def jac(z):
        lam = z[-1]
        u = FourierLoop.unpack(z[:-1], n, N).values(M)
        hc = (np.fft.fft(p.hessian_many(u, lam), axis=0) / M).real
        even = np.zeros((len(cos) + 1,) * 2)
        even[:-1, :-1], ss = _cos_blocks(hc, layout)
        even[:-1, -1] = _coeffs(p.gradient_lambda_many(u, lam), N)[cos]
        even[-1, n * k0:n * (k0 + 1)] = z[pin][:n] / _norm(z[pin])
        return even, np.vstack([ss, phase])

    def solve(blocks, f):
        even, odd = blocks
        step = np.zeros(dim + 1)
        step[even_cols], _, _, sv_even = np.linalg.lstsq(even, -f[even_rows],
                                                         rcond=None)
        sv_odd = np.linalg.svd(odd, compute_uv=False)
        return step, np.concatenate([sv_even, sv_odd])

    return func, jac, solve


def _kernel_directions(p, r):
    """Unit eigenvectors of A(lambda0) for the eigenvalue k0^2: the
    mu_A(k0^2) eigenvectors, as the scan counted them, whose eigenvalues
    lie nearest k0^2, in ascending eigenvalue order."""
    k0 = min((k for k in r.frequencies if k >= 1), default=None)
    if k0 is None:
        raise ValueError("resonance point has no positive frequency to continue")
    mu = r.kernel_rep.multiplicity(k0)
    vals, vecs = np.linalg.eigh(p.family.eval_array(r.lambda0))
    nearest = np.sort(np.argsort(np.abs(vals - k0 * k0), kind="stable")[:mu])
    return k0, [v * np.sign(v[np.argmax(np.abs(v))]) for v in vecs[:, nearest].T]


def continue_to_infinity(p, r, amplitudes, modes=DEFAULT_MODES, direction=0):
    """Follow the branch rooted at a resonance toward large amplitude.

    For each requested amplitude R the augmented system (residual, phase
    condition, mode-k0 coefficient norm = R) is solved for the loop and
    lambda jointly, seeded from R * v * cos(k0 t) at first and from the
    rescaled previous solution afterwards.  Both seeds are even in t, so
    each step solves only the even block (see the module docstring).  A
    failed solve appends a marker point and truncates the branch.
    """
    N, n = modes, p.n
    amplitudes = list(amplitudes)
    if not all(0 < R < math.inf for R in amplitudes):
        raise ValueError(f"amplitudes must be positive and finite, got "
                         f"{amplitudes}: each pins the mode-k0 norm of a "
                         "nonconstant loop")
    k0, dirs = _kernel_directions(p, r)
    if not 0 <= direction < len(dirs):
        raise ValueError(f"direction {direction} out of range; "
                         f"kernel multiplicity is {len(dirs)}")
    if k0 > N:
        raise ValueError(f"modes = {N} cannot hold the resonance frequency "
                         f"k0 = {k0}; continue with at least {k0} modes")
    vec = dirs[direction]
    M = _nodes(None, N)
    lam0 = r.lambda0
    branch = []
    prev = None
    prev_lam = lam0
    for R in amplitudes:
        if prev is None:
            seed = FourierLoop.single_mode(k0, R * vec, N)
        else:
            ratio = R / branch[-1].amplitude
            seed = FourierLoop(prev.a0 * ratio, prev.acos * ratio,
                               prev.asin * ratio)
        z0 = np.concatenate([seed.pack(), [prev_lam]])
        func, jac, solve = _continuation_system(p, seed, float(R), k0, M)
        try:
            z, norm, steps, cond = _gauss_newton(func, z0, NEWTON_TOL,
                                                 NEWTON_MAX_ITER, jac, solve)
        except (NewtonConvergenceError, SingularJacobianError):
            branch.append(BranchPoint(seed, prev_lam, float(R), math.inf,
                                      frozenset(), failed=True))
            return branch
        loop = FourierLoop.unpack(z[:-1], n, N)
        lam = float(z[-1])
        energy = loop.mode_energy()
        total = float(energy.sum()) or 1.0
        active = frozenset(int(k) for k in np.flatnonzero(
            energy > ACTIVE_MODE_FRACTION * total) + 1)
        try:
            drift = energy_drift(loop, lam, p, M)
        except ValueError:  # a user perturbation without a potential
            drift = None
        branch.append(BranchPoint(loop, lam, float(R), norm, active,
                                  newton_steps=steps, jacobian_cond=cond,
                                  energy_drift=drift))
        if len(branch) >= 2 and abs(lam - lam0) > abs(branch[-2].lam - lam0) \
                and abs(lam - lam0) > DRIFT_WINDOW:
            warnings.warn(
                f"lambda drift grew to {abs(lam - lam0):.3g} at amplitude {R:g}; "
                "the branch may not meet this resonance", DivergenceWarning,
                stacklevel=2)
        prev, prev_lam = loop, lam
    return branch


def minimal_period_divisor(loop):
    """gcd of the active modes, 0 for an (almost) constant loop, from modes
    scaled exactly by the power of two that brings the largest below 1."""
    e = math.frexp(np.abs(loop.pack()[loop.n:]).max(initial=0.0))[1]
    energy = FourierLoop(loop.a0, np.ldexp(loop.acos, -e),
                         np.ldexp(loop.asin, -e)).mode_energy()
    active = np.flatnonzero(energy > PERIOD_MODE_FRACTION * energy.sum()) + 1
    return math.gcd(*(int(k) for k in active))


def minimal_period(loop):
    """Minimal period of the loop; 0 by convention for constants."""
    g = minimal_period_divisor(loop)
    return 0.0 if g == 0 else 2.0 * math.pi / g


def energy_drift(loop, lam, p, M=None):
    """max - min of the first integral H = |u'|^2/2 + V(u, lambda) on the grid.

    Zero for exact solutions of the autonomous system; for truncated ones
    this measures how far the computed loop is from conserving energy.  It
    is a truncation-error witness: for an N-mode loop whose exact solution
    is analytic in the strip |Im t| < sigma, the drift decays like
    exp(-sigma N), and it stays O(1) while sigma N is below about 1/2.  For
    the Kepler term, a loop R v cos(k0 t) has sigma = asinh(sqrt(a)/R)/k0,
    about sqrt(a)/(k0 R), so large loops need many modes before it falls.
    """
    M = _nodes(M, loop.N)
    vals = loop.values(M)
    vel = loop.velocity(M)
    E = 0.5 * (vel * vel).sum(axis=1) + p.potential_many(vals, lam)
    return float(E.max() - E.min())


def write_branch_csv(path, branch):
    """Branch table with 17-significant-digit decimal columns."""
    if not branch:
        raise ValueError("empty branch")
    n, N = branch[0].loop.n, branch[0].loop.N
    cols = ["lambda", "amplitude", "residual_norm", "min_period_divisor"]
    cols += [f"a0_{i + 1}" for i in range(n)]
    for k in range(1, N + 1):
        cols += [f"cos{k}_{i + 1}" for i in range(n)]
        cols += [f"sin{k}_{i + 1}" for i in range(n)]
    with open(path, "w") as fh:
        fh.write(f"# branch of 2pi-periodic solutions, format_version={FORMAT_VERSION}, "
                 f"n={n}, modes={N}\n")
        fh.write(",".join(cols) + "\n")
        for bp in branch:
            row = [bp.lam, bp.amplitude, bp.residual_norm,
                   minimal_period_divisor(bp.loop)]
            row.extend(bp.loop.a0)
            for k in range(N):
                row.extend(bp.loop.acos[k])
                row.extend(bp.loop.asin[k])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
