"""Truncated-Fourier verification harness for u'' = -grad V(u, lambda).

A 2pi-periodic candidate is stored by its Fourier coefficients up to order
N.  Plugging the ansatz into the equation and projecting back onto the
retained modes gives the residual

    R_0      = c_0
    R_k^cos  = -k^2 a_k + c_k
    R_k^sin  = -k^2 b_k + s_k

with (c, s) the transform of t -> grad V(u(t), lambda) on M equispaced
nodes (the solvers use 4N+1; the residual needs at least 2N+2).  A Newton
iteration on the residual (for continuation, with an amplitude pin and
lambda freed) runs to NEWTON_TOL in at most NEWTON_MAX_ITER steps.  The
truncation order N is the solvers' only setting: newton_solve keeps its
guess's and continue_to_infinity takes ``modes``.  The branch points' measured minimal
periods, lambda drift and energy drift are the numerical evidence the
analysis module's predictions are checked against.  Each step assembles
the Jacobian in closed form from the potential's Hessian at the nodes
(for a user perturbation, a central difference of its gradient).

Both solvers work on the loops even in t (asin = 0), which meet each
time-shift orbit of solutions only in isolated points, so no phase
condition is needed.  Three facts make an even loop stay even:
continuation's seeds R v cos(k0 t) and rescaled points, and every
newton_solve guess, are even; the system is reversible (u'' = -grad V(u)
is autonomous and second order, so t -> u(-t) maps solutions to
solutions); and the nodes t_m = 2 pi m / M are symmetric (t_m -> -t_m is
m -> M - m).  At an even iterate the Hessian samples are even in m, their
sine coefficients vanish, the cos rows do not see the sin columns, and
the sin rows are roundoff.  The solvers' system is the square cosine
system: cos rows against a0 and acos, bordered in continuation by the pin
row and the lambda column.  It splits over the connected components of
the coordinates (i and j couple where H[:, i, j] is not exactly 0 at
every node) and one node for the border (see _part_builder): a loop on
one axis of a diagonal A(lambda) gives n parts of side N+1 or N+2, a
coupled problem one part.  A step is one LU solve of each part whose
residual rows are not all exactly 0 (the idle axes step by exactly 0) and
keeps asin exactly 0; convergence is judged on the whole residual, sin
rows included.  An iterate is sampled once, for its residual and
Jacobian.  Both solvers run with numpy's overflow and invalid results
raised as FloatingPointError, so a loop too large for floating point
fails by name.

The singular values of every part's block, whose union is the cosine
system's, feed the rank check.  They are taken where the iteration
stops unconverged, on a Jacobian whose step did not lower the residual
max-norm (so a rank-deficient system stops within a few steps), and by
continuation alone at a converged point, for its jacobian_cond.
"""

import functools
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
    """The Jacobian Newton steps with is rank deficient."""

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
        """R^n-valued loop vec*cos(kt), 1 <= k <= N."""
        if not 1 <= k <= N:
            raise ValueError(f"mode k = {k} is outside 1..N = 1..{N}")
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

    @functools.cached_property
    def minimal_period_divisor(self):
        """``minimal_period_divisor`` of the loop, taken on first use."""
        return minimal_period_divisor(self.loop)


def _coeffs(samples, N):
    """Packed Fourier coefficients, modes 0..N, of samples on M nodes."""
    M = samples.shape[0]
    G = np.fft.rfft(samples, axis=0)[:N + 1]
    c = np.stack([2.0 * G[1:].real / M, -2.0 * G[1:].imag / M], axis=1)
    return np.concatenate([G[0].real / M, c.ravel()])


def residual(loop, lam, p, M=None):
    """Coefficient residual of u'' + grad V(u, lambda) = 0."""
    M = _nodes(M, loop.N)
    if M < 2 * loop.N + 2:
        raise ValueError("need at least 2N+2 collocation nodes")
    return _residual(loop.pack(), loop.values(M), lam, p)


def _residual(x, u, lam, p):
    """residual() of the loop packed in x, from its samples u, shape (M, n)."""
    n, N = u.shape[1], (len(x) // u.shape[1] - 1) // 2
    c = _coeffs(p.gradient_many(u, lam), N)
    k2 = np.repeat(np.arange(1, N + 1) ** 2, 2 * n)  # cos and sin of mode k
    return c - np.concatenate([np.zeros(n), k2]) * x


def _sampler(n, N, M):
    """samples(x): the loop packed in x[:n(2N+1)] on M nodes.  It keeps the
    last x and its samples, so func and jac of one iterate synthesise once."""
    last = [None, None]

    def samples(x):
        if x is not last[0]:
            rest = x[n:n * (2 * N + 1)].reshape(N, 2, n)
            last[:] = x, _synthesize(x[:n], rest[:, 0], rest[:, 1], M)
        return last[1]

    return samples


def _packed(n, N, nodes):
    """Packed positions of the cos coefficients (k, i), k = 0..N (a0, then
    acos_k), for i in nodes, k-major."""
    k = np.arange(N + 1)[:, None]
    return (np.maximum(2 * k - 1, 0) * n + nodes).ravel()


@functools.lru_cache(maxsize=1)
def _layout(n, N, M):
    """Index layout (k, dif, tot) of the cos/cos block of n coordinates:
    the mode k of each cos coefficient (k, i), k-major, and the flat
    indices of h[(k -/+ l) % M, i, j] in an (M, n, n) array.

    A solve needs one per size s of its coordinate components, (s, N, M),
    and keeps them (_part_builder); the last one is cached (read-only), so
    it is built once per solve or branch whose components have one size."""
    k, i = np.repeat(np.arange(N + 1), n), np.tile(np.arange(n), N + 1)
    ij = i[:, None] * n + i[None, :]
    dif = (k[:, None] - k[None, :]) % M * n * n + ij
    tot = (k[:, None] + k[None, :]) % M * n * n + ij
    for arr in (k, dif, tot):
        arr.flags.writeable = False
    return k, dif, tot


def _components(linked):
    """Connected components of the graph with the symmetric boolean
    adjacency matrix ``linked``, each an ascending index array, in the
    order of their smallest index."""
    reach = linked | np.eye(len(linked), dtype=bool)
    while not np.array_equal(closer := reach @ reach, reach):
        reach = closer
    first = reach.argmax(axis=0)
    # a component's smallest index is its own first (np.unique imports numpy.ma)
    roots = np.flatnonzero(first == np.arange(len(first)))
    return [np.flatnonzero(first == c) for c in roots]


def _cos_block(hc, layout):
    """The cos/cos block of the residual Jacobian P diag(H(u(t_m))) T -
    diag(k^2), its rows and columns a0 and acos.

    With hc[j] - i hs[j] = (1/M) sum_m H(u(t_m)) exp(-i j t_m), the product
    formulas for cos/sin give the block of mode-k rows against mode-l
    columns as a Toeplitz part in k - l plus a Hankel part in k + l
    (indices mod M, exact for the discrete sums): hc[k-l] + hc[k+l], the
    mean row halved, k^2 off the diagonal.  The cos/sin blocks
    hs[k+l] -/+ hs[k-l] vanish at an even loop."""
    k, dif, tot = layout
    n, hc = hc.shape[1], hc.ravel()
    cc = hc[dif] + hc[tot]
    cc[:n] *= 0.5
    cc[np.diag_indices(len(k))] -= k * k
    return cc


def _part_builder(n, N, M):
    """parts(H, border=None): the Jacobian of the residual's cos rows
    against a0 and acos at a loop even in t with Hessian samples H, as
    uncoupled parts (positions, block), one per component.

    Coordinates i and j are linked where H[:, i, j] is not all exactly 0;
    continuation's ``border`` = (lambda column, pin row) is one more node,
    linked to the coordinates whose cos entries it touches.  Entries
    between components are exactly 0.  A part holds its block (_cos_block,
    bordered in the node's part) on the rows and columns ``positions`` of
    the whole; the pin row and the lambda column share the position dim.
    """
    dim = n * (2 * N + 1)
    cos = _packed(n, N, np.arange(n))
    # the link pattern -> each component's coordinates, their packed
    # positions, _layout and whether it holds the border; kept, so a
    # pattern is split once per solve
    split = {}

    def parts(H, border=None):
        linked = np.zeros((n + 1, n + 1), dtype=bool)
        linked[:n, :n] = (H != 0.0).any(axis=0)
        # FFT lanes are independent: those that are all 0 are left 0
        I, J = np.nonzero(linked[:n, :n])
        hc = np.zeros(H.shape)
        hc[:, I, J] = (np.fft.fft(H[:, I, J], axis=0) / M).real
        if border is not None:
            lam_col, pin_row = border
            touched = (lam_col[cos] != 0.0) | (pin_row[cos] != 0.0)
            linked[:n, n] = touched.reshape(N + 1, n).any(axis=0)
        linked |= linked.T
        key = linked.tobytes()
        if key not in split:
            split[key] = [(S, _packed(n, N, S), _layout(len(S), N, M), n in nodes)
                          for nodes in _components(linked)
                          if len(S := nodes[nodes < n])]
        out = []
        for S, pos, layout, bordered in split[key]:
            block = _cos_block(hc[:, S][:, :, S], layout)
            if bordered:
                block = np.block([[block, lam_col[pos, None]], [pin_row[pos], 0.0]])
                pos = np.append(pos, dim)
            out.append((pos, block))
        return out

    return parts


def _solve_parts(parts, f):
    """The step for parts (_part_builder) and residual f: one LU solve of
    each block whose entries of f are not all exactly 0 (else its LU gives
    exactly 0), 0 on asin, or None when one is exactly singular, an idle
    one left to the rank check.  Also a callable for the singular values of
    every distinct block: a block with the shape and bytes of one already
    taken is skipped, so they are those of the whole system as a set,
    extremes included."""
    def sv():
        blocks = {(b.shape, b.tobytes()): b for _, b in parts}
        return np.concatenate([np.linalg.svd(b, compute_uv=False)
                               for b in blocks.values()])
    step = np.zeros(len(f))
    try:
        for pos, block in parts:
            if (rhs := f[pos]).any():
                step[pos] = np.linalg.solve(block, -rhs)
    except np.linalg.LinAlgError:
        return None, sv
    return step, sv


def _rank_checked(sv):
    """sigma_max / sigma_min of a Jacobian with singular values sv, in
    Python floats so a wide spread reads inf instead of overflowing; raises
    SingularJacobianError when the Jacobian is rank deficient."""
    smax, smin = float(sv.max()), float(sv.min())
    cond = smax / smin if smin > 0.0 else math.inf
    if smin <= 1e-14 * smax:
        raise SingularJacobianError("Jacobian is rank deficient", cond=cond)
    return cond


def _gauss_newton(func, x0, jac):
    """Newton on the cosine system, to NEWTON_TOL in at most NEWTON_MAX_ITER
    steps.

    Convergence is checked before the first step, so an exact initial
    guess returns without assembling a Jacobian, and a residual that is
    not finite raises NewtonConvergenceError before any is assembled.
    ``jac(x)`` gives _part_builder's parts, and ``_solve_parts(jac(x), f)``
    the step, or None when the solve meets an exactly singular matrix, and a
    callable for the Jacobian's singular values.  The singular values are
    taken only where the iteration stops unconverged (out of steps, a
    residual that is not finite, a singular solve) and on a Jacobian whose
    step did not lower the residual max-norm; each such Jacobian gets the
    rank check, so a rank-deficient one raises SingularJacobianError.
    Returns the solution, its residual max-norm, the number of steps taken
    and the last Jacobian's singular-value callable, uncalled (None when no
    step was taken).
    """
    x = x0.copy()
    sv = None          # gives the last Jacobian's singular values on call
    last = math.inf    # residual max-norm where that Jacobian was assembled
    for it in range(NEWTON_MAX_ITER + 1):
        f = func(x)
        norm = float(np.abs(f).max())
        if norm <= NEWTON_TOL:
            return x, norm, it, sv
        stops = not math.isfinite(norm) or it == NEWTON_MAX_ITER
        if sv is not None and (stops or not norm < last):
            _rank_checked(sv())
        if not math.isfinite(norm):
            raise NewtonConvergenceError(
                f"residual is not finite ({norm}) after {it} iterations")
        if it == NEWTON_MAX_ITER:
            raise NewtonConvergenceError(
                f"no convergence after {it} iterations "
                f"(residual {norm:.3e}, tolerance {NEWTON_TOL:.3e})")
        step, sv = _solve_parts(jac(x), f)
        if step is None:
            raise SingularJacobianError("Jacobian is singular",
                                        cond=_rank_checked(sv()))
        x, last = x + step, norm
    raise AssertionError("unreachable")


def newton_solve(guess, lam, p):
    """Solve the projected system at fixed lambda from a caller's guess.

    The guess must be even in t (asin = 0, as every branch point is), and
    so is the solution: each step solves _part_builder's parts, so no phase
    condition is needed.  The solve keeps the guess's truncation order; pad
    the guess first (FourierLoop.truncated) to solve with more modes.  A
    converged solve takes no singular values, so it does not raise
    SingularJacobianError when its last Jacobian is rank deficient to
    1e-14; a stalled, singular or exhausted one still does.  A part whose
    residual rows are all exactly 0 is not solved (_solve_parts), so an
    exactly singular block there raises only through that rank check.  A
    guess too large for floating point raises FloatingPointError.
    """
    if np.any(guess.asin != 0.0):
        raise ValueError("newton_solve needs a guess even in t (asin = 0); "
                         "shift the loop so that it is")
    n, N = guess.n, guess.N
    M = _nodes(None, N)
    build, samples = _part_builder(n, N, M), _sampler(n, N, M)

    def func(x):
        return _residual(x, samples(x), lam, p)

    def jac(x):
        return build(p.hessian_many(samples(x), lam))

    with np.errstate(over="raise", invalid="raise"):
        x, *_ = _gauss_newton(func, guess.pack(), jac)
    return FourierLoop.unpack(x, n, N)


def _continuation_system(p, ref, R, k0, M):
    """(func, jac) of the augmented system in z = (packed loop, lambda):
    residual, and the mode-k0 coefficient norm pinned to R.  jac gives
    _part_builder's parts with the lambda column and pin row as border."""
    n, N = ref.n, ref.N
    dim = n * (2 * N + 1)
    pin = slice(n + 2 * n * (k0 - 1), n + 2 * n * k0)  # acos_k0, asin_k0
    build, samples = _part_builder(n, N, M), _sampler(n, N, M)

    def func(z):
        return np.concatenate([_residual(z[:-1], samples(z), z[-1], p),
                               [float(np.linalg.norm(z[pin])) - R]])

    def jac(z):
        lam, u = z[-1], samples(z)
        pin_row = np.zeros(dim)
        pin_row[pin.start:pin.start + n] = z[pin][:n] / float(np.linalg.norm(z[pin]))
        return build(p.hessian_many(u, lam),
                     (_coeffs(p.gradient_lambda_many(u, lam), N), pin_row))

    return func, jac


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

    For each requested amplitude R the augmented system (residual,
    mode-k0 coefficient norm = R) is solved for the loop and lambda
    jointly, seeded from R * v * cos(k0 t) at first and from the rescaled
    previous point afterwards.  Both seeds are even in t, so each step
    solves only the cosine system (see the module docstring).  A
    failed solve appends a marker point and truncates the branch; so does
    a point whose solve overflows or meets an invalid value, raised as
    FloatingPointError for that solve alone.  The measurements of a
    converged point are taken outside it.
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
    for R in amplitudes:
        if branch:
            prev = branch[-1]
            ratio, prev_lam = R / prev.amplitude, prev.lam
            seed = FourierLoop(prev.loop.a0 * ratio, prev.loop.acos * ratio,
                               prev.loop.asin * ratio)
        else:
            seed, prev_lam = FourierLoop.single_mode(k0, R * vec, N), lam0
        try:
            with np.errstate(over="raise", invalid="raise"):
                z0 = np.concatenate([seed.pack(), [prev_lam]])
                func, jac = _continuation_system(p, seed, float(R), k0, M)
                z, norm, steps, sv = _gauss_newton(func, z0, jac)
                cond = None if sv is None else _rank_checked(sv())
        except (NewtonConvergenceError, SingularJacobianError, FloatingPointError):
            branch.append(BranchPoint(seed, prev_lam, float(R), math.inf,
                                      frozenset(), failed=True))
            return branch
        loop = FourierLoop.unpack(z[:-1], n, N)
        lam = float(z[-1])
        active = frozenset(_active_modes(loop, ACTIVE_MODE_FRACTION))
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
    return branch


def _active_modes(loop, fraction):
    """Modes k >= 1 above ``fraction`` of the mode energy, from modes scaled
    exactly by the power of two that brings the largest below 1."""
    e = math.frexp(np.abs(loop.pack()[loop.n:]).max(initial=0.0))[1]
    acos, asin = np.ldexp(loop.acos, -e), np.ldexp(loop.asin, -e)
    energy = (acos ** 2).sum(axis=1) + (asin ** 2).sum(axis=1)
    return [int(k) for k in np.flatnonzero(energy > fraction * energy.sum()) + 1]


def minimal_period_divisor(loop):
    """gcd of the active modes, 0 for an (almost) constant loop."""
    return math.gcd(*_active_modes(loop, PERIOD_MODE_FRACTION))


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
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# branch of 2pi-periodic solutions, format_version={FORMAT_VERSION}, "
                 f"n={n}, modes={N}\n")
        fh.write(",".join(cols) + "\n")
        for bp in branch:
            fh.write(fmt % (bp.lam, bp.amplitude, bp.residual_norm,
                            bp.minimal_period_divisor, *bp.loop.pack().tolist()))
