"""Symmetric eigenanalysis and resonance detection along a parameter interval.

Everything downstream consumes integer spectral invariants of a symmetric
matrix A with respect to the squares {k^2 : k = 0, 1, 2, ...}:

* ``j_k(A)``      -- eigenvalue count strictly above k^2,
* ``morse_index`` -- eigenvalue count strictly below 0,
* kernel rep      -- the sum of R[mu_A(k^2), k] over the resonant k,
* resonances      -- parameter values where some eigenvalue hits some k^2,
                     found from det(A - k^2 Id) on whole grids at once, for
                     the k some eigenvalue curve can reach, and bisected in
                     rounds that each take one stacked det for all brackets
                     of a k; the curves are sampled only in the blocks of
                     cells where a square is in reach (until the scan
                     follows them, ROADMAP item 2).

Tolerances are relative on input (default 1e-9) and converted once into an
absolute tolerance ``tol * (1 + max|eigenvalue|)`` that is carried inside
``SpectralData``; all sign decisions are made against that absolute value
(``SpectralData.near``, ``multiplicity``) and degenerate cases raise instead
of guessing.  The sign of a determinant is read off its sign bit, never off a
product of two, which underflows.  ``_runs`` is the one grouping of sorted
values, ``_square_roots_in`` the one band of squares on float arrays,
``_integers_in`` the one union of integer intervals, ``MatrixFamily.eval_many``
the one evaluation of A(lambda): the scan's node stack and its bisection
rounds see it.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .reps import RepDecomposition, gcd_closure

DEFAULT_TOL = 1e-9
DEFAULT_GRID = 512
_BLOCK = 8   # cells per block in the first pass of _reachable_frequencies
MAX_FREQUENCIES = 10**6   # the most frequencies k one report enumerates


class EigenConvergenceError(RuntimeError):
    """Eigen decomposition failed or did not meet its residual bound."""


class DegenerateSpectrumError(ValueError):
    """An eigenvalue sits within tolerance of a threshold that a caller
    required to be crossed strictly."""


class NonIsolatedResonanceError(RuntimeError):
    """det(A(lambda) - k^2 Id) vanishes on a whole subinterval."""


class TooManyFrequenciesError(ValueError):
    """A report would enumerate more than MAX_FREQUENCIES frequencies."""


class TangencyWarning(UserWarning):
    """Determinant touches zero without changing sign between grid nodes."""


class ResolutionWarning(UserWarning):
    """Two resonances of the same frequency fall within one grid cell."""


def check_frequency_count(count):
    """Raise TooManyFrequenciesError, naming ``count``, when a caller is
    about to enumerate more than MAX_FREQUENCIES frequencies."""
    if count > MAX_FREQUENCIES:
        raise TooManyFrequenciesError(f"enumerating {count:.7g} frequencies k "
                                      f"exceeds MAX_FREQUENCIES = {MAX_FREQUENCIES}")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Square real matrix, symmetrized exactly at construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = arr / 2.0 + arr.T / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self):
        return self.entries.shape[0]

    def __repr__(self):
        return f"SymmetricMatrix({self.entries.tolist()})"


def as_symmetric(A):
    return A if isinstance(A, SymmetricMatrix) else SymmetricMatrix(A)


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigenvalues of a symmetric matrix.

    eigenvalues: tuple of (value, multiplicity), values strictly increasing
    with gaps larger than ``tol``.
    tol: the absolute clustering tolerance that was applied.
    """

    eigenvalues: tuple
    tol: float

    @property
    def n(self):
        return sum(m for _, m in self.eigenvalues)

    def values(self):
        return [v for v, _ in self.eigenvalues]

    @property
    def top(self):
        """Largest eigenvalue, -1.0 for an empty spectrum."""
        return max(self.values(), default=-1.0)

    def near(self, x):
        """The clusters (value, multiplicity) within tol of x, increasing."""
        return [(v, m) for v, m in self.eigenvalues if abs(v - x) <= self.tol]

    def multiplicity(self, x):
        """Total multiplicity of eigenvalues within tol of x."""
        return sum(m for _, m in self.near(x))

    def counts_above(self, ks):
        """j_k for every k in the integer array ks: the number of
        eigenvalues strictly above k^2, with multiplicity.  No eigenvalue
        is checked against the tolerance band around k^2."""
        ks = np.asarray(ks, dtype=np.int64)
        return self.n - np.searchsorted(self.expanded, (ks * ks).astype(float),
                                        side="right")

    @functools.cached_property
    def expanded(self):
        """Every eigenvalue repeated by its multiplicity, increasing; built
        on first use and read-only."""
        arr = np.repeat(self.values(), [m for _, m in self.eigenvalues])
        arr.flags.writeable = False
        return arr

    def positive_spectrum(self):
        """Clusters strictly above the tolerance band around zero."""
        return [(v, m) for v, m in self.eigenvalues if v > self.tol]

    def to_json(self):
        return {"eigenvalues": [[v, m] for v, m in self.eigenvalues], "tol": self.tol}


def _runs(values, joins):
    """Split a sorted sequence into runs: a value joins the current run
    when ``joins(run, value)`` holds.  Chained callers compare the value
    with ``run[-1]`` (a run may span more than the gap), anchored callers
    with ``run[0]``."""
    runs = []
    for v in values:
        if runs and joins(runs[-1], v):
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def _integers_in(first, last):
    """The integers of the union of the intervals [first_i, last_i],
    increasing; empty intervals add nothing.  Counted before they are
    listed (check_frequency_count)."""
    if not len(first):
        return []
    # merge by start: a run ends where the next start passes its top end + 1
    order = np.argsort(first)
    first, last = (np.asarray(x, dtype=float)[order] for x in (first, last))
    top = np.maximum.accumulate(last)
    new_run = np.concatenate(([True], first[1:] > top[:-1] + 1))
    last_of_run = np.concatenate((new_run[1:], [True]))
    starts, stops = first[new_run], top[last_of_run] + 1
    check_frequency_count(np.maximum(stops - starts, 0.0).sum())
    return [k for a, b in zip(starts.astype(int).tolist(), stops.astype(int).tolist())
            for k in range(a, b)]


def _check_tol(tol):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def eigen_sym(A, tol=DEFAULT_TOL):
    """Eigenvalues of a symmetric matrix, clustered at tol relative.

    The residual ||A v - a v|| of every eigenpair is checked against
    tol_abs = tol * (1 + |A|); failure raises EigenConvergenceError rather
    than returning silently degraded data.
    """
    A = as_symmetric(A)
    _check_tol(tol)
    try:
        vals, vecs = np.linalg.eigh(A.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigen decomposition failed: {exc}") from exc
    scale = 1.0 + (abs(vals).max() if len(vals) else 0.0)
    abs_tol = tol * scale
    resid = np.abs(A.entries @ vecs - vecs * vals).max() if len(vals) else 0.0
    if resid > abs_tol:
        raise EigenConvergenceError(
            f"eigenpair residual {resid:.3e} exceeds tolerance {abs_tol:.3e}")
    # a one-value run is its own mean; + 0.0 turns -0.0 into 0.0 as np.mean does
    eigenvalues = tuple((c[0] + 0.0 if len(c) == 1 else float(np.mean(c)), len(c))
                        for c in _runs(vals.tolist(), lambda run, v: v - run[-1] <= abs_tol))
    return SpectralData(eigenvalues, float(abs_tol))


def morse_index(s):
    """Total multiplicity of eigenvalues below -tol."""
    return sum(m for v, m in s.eigenvalues if v < -s.tol)


def frequency_bound(top):
    """Smallest k >= 1 with k^2 > top.

    No eigenvalue at most ``top`` reaches k^2 from this k on, so j_k and
    mu_A(k^2) vanish there; loops over frequencies stop at it.
    """
    return math.isqrt(int(max(top, 0.0))) + 1


def resonant_frequencies(s):
    """Frequencies k >= 0 with k^2 an eigenvalue within tolerance."""
    # the squares near each v, one k either side to spare the rounding
    near = [range(max(math.isqrt(int(max(v - s.tol, 0.0))) - 1, 0),
                  math.isqrt(int(v + s.tol)) + 2)
            for v, _ in s.eigenvalues if v + s.tol >= 0.0]
    check_frequency_count(sum(ks.stop - ks.start for ks in near))
    return frozenset(k for ks in near for k in ks if s.near(k * k))


def j_k(A, k, tol=DEFAULT_TOL):
    """Count of eigenvalues of A strictly greater than k^2 (with multiplicity).

    Raises DegenerateSpectrumError when some eigenvalue is within tolerance
    of k^2, naming the offending eigenvalue.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    k = int(k)
    s = eigen_sym(A, tol)
    near = s.near(k * k)
    if near:
        raise DegenerateSpectrumError(
            f"eigenvalue {near[0][0]!r} lies within tolerance {s.tol:.3e} of {k}^2 = {float(k * k)}")
    return int(s.counts_above(k))


def k_set(r_minus, r_plus):
    """Union of the per-endpoint gcd-closures of the resonant frequencies
    k >= 1, from each endpoint's ``resonant_frequencies``.

    Empty when neither endpoint spectrum meets a positive square.
    """
    return gcd_closure(r_minus - {0}) | gcd_closure(r_plus - {0})


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """Symmetric-matrix family A(lambda) with polynomial entries.

    Stored as a coefficient stack C[p] with A(lambda) = sum_p lambda^p C[p];
    each coefficient matrix is symmetrized at construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected coefficient stack (degree+1, n, n), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("family coefficients must be finite")
        arr = arr / 2.0 + arr.transpose(0, 2, 1) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def constant(cls, A):
        return cls(np.asarray(as_symmetric(A).entries)[None, :, :])

    @classmethod
    def from_entry_polynomials(cls, n, entries):
        """Build from {(i, j): {power: coefficient}} with 1-based indices.

        Missing entries are zero; symmetry of the result comes from the
        constructor, so the caller is responsible for mirroring checks.
        """
        degree = max((p for terms in entries.values() for p in terms), default=0)
        stack = np.zeros((degree + 1, n, n))
        for (i, j), terms in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"entry index ({i},{j}) outside 1..{n}")
            for p, c in terms.items():
                if p < 0:
                    raise ValueError(f"negative power {p} in entry ({i},{j})")
                stack[p, i - 1, j - 1] += c
                if i != j:
                    stack[p, j - 1, i - 1] += c
        return cls(stack)

    @classmethod
    def scaled_quadratic(cls, A):
        """The family lambda^2 * A (linearization of a scaled potential)."""
        A = as_symmetric(A).entries
        stack = np.zeros((3,) + A.shape)
        stack[2] = A
        return cls(stack)

    @property
    def n(self):
        return self.coeffs.shape[1]

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def eval(self, lam):
        return SymmetricMatrix(self.eval_array(lam))

    def eval_array(self, lam):
        return self.eval_many([lam])[0]

    def derivative_array(self, lam):
        """dA/dlambda at lam, from the same coefficient stack."""
        d, n = self.degree, self.n
        p = np.arange(1, d + 1)
        return (p * float(lam) ** (p - 1) @ self.coeffs[1:].reshape(d, n * n)).reshape(n, n)

    def eval_many(self, lams):
        """A(lambda) for each of ``lams``, each its own product with the stack: the
        one evaluation, so the scan's nodes and bisection rounds see the same bits."""
        lams, d, n = np.asarray(lams, dtype=float), self.degree, self.n
        powers = lams[:, None, None] ** np.arange(d + 1)
        return (powers @ self.coeffs.reshape(d + 1, n * n)).reshape(len(lams), n, n)


@dataclass(frozen=True)
class ResonancePoint:
    """A parameter value where sigma(A(lambda)) meets {k^2}.

    kernel_rep: the representation sum of R[mu_A(k^2), k] over the
    frequencies, all k >= 0 with k^2 in the spectrum at lambda0.
    """

    lambda0: float
    kernel_rep: RepDecomposition

    def __post_init__(self):
        if not self.kernel_rep:
            raise ValueError("a resonance point must carry at least one frequency")

    @property
    def frequencies(self):
        return self.kernel_rep.frequencies

    @property
    def det_nonzero(self):
        """Whether det A(lambda0) is nonzero at tolerance: 0 is no frequency."""
        return 0 not in self.frequencies

    def to_json(self):
        return {
            "lambda0": self.lambda0,
            "frequencies": sorted(self.frequencies),
            "kernel_rep": self.kernel_rep.to_json(),
            "det_nonzero": self.det_nonzero,
        }


def _scan_one_frequency(family, nodes, mats, k, tol):
    """Roots of det(A(lambda) - k^2 Id) on the node grid for one k.

    ``mats`` is ``family.eval_many(nodes)``.  Returns (roots,
    warn_messages).  Node-exact zeros are accepted when |det| < tol * scale
    with scale the largest |det| seen on the grid; other zeros must flip the
    sign of det.  Runs of tiny nodes, sign-change brackets and tangency dips
    are boolean masks over the stacked node determinants and their sign bits;
    the brackets are then bisected together by ``_bisect``, one stacked
    ``det`` per round.  Roots within tol of a run's first root are one root.
    """
    shift = float(k * k) * np.eye(family.n)
    dets = np.linalg.det(mats - shift[None, :, :])
    absd = np.abs(dets)
    scale = max(float(absd.max()), 1e-300)
    tiny = absd <= tol * scale
    if np.any(tiny[:-2] & tiny[1:-1] & tiny[2:]):
        raise NonIsolatedResonanceError(
            f"det(A(lambda) - {k}^2 Id) vanishes on a subinterval of the grid; "
            "resonances are not isolated at this tolerance")

    neg = dets < 0.0
    i = np.flatnonzero(~tiny[:-1] & ~tiny[1:] & (neg[:-1] != neg[1:]))
    roots = nodes[tiny].tolist() + _bisect(family, shift, list(zip(
        nodes[i].tolist(), nodes[i + 1].tolist(), dets[i].tolist(), dets[i + 1].tolist())), tol)

    # tangential touch: same-sign local minimum of |det| dipping well below
    # the grid scale without an accepted root nearby
    cell = float(nodes[1] - nodes[0]) if len(nodes) > 1 else 0.0
    mid_absd = absd[1:-1]
    dips = 1 + np.flatnonzero(
        ~(tiny[:-2] | tiny[1:-1] | tiny[2:]) & (mid_absd < math.sqrt(tol) * scale)
        & (mid_absd <= absd[:-2]) & (mid_absd <= absd[2:]) & (neg[:-2] == neg[2:]))
    warn = [(TangencyWarning,
             f"det(A(lambda) - {k}^2 Id) touches zero near lambda={lam:.6g} "
             "without a sign change; tangential resonance not reported as a point")
            for lam in nodes[dips].tolist()
            if not any(abs(lam - r) <= 2.0 * cell for r in roots)]

    merged = [run[0] for run in _runs(sorted(roots),
                                      lambda run, r: r - run[0] <= max(tol, 1e-15))]
    warn += [(ResolutionWarning,
              f"two resonances of frequency {k} fall within one grid cell "
              f"near lambda={a:.6g}; increase the grid to separate them")
             for a, b in zip(merged, merged[1:]) if b - a < cell]
    return merged, warn


def _settled(a, b, tol):
    """Whether bisection of [a, b] is over: b - a <= tol, or a and b are
    adjacent floats, so that their midpoint rounds to one of them."""
    mid = 0.5 * (a + b)
    return b - a <= tol or mid == a or mid == b


def _guessed_path(a, b, fa, fb, tol):
    """The midpoints that bisection of [a, b] visits if the root is the
    secant root of the ends (fa, fb are det at a, b, nonzero and of
    opposite signs)."""
    guess = a + fa / (fa - fb) * (b - a)
    path = []
    while not _settled(a, b, tol):
        path.append(0.5 * (a + b))
        a, b = (a, path[-1]) if guess < path[-1] else (path[-1], b)
    return path


def _bisect(family, shift, brackets, tol):
    """The bisected roots of det(A(lambda) - shift) in each bracket
    (a, b, det at a, det at b) of a sign change, each the midpoint of its
    final bracket.

    Each round guesses the rest of every live bracket's path
    (``_guessed_path``), takes det at all their midpoints as one stack and
    replays the bisection on those values up to the first step the guess
    took the wrong way.  So every midpoint, det and decision is that of a
    bisection one ``det`` at a time; the guess only sets the number of
    rounds, and a round takes at least one step of every bracket.
    """
    roots = []
    while True:
        live = [br for br in brackets if not _settled(br[0], br[1], tol)]
        roots += [0.5 * (a + b) for a, b, _, _ in brackets if _settled(a, b, tol)]
        if not live:
            return roots
        paths = [_guessed_path(*br, tol) for br in live]
        fms = np.linalg.det(family.eval_many([m for p in paths for m in p]) - shift).tolist()
        brackets, start = [], 0
        for (a, b, fa, fb), path in zip(live, paths):
            for mid, fm in zip(path, fms[start:start + len(path)]):
                if mid != 0.5 * (a + b):   # the guess went the other way a step ago
                    break
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm < 0.0) != (fa < 0.0):
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            brackets.append((a, b, fa, fb))
            start += len(path)


def _square_roots_in(lower, upper):
    """Elementwise bounds first, last of the integers k >= 0 whose square
    lies in [lower, upper]; first > last where none does.

    The one squares-in-a-band rule of the float array paths.  The scalar
    ``frequency_bound`` and ``resonant_frequencies`` keep the exact
    ``math.isqrt``, which stays exact past 2^53, where a float square root
    can be one k off."""
    # sqrt is correctly rounded, hence monotone: a k^2 inside [lower, upper]
    # stays inside [first, last], and rounding can only add a k at an end
    first = np.ceil(np.sqrt(np.maximum(lower, 0.0)))
    last = np.where(upper >= 0.0, np.floor(np.sqrt(np.maximum(upper, 0.0))), -1.0)
    return first, last


def _reachable_frequencies(family, nodes, mats, tol):
    """Every k >= 0 whose square some eigenvalue curve can reach on the grid.

    ``mats`` is ``family.eval_many(nodes)``.  By Weyl's inequality each
    sorted curve is L-Lipschitz, with L = sum_q q r^(q-1) ||C_q|| >=
    ||A'(lambda)||_2 on [-r, r], so on a cell of width h it stays within
    L h / 2 of the mean of its two node values.  Widened by the
    rounding slack of evaluating A and of ``eigvalsh``, these cell intervals
    hold every value the curves take; det(A(lambda) - k^2 Id) has no zero
    on the grid's span for any k whose square misses all of them.

    ``eigvalsh`` runs first at the ends of blocks of 8 cells.  On a block of
    width w <= w_max a curve stays within L w / 2 of the mean of its end
    values, and each of its cells has h <= w, so the block range
    mid ± (L w_max + 2 slack) holds every cell range inside it; the second
    slack covers the rounding of the four eigenvalues the two means read.
    So only blocks whose range holds a square get ``eigvalsh`` at their
    inner nodes, and their cells give the same k as the whole grid: every
    cell whose range holds k^2, hence every bracket of a crossing, lies in
    such a block, with the eigenvalues of its nodes taken.
    """
    r = max(abs(float(nodes[0])), abs(float(nodes[-1])))
    norms = np.abs(np.linalg.eigvalsh(family.coeffs)).max(axis=1)
    q = np.arange(len(norms))
    lipschitz = float(np.sum(q[1:] * r ** (q[1:] - 1) * norms[1:]))
    # 1 + max ||A(lambda)||_2 on the interval: bounds every |eigenvalue|
    # and, times the rounding unit, the errors of evaluating A and eigvalsh
    scale = 1.0 + float(np.sum(r ** q * norms))
    slack = max(tol, 64.0 * family.n * np.finfo(float).eps) * scale
    ends = np.append(np.arange(0, len(nodes) - 1, _BLOCK), len(nodes) - 1)
    eigs = np.empty((len(nodes), family.n))
    eigs[ends] = np.linalg.eigvalsh(mats[ends])
    mid = (eigs[ends[:-1]] + eigs[ends[1:]]) / 2.0
    half = lipschitz * float(np.max(np.diff(nodes[ends]))) + 2.0 * slack
    first, last = _square_roots_in(mid - half, mid + half)
    refined = np.any(first <= last, axis=1)
    cells = np.flatnonzero(refined[np.arange(len(nodes) - 1) // _BLOCK])
    inner = cells[cells % _BLOCK > 0]
    eigs[inner] = np.linalg.eigvalsh(mats[inner])
    mid = (eigs[cells] + eigs[cells + 1]) / 2.0
    half = lipschitz * float(np.max(np.diff(nodes))) / 2.0 + slack
    first, last = _square_roots_in(mid - half, mid + half)
    some = first <= last
    return _integers_in(first[some], last[some])


def scan_resonances(family, lo, hi, grid=DEFAULT_GRID, tol=DEFAULT_TOL):
    """All resonance points of a matrix family on [lo, hi].

    Eigenvalues of A at the block ends of the ``grid + 1`` nodes, and at
    every node of the blocks where a square is in reach, bound by Weyl's
    inequality the values each sorted curve takes on each cell (see
    ``_reachable_frequencies``); only k whose square lies in one of those
    ranges can resonate.  For each such k, brackets and dips of
    det(A(lambda) - k^2 Id) are array masks over the nodes, and the brackets
    are bisected to |dlambda| <= tol, or to adjacent floats, together: one
    stacked ``det`` per round of guessed and replayed steps (``_bisect``).
    Roots of different frequencies at the same lambda are merged into one
    point.  Endpoints of the interval participate like any other grid node.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    _check_tol(tol)
    nodes = np.linspace(float(lo), float(hi), int(grid) + 1)
    mats = family.eval_many(nodes)
    per_k = [(k, _scan_one_frequency(family, nodes, mats, k, tol))
             for k in _reachable_frequencies(family, nodes, mats, tol)]

    pairs = []
    for k, (roots, warns) in per_k:
        for cls, msg in warns:
            warnings.warn(msg, cls, stacklevel=2)
        pairs.extend((lam, k) for lam in roots)

    merge_tol = 8.0 * tol * (1.0 + max(abs(lo), abs(hi)))
    return [_make_point(family, group, tol) for group in
            _runs(sorted(pairs), lambda run, pair: pair[0] - run[-1][0] <= merge_tol)]


def _kernel_rep(s, freqs):
    """The sum of R[mu(k^2), k] over ``freqs``, mu the multiplicity in s.

    A sign change certifies a crossing even when the bisected lambda leaves
    k^2 just outside the tol band; mu is then the nearest cluster's."""
    return RepDecomposition(
        [(s.multiplicity(k * k) or min(s.eigenvalues, key=lambda vm: abs(vm[0] - k * k))[1], k)
         for k in sorted(freqs)])


def kernel_rep_at_infinity(A, tol=DEFAULT_TOL):
    """ker(Id - L_A) in the loop space: one R[mu_A(k^2), k] block of mode-k
    loops for each k >= 0 with k^2 an eigenvalue of A (within tolerance)."""
    s = eigen_sym(A, tol)
    return _kernel_rep(s, resonant_frequencies(s))


def _make_point(family, group, tol):
    lam0 = float(np.mean([lam for lam, _ in group]))
    s = eigen_sym(family.eval(lam0), tol)
    freqs = set(k for _, k in group) | set(resonant_frequencies(s))
    return ResonancePoint(lam0, _kernel_rep(s, freqs))
