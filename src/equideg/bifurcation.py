"""Bifurcation-from-infinity analysis over a parameter interval.

The central object is the bifurcation index

    Bif(inf, [lm, lp]) = deg(lp) - deg(lm)

in the tom Dieck ring, where deg() is the gradient degree of the
asymptotic linearization at an interval endpoint.  A nonzero index forces
an unbounded connected set of 2pi-periodic solutions to emanate from
infinity inside the interval.

Each endpoint degree is (c, {k: c j_k}), with c = (-1)^{j_0} at a
nonresonant endpoint and the index at infinity at a resonant one; an
``EndpointAnalysis`` fixes both from one eigendecomposition.  With equal
signs Bif lives on the k where j_k jumps, which the two sorted spectra
bracket, and so do the criteria's witnesses.  ``build_report`` derives each
endpoint's resonant set and index, the K-set and the jumps once, and hands
them to ``_bif`` and the criteria.  Three checkable criteria are
implemented:

* criterion 1: endpoints may be resonant, needs the Brouwer index at
  infinity; fires on an index flip or a j_k jump away from the K-set;
* criterion 2: exactly one interior resonance lambda0, nonresonant
  endpoints; fires on a (-1)^{j_0} flip or any j_k jump, and localizes the
  branch at (infinity, lambda0);
* criterion 3: scaled potentials V(x, lambda) = lambda^2 V(x); bifurcation
  points are lambda0 = k/sqrt(alpha) over the positive spectrum, each with
  an explicit Z_k jump.

Reports bundle the index, the fired criterion, resonance points, predicted
minimal periods and isotropy-consistency verdicts; ``to_json`` writes them.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eqdeg import MissingIndexError, degree_of_spectrum, index_of_spectrum
from .reps import SO2, isotropy_gcd_set
from .spectral import (DEFAULT_GRID, DEFAULT_TOL, MatrixFamily, SpectralData,
                       _integers_in, _square_roots_in, eigen_sym, k_set,
                       resonant_frequencies, scan_resonances)
from .udring import TomDieckElement

#: Version of every file format.  Problem files are read; everything else
#: (the report, ``continue`` and ``verify-examples`` JSON, the branch CSV
#: header) is written.
FORMAT_VERSION = 1

#: Most candidate points k/sqrt(alpha) ``eqcont3_points`` enumerates; a
#: wider window raises instead of costing time and memory without bound.
EQCONT3_MAX_POINTS = 10**5


class PreconditionError(ValueError):
    """A theorem's standing hypotheses fail for the given problem."""


class IndexContradictionError(ValueError):
    """A supplied index at infinity differs from the (-1)^{j_0} that the
    spectrum fixes at a nonresonant endpoint."""


class AccumulationWarning(UserWarning):
    """Positive spectrum close to zero: scaled-family bifurcation points
    lambda0 = k/sqrt(alpha) become unreliable."""


def _central_step(x):
    """Central-difference steps cbrt(eps) (1 + |x|) for a smooth gradient."""
    return np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(x))


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Bounded perturbation of the asymptotic quadratic part.

    kind "none":    eta = 0.
    kind "kepler":  eta(x, lambda) = -s(lambda)/sqrt(|x|^2 + a), 0 < a < inf,
                    with s = 1 ("constant", the default) or s = lambda^2
                    ("lambda_squared").
    kind "user":    a caller-supplied gradient, optional potential value;
                    its Hessian and lambda derivative are central
                    differences of the gradient.

    Past |x| of about 1e61, where (|x|^2 + a)^(5/2) overflows, the Kepler
    terms follow the caller's numpy error settings (the solvers raise).
    """

    kind: str
    a: float = None
    scale: str = None
    grad: object = None
    value: object = None

    def __post_init__(self):
        if self.kind not in ("none", "kepler", "user"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "kepler":
            object.__setattr__(self, "a", float(self.a))
            if not 0 < self.a < math.inf:
                raise ValueError("kepler perturbation needs a positive finite a, "
                                 f"got {self.a}")
            if self.scale not in ("constant", "lambda_squared"):
                raise ValueError(f"unknown kepler scale {self.scale!r}")
        if self.kind == "user" and self.grad is None:
            raise ValueError("user perturbation needs a gradient callable")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def kepler(cls, a, scale="constant"):
        return cls("kepler", a=a, scale=scale)

    @classmethod
    def user(cls, grad, value=None):
        return cls("user", grad=grad, value=value)

    def _s(self, lam):
        return 1.0 if self.scale == "constant" else lam * lam

    def _ds(self, lam):
        return 0.0 if self.scale == "constant" else 2.0 * lam

    def gradient_many(self, X, lam):
        """Gradient rows for a stack X of shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros_like(X)
        if self.kind == "kepler":
            r2 = (X * X).sum(axis=1) + self.a
            return self._s(lam) * X / (r2 ** 1.5)[:, None]
        return np.array([np.asarray(self.grad(x, lam), dtype=float) for x in X])

    def gradient_lambda_many(self, X, lam):
        """d/dlambda of the gradient rows."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros_like(X)
        if self.kind == "kepler":
            r2 = (X * X).sum(axis=1) + self.a
            return self._ds(lam) * X / (r2 ** 1.5)[:, None]
        h = _central_step(lam)
        up, down = lam + h, lam - h
        return (self.gradient_many(X, up) - self.gradient_many(X, down)) / (up - down)

    def value_many(self, X, lam):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros(X.shape[0])
        if self.kind == "kepler":
            return -self._s(lam) / np.sqrt((X * X).sum(axis=1) + self.a)
        if self.value is None:
            raise ValueError("user perturbation has no potential value callable")
        return np.array([float(self.value(x, lam)) for x in X])

    def hessian_many(self, X, lam):
        """Hessians H[m, i, j] = d g_i / d x_j of the gradient g at a stack
        X of shape (m, n), shape (m, n, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m, n = X.shape
        if self.kind == "none":
            return np.zeros((m, n, n))
        if self.kind == "kepler":
            r2 = (X * X).sum(axis=1) + self.a
            return self._s(lam) * (
                np.eye(n) / (r2 ** 1.5)[:, None, None]
                - 3.0 * X[:, :, None] * X[:, None, :] / (r2 ** 2.5)[:, None, None])
        H = np.empty((m, n, n))
        for j, h in enumerate(_central_step(X).T):
            up, down = X.copy(), X.copy()
            up[:, j] += h
            down[:, j] -= h
            H[:, :, j] = ((self.gradient_many(up, lam) - self.gradient_many(down, lam))
                          / (up[:, j] - down[:, j])[:, None])
        return H


def _integer_index(v):
    """v as an int; an index that is not an integer (bool included) raises."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"the index at infinity must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True, eq=False)
class IndexRule:
    """How ind(-grad V(., lambda), infinity) is obtained.

    "builtin": closed form for the built-in perturbation class;
    "value": caller-supplied integer (constant or function of lambda),
             where a value that is not an integer raises ValueError;
    "unavailable": criteria needing the index raise.
    """

    kind: str
    _value: object = None

    def __post_init__(self):
        if self.kind not in ("builtin", "value", "unavailable"):
            raise ValueError(f"unknown index rule {self.kind!r}")
        if self.kind == "value" and self._value is None:
            raise ValueError("index rule 'value' needs the value")
        if self.kind == "value" and not callable(self._value):
            _integer_index(self._value)

    @classmethod
    def builtin(cls):
        return cls("builtin")

    @classmethod
    def value(cls, v):
        return cls("value", v)

    @classmethod
    def unavailable(cls):
        return cls("unavailable")

    def ind_of(self, s, lam):
        """The index at lambda, from the spectrum s of A(lambda)."""
        if self.kind == "builtin":
            return index_of_spectrum(s)
        if self.kind == "value":
            v = self._value
            return _integer_index(v(lam) if callable(v) else v)
        raise MissingIndexError(
            "the index at infinity is unavailable for this problem; declare "
            "the built-in class or supply a value")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything the analysis needs about one system u'' = -grad V(u, lambda).

    A None perturbation means Perturbation.none(), a None index rule
    IndexRule.unavailable().
    """

    n: int
    family: MatrixFamily
    perturbation: Perturbation = None
    index_rule: IndexRule = None
    scaled: bool = False

    def __post_init__(self):
        if not isinstance(self.family, MatrixFamily):
            raise TypeError("family must be a MatrixFamily")
        if self.family.n != self.n:
            raise ValueError(f"family is {self.family.n}x{self.family.n}, "
                             f"declared n = {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "perturbation", self.perturbation or Perturbation.none())
        object.__setattr__(self, "index_rule", self.index_rule or IndexRule.unavailable())
        object.__setattr__(self, "scaled", bool(self.scaled))
        c = self.family.coeffs
        if self.scaled and (c.shape[0] != 3 or np.any(c[0]) or np.any(c[1])):
            raise ValueError("scaled problem must have family lambda^2 * A")

    def gradient_many(self, X, lam):
        """grad V(x, lambda) for a stack X of shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.family.eval(lam) + self.perturbation.gradient_many(X, lam)

    def potential_many(self, X, lam):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        A = self.family.eval(lam)
        quad = 0.5 * np.einsum("mi,ij,mj->m", X, A, X)
        return quad + self.perturbation.value_many(X, lam)

    def gradient_lambda_many(self, X, lam):
        """d/dlambda grad V(x, lambda) for a stack X of shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X @ self.family.derivative_array(lam)
                + self.perturbation.gradient_lambda_many(X, lam))

    def hessian_many(self, X, lam):
        """Hessians of V at a stack X of shape (m, n), shape (m, n, n)."""
        A = self.family.eval(lam)
        return A + self.perturbation.hessian_many(X, lam)

    def scaled_base_matrix(self):
        """The constant A with family = lambda^2 A (scaled problems only)."""
        if not self.scaled:
            raise ValueError("not a scaled problem")
        return self.family.coeffs[2]


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of testing one bifurcation criterion."""

    name: str
    holds: bool
    witness_k: object = None
    lambda0: object = None
    kset: object = None
    message: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "holds": self.holds,
            "witness_k": self.witness_k,
            "lambda0": self.lambda0,
            "kset": sorted(self.kset) if self.kset is not None else None,
            "message": self.message,
        }


@dataclass(frozen=True)
class Eqcont3Point:
    """One bifurcation point lambda0 = k0/sqrt(alpha0) of a scaled family.

    bif_zk0: its jump ind * mu_A(alpha0) in the Z_{k0} coordinate.
    """

    lambda0: float
    k0: int
    alpha0: float
    bif_zk0: int

    def to_json(self):
        return {"lambda0": self.lambda0, "k0": self.k0, "alpha0": self.alpha0,
                "bif_zk0": self.bif_zk0}


@dataclass(frozen=True)
class EndpointAnalysis:
    """One interval endpoint from one eigendecomposition of A(lambda): its
    spectrum, resonant k >= 0 and index rule (the built-in rule reads the
    index at infinity off the same spectrum, on first use only)."""

    lam: float
    spectrum: SpectralData
    resonant: frozenset
    index_rule: IndexRule

    @classmethod
    def at(cls, p, lam, tol=DEFAULT_TOL):
        s = eigen_sym(p.family.eval(lam), tol)
        return cls(lam, s, resonant_frequencies(s), p.index_rule)

    @functools.cached_property
    def index(self):
        """The rule's index at infinity; where the endpoint is nonresonant
        it must be the sign, (-1)^{j_0}, or IndexContradictionError."""
        ind = self.index_rule.ind_of(self.spectrum, self.lam)
        if not self.resonant and ind != self.sign:
            raise IndexContradictionError(
                f"the index at infinity {ind} supplied at lambda = {self.lam:g} "
                f"contradicts the spectrum: A({self.lam:g}) is nonresonant, so the "
                f"index is (-1)^j_0 = {self.sign}")
        return ind

    @property
    def sign(self):
        """The SO(2) coordinate c of the endpoint degree: (-1)^{j_0} when
        nonresonant, the index at infinity otherwise."""
        return self.index if self.resonant else (-1) ** int(self.spectrum.counts_above(0))


def _endpoints(p, lm, lp, tol):
    """The two endpoint analyses and ``jumps()``, their j_k jumps, taken on
    the first call only: ``_bif`` and the criteria read the same list.

    A supplied index (``IndexRule.value``) is read at each nonresonant
    endpoint here, so one that contradicts the spectrum raises whichever
    criterion would settle the report.  The built-in rule agrees with the
    spectrum there, and an unavailable one still raises only where read."""
    e_m, e_p = EndpointAnalysis.at(p, lm, tol), EndpointAnalysis.at(p, lp, tol)
    for e in (e_m, e_p):
        if p.index_rule.kind == "value" and not e.resonant:
            e.index  # IndexContradictionError on a contradiction
    return e_m, e_p, functools.cache(lambda: _j_jumps(e_m.spectrum, e_p.spectrum))


def _j_jumps(s_m, s_p):
    """(k, j_k(s_m), j_k(s_p)) for every k >= 1 where the counts differ.

    The i-th sorted eigenvalues a_i, b_i of the two spectra move j_k only for
    k^2 in [min(a_i, b_i), max(a_i, b_i)), so the k with a square in that
    band (``_square_roots_in``) are the candidates.
    """
    a, b = s_m.expanded, s_p.expanded
    first, last = _square_roots_in(np.minimum(a, b), np.maximum(a, b))
    ks = np.array(_integers_in(np.maximum(first, 1.0), last), dtype=np.int64)
    rows = zip(ks.tolist(), s_m.counts_above(ks).tolist(), s_p.counts_above(ks).tolist())
    return [(k, jm, jp) for k, jm, jp in rows if jm != jp]


def _bif(e_m, e_p, jumps):
    """deg(lp) - deg(lm) and its undefined coordinates.  The Z_k coordinate
    c+ j_k(+) - c- j_k(-) vanishes off the j_k jumps when the signs agree;
    otherwise the difference is dense."""
    c_m, c_p = e_m.sign, e_p.sign
    und = (e_m.resonant | e_p.resonant) - {0}
    if c_m != c_p:
        return (degree_of_spectrum(e_p.spectrum, c_p, und)
                - degree_of_spectrum(e_m.spectrum, c_m, und)), und
    zk = {k: c_p * (jp - jm) for k, jm, jp in jumps() if k not in und}
    return TomDieckElement(0, zk), und


def endpoint_degree(p, lam, tol=DEFAULT_TOL):
    """Asymptotic gradient degree at one endpoint.

    Returns (degree, undefined, spectral): for a nonresonant endpoint the
    closed-form deg(Id - L_A) and undefined = {}; for a resonant endpoint
    the index-at-infinity route, whose Z_k coordinates are only defined for
    nonresonant k (the rest are reported in `undefined`).
    """
    e = EndpointAnalysis.at(p, lam, tol)
    und = e.resonant - {0}
    return degree_of_spectrum(e.spectrum, e.sign, und), und, e.spectrum


def bif_index(p, lm, lp, tol=DEFAULT_TOL):
    """Bifurcation index of the interval [lm, lp] in the tom Dieck ring."""
    return _bif(*_endpoints(p, lm, lp, tol))[0]


def check_eqcont1(p, lm, lp, tol=DEFAULT_TOL):
    """Criterion with possibly resonant endpoints.

    (i) the Brouwer index at infinity differs between endpoints, or
    (ii) the common index is nonzero and some frequency k outside the
    K-set has a j_k jump.  The witness is the smallest such k.
    """
    e_m, e_p, jumps = _endpoints(p, lm, lp, tol)
    return _eqcont1_verdict(e_m, e_p, jumps, k_set(e_m.resonant, e_p.resonant))


def _eqcont1_verdict(e_m, e_p, jumps, kset):
    """check_eqcont1 from the two endpoint analyses, their jumps and K-set."""
    ind_m, ind_p = e_m.index, e_p.index
    if ind_p != ind_m:
        return CriterionVerdict(
            "eqcont1(i)", True, kset=kset,
            message=f"index at infinity flips: {ind_m} at {e_m.lam:g}, {ind_p} at "
                    f"{e_p.lam:g}; an unbounded branch bifurcates from infinity in the interval")
    if ind_p != 0:
        for k, jm, jp in jumps():
            if k not in kset:
                return CriterionVerdict(
                    "eqcont1(ii)", True, witness_k=k, kset=kset,
                    message=f"common index {ind_p} and j_{k} jumps {jm} -> {jp} "
                            f"with {k} outside K; an unbounded branch bifurcates")
    return CriterionVerdict("eqcont1", False, kset=kset,
                            message="no index flip and no j_k jump outside K")


def check_eqcont2(p, lm, lp, tol=DEFAULT_TOL, grid=DEFAULT_GRID):
    """Criterion for a single interior resonance with nonresonant endpoints.

    Fires when (-1)^{j_0} flips between the endpoints, or when any j_k
    jumps.  The branch then meets (infinity, lambda0) at the unique
    interior resonance value.
    """
    e_m, e_p, jumps = _endpoints(p, lm, lp, tol)
    return _eqcont2_verdict(e_m, e_p, jumps,
                            scan_resonances(p.family, lm, lp, grid=grid, tol=tol))


def _require_nonresonant_endpoints(e_m, e_p):
    bad = [e.lam for e in (e_m, e_p) if e.resonant]
    if bad:
        raise PreconditionError(
            f"endpoints must be nonresonant, but lambda in {bad} meet {{k^2}}")


def _eqcont2_verdict(e_m, e_p, jumps, points):
    """check_eqcont2 from the two endpoint analyses, their jumps and the
    scanned points."""
    _require_nonresonant_endpoints(e_m, e_p)
    if len(points) != 1:
        lams = [round(pt.lambda0, 9) for pt in points]
        raise PreconditionError(
            "the criterion needs exactly one interior resonance, found "
            f"{len(points)} at lambda in {lams}")
    lam0 = points[0].lambda0
    j0_m, j0_p = int(e_m.spectrum.counts_above(0)), int(e_p.spectrum.counts_above(0))
    if (-1) ** j0_m != (-1) ** j0_p:
        return CriterionVerdict(
            "eqcont2(i)", True, lambda0=lam0,
            message=f"(-1)^j_0 flips ({j0_m} -> {j0_p}); an unbounded branch "
                    f"meets (infinity, lambda0 = {lam0:.9g})")
    if jumps():
        k, jm, jp = jumps()[0]
        return CriterionVerdict(
            "eqcont2(ii)", True, witness_k=k, lambda0=lam0,
            message=f"j_{k} jumps {jm} -> {jp}; an unbounded branch meets "
                    f"(infinity, lambda0 = {lam0:.9g})")
    return CriterionVerdict("eqcont2", False, lambda0=lam0,
                            message="no j_k jump across the resonance")


def eqcont3_points(p, window, tol=DEFAULT_TOL):
    """Bifurcation points of a scaled family V(x, lambda) = lambda^2 V(x).

    Every lambda0 = k/sqrt(alpha) with alpha in the positive spectrum of A
    and lambda0 strictly inside the window is a bifurcation point, with
    Z_{k0} jump ind(-grad V, inf) * mu_A(alpha0): one point per (k, alpha),
    sorted by (lambda0, k), so points of different k at one lambda0 are
    listed apart, each in its own coordinate.  A point at a window end
    makes that end resonant at k, where the interval's index has no defined
    Z_k coordinate to witness it, so it is not counted.
    """
    A = p.scaled_base_matrix()
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"window must sit inside (0, inf), got ({lo}, {hi})")
    s = eigen_sym(A, tol)
    if s.multiplicity(0.0):
        raise PreconditionError(
            "A has an eigenvalue at 0 (at tolerance); the scaled-family "
            "criterion requires det A != 0")
    ind = p.index_rule.ind_of(s, 0.0)
    positive = s.positive_spectrum()
    small = [v for v, _ in positive if v <= 1e6 * s.tol]
    if small:
        warnings.warn(
            f"positive eigenvalues {small} are close to 0; bifurcation points "
            "k/sqrt(alpha) in this window are numerically unreliable",
            AccumulationWarning, stacklevel=2)
    spans = []
    for alpha, mult in positive:
        root = math.sqrt(alpha)
        spans.append((alpha, ind * mult, root,
                      range(max(1, math.floor(lo * root)), math.ceil(hi * root) + 1)))
    count = sum(max(ks.stop - ks.start, 0) for *_, ks in spans)
    if count > EQCONT3_MAX_POINTS:
        raise PreconditionError(
            f"the window holds {count} candidate points k/sqrt(alpha), more than "
            f"{EQCONT3_MAX_POINTS}; narrow the window")
    return [Eqcont3Point(*pt) for pt in sorted(
        (k / root, k, alpha, jump) for alpha, jump, root, ks in spans
        for k in ks if lo < k / root < hi)]


def consistency_check(kernel_at_point, kernel_at_infinity):
    """Isotropy comparison powering the symmetry-breaking conclusion, as the
    report stores it: whether the two kernel representations admit a common
    isotropy label, and the labels.  Where they are not consistent, the
    conclusion applies to branches connecting the two kernels."""
    left = isotropy_gcd_set(kernel_at_point)
    right = isotropy_gcd_set(kernel_at_infinity)

    def enc(labels):
        return sorted(labels, key=lambda x: (isinstance(x, str), x))

    return {"consistent": bool(left & right), "labels_left": enc(left),
            "labels_right": enc(right), "shared": enc(left & right)}


@dataclass(frozen=True, eq=False)
class BifurcationReport:
    """Full analysis of one interval, as ``build_report`` assembles it."""

    interval: tuple
    s_minus: SpectralData
    s_plus: SpectralData
    kset: frozenset
    bif: TomDieckElement
    bif_undefined: frozenset
    criterion: CriterionVerdict
    resonances: list
    eqcont3: list
    consistency: list
    flags: dict

    @property
    def n(self):
        return self.s_minus.n

    @property
    def bif_ls(self):
        """The Leray-Schauder shadow: the SO(2) coordinate of the index."""
        return self.bif.a0

    def to_json(self):
        periods = [(r.lambda0, isotropy_gcd_set(r.kernel_rep)) for r in self.resonances]
        return {
            "format_version": FORMAT_VERSION,
            "interval": list(self.interval),
            "dimension": self.n,
            "endpoint_spectra": {"minus": self.s_minus.to_json(),
                                 "plus": self.s_plus.to_json()},
            "kset": sorted(self.kset),
            "bif": self.bif.to_json(),
            "bif_undefined": sorted(self.bif_undefined),
            "bif_ls": self.bif_ls,
            "criterion": self.criterion.to_json(),
            "resonances": [r.to_json() for r in self.resonances],
            "predicted_periods": [{"lambda0": lam, "divisors": sorted(labels - {SO2}),
                                   "includes_zero": SO2 in labels} for lam, labels in periods],
            "eqcont3": [pt.to_json() for pt in self.eqcont3],
            "consistency": self.consistency,
            "flags": self.flags,
        }


def _applies(criterion):
    """criterion(), or None where the theorem's hypotheses fail: the one
    rule by which the cascade of ``build_report`` falls through.  An input
    error, such as IndexContradictionError, is raised."""
    try:
        return criterion()
    except (MissingIndexError, PreconditionError):
        return None


def build_report(p, lm, lp, tol=DEFAULT_TOL, grid=DEFAULT_GRID,
                 critical_points=None, flags=None):
    """Run the full criterion cascade on [lm, lp] and assemble the report.

    Criteria are tried from most to least informative: the scaled-family
    enumeration (when applicable), then the single-resonance criterion,
    then the resonant-endpoint criterion; the first verdict that holds is
    the report's.  A criterion whose hypotheses fail falls through to the
    next (``_applies``) rather than aborting.
    """
    e_m, e_p, jumps = _endpoints(p, lm, lp, tol)
    bif, und = _bif(e_m, e_p, jumps)
    kset = k_set(e_m.resonant, e_p.resonant)
    resonances = scan_resonances(p.family, lm, lp, grid=grid, tol=tol)

    eq3 = (p.scaled and lm > 0.0 and _applies(lambda: eqcont3_points(p, (lm, lp), tol))) or []
    # the interval's index witnesses a point only at a k where no end is resonant
    eq3 = [pt for pt in eq3 if pt.k0 not in und]
    criteria = (
        lambda: eq3 and CriterionVerdict(
            "eqcont3", True, witness_k=eq3[0].k0, lambda0=eq3[0].lambda0,
            message=f"{len(eq3)} bifurcation point(s) lambda0 = k/sqrt(alpha) "
                    "strictly inside the window, each with a nonzero Z_k jump at "
                    "a k where both ends are nonresonant"),
        lambda: _eqcont2_verdict(e_m, e_p, jumps, resonances),
        lambda: _eqcont1_verdict(e_m, e_p, jumps, kset))
    verdict = next((v for v in map(_applies, criteria) if v and v.holds),
                   CriterionVerdict("none", False, message="no implemented criterion fired"))

    consistency = [{"critical_point": name, "lambda0": r.lambda0,
                    **consistency_check(rep, r.kernel_rep)}
                   for name, rep in (critical_points or {}).items() for r in resonances]

    flags = dict(flags or {})
    if p.perturbation.kind in ("none", "kepler"):
        # bounded zero set of the gradient holds for the built-in class
        flags.setdefault("zero_set_bounded", True)

    report = BifurcationReport(
        (float(lm), float(lp)), e_m.spectrum, e_p.spectrum, kset,
        bif, und, verdict, resonances, eq3, consistency, flags)
    if report.criterion.holds and not report.bif:
        raise AssertionError("criterion fired but the bifurcation index is zero")
    return report
