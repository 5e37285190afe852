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
bracket, and so do the criteria's witnesses.  Three checkable criteria are
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
minimal periods and isotropy-consistency verdicts into one JSON-stable
structure.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eqdeg import MissingIndexError, degree_of_spectrum, index_of_spectrum
from .reps import RepDecomposition, gcd_closure, is_consistent, isotropy_gcd_set
from .spectral import (DEFAULT_GRID, DEFAULT_TOL, MatrixFamily, ResonancePoint,
                       SpectralData, as_symmetric, eigen_sym, k_set,
                       resonant_frequencies, scan_resonances)
from .udring import TomDieckElement

#: Version of every file format written or read: problem files, the report,
#: ``continue`` and ``verify-examples`` JSON, and the branch CSV header.
FORMAT_VERSION = 1


class PreconditionError(ValueError):
    """A theorem's standing hypotheses fail for the given problem."""


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
    kind "kepler":  eta(x, lambda) = -s(lambda)/sqrt(|x|^2 + a), a > 0,
                    with s = 1 ("constant", the default) or s = lambda^2
                    ("lambda_squared").
    kind "user":    a caller-supplied gradient, optional potential value;
                    its Hessian and lambda derivative are central
                    differences of the gradient.
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
            if not self.a > 0:
                raise ValueError(f"kepler perturbation needs a positive a, got {self.a}")
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

    def _kepler_rows(self, X):
        """(Y, r2, e): rows X = 2^e Y exactly, r2 = |Y|^2 + a 4^-e; e = 0
        unless a row exceeds 2^100, so no power of r2 taken below overflows."""
        e = np.maximum(np.frexp(np.abs(X).max(axis=1))[1] - 100, 0)
        Y = np.ldexp(X, -e[:, None])
        return Y, (Y * Y).sum(axis=1) + np.ldexp(self.a, -2 * e), e[:, None]

    def gradient_many(self, X, lam):
        """Gradient rows for a stack X of shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros_like(X)
        if self.kind == "kepler":
            Y, r2, e = self._kepler_rows(X)
            return np.ldexp(self._s(lam) * Y / (r2 ** 1.5)[:, None], -2 * e)
        return np.array([np.asarray(self.grad(x, lam), dtype=float) for x in X])

    def gradient_lambda_many(self, X, lam):
        """d/dlambda of the gradient rows."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros_like(X)
        if self.kind == "kepler":
            Y, r2, e = self._kepler_rows(X)
            return np.ldexp(self._ds(lam) * Y / (r2 ** 1.5)[:, None], -2 * e)
        h = _central_step(lam)
        up, down = lam + h, lam - h
        return (self.gradient_many(X, up) - self.gradient_many(X, down)) / (up - down)

    def value_many(self, X, lam):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "none":
            return np.zeros(X.shape[0])
        if self.kind == "kepler":
            _, r2, e = self._kepler_rows(X)
            return np.ldexp(-self._s(lam) / np.sqrt(r2), -e[:, 0])
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
            Y, r2, e = self._kepler_rows(X)
            return self._s(lam) * np.ldexp(
                np.eye(n) / (r2 ** 1.5)[:, None, None]
                - 3.0 * Y[:, :, None] * Y[:, None, :] / (r2 ** 2.5)[:, None, None],
                -3 * e[:, :, None])
        H = np.empty((m, n, n))
        for j, h in enumerate(_central_step(X).T):
            up, down = X.copy(), X.copy()
            up[:, j] += h
            down[:, j] -= h
            H[:, :, j] = ((self.gradient_many(up, lam) - self.gradient_many(down, lam))
                          / (up[:, j] - down[:, j])[:, None])
        return H

    def hessian(self, x, lam):
        return self.hessian_many(x, lam)[0]

    def to_json(self):
        obj = {"kind": self.kind}
        if self.kind == "kepler":
            obj["a"] = self.a
            obj["scale"] = self.scale
        return obj


@dataclass(frozen=True, eq=False)
class IndexRule:
    """How ind(-grad V(., lambda), infinity) is obtained.

    "builtin": closed form for the built-in perturbation class;
    "value": caller-supplied integer (constant or function of lambda);
    "unavailable": criteria needing the index raise.
    """

    kind: str
    _value: object = None

    def __post_init__(self):
        if self.kind not in ("builtin", "value", "unavailable"):
            raise ValueError(f"unknown index rule {self.kind!r}")
        if self.kind == "value" and self._value is None:
            raise ValueError("index rule 'value' needs the value")

    @classmethod
    def builtin(cls):
        return cls("builtin")

    @classmethod
    def value(cls, v):
        return cls("value", v)

    @classmethod
    def unavailable(cls):
        return cls("unavailable")

    @property
    def available(self):
        return self.kind != "unavailable"

    def ind(self, A, lam, tol=DEFAULT_TOL):
        return self.ind_of(eigen_sym(A, tol), lam)

    def ind_of(self, s, lam):
        """The index at lambda, from the spectrum s of A(lambda)."""
        if self.kind == "builtin":
            return index_of_spectrum(s)
        if self.kind == "value":
            v = self._value
            return int(v(lam)) if callable(v) else int(v)
        raise MissingIndexError(
            "the index at infinity is unavailable for this problem; declare "
            "the built-in class or supply a value")

    def to_json(self):
        obj = {"kind": self.kind}
        if self.kind == "value" and not callable(self._value):
            obj["value"] = int(self._value)
        return obj


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
        A = self.family.eval_array(lam)
        return X @ A + self.perturbation.gradient_many(X, lam)

    def potential_many(self, X, lam):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        A = self.family.eval_array(lam)
        quad = 0.5 * np.einsum("mi,ij,mj->m", X, A, X)
        return quad + self.perturbation.value_many(X, lam)

    def gradient_lambda_many(self, X, lam):
        """d/dlambda grad V(x, lambda) for a stack X of shape (m, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dA = self.family.derivative_array(lam)
        return X @ dA + self.perturbation.gradient_lambda_many(X, lam)

    def hessian_many(self, X, lam):
        """Hessians of V at a stack X of shape (m, n), shape (m, n, n)."""
        A = self.family.eval_array(lam)
        return A + self.perturbation.hessian_many(X, lam)

    def hessian(self, x, lam):
        return self.hessian_many(x, lam)[0]

    def scaled_base_matrix(self):
        """The constant A with family = lambda^2 A (scaled problems only)."""
        if not self.scaled:
            raise ValueError("not a scaled problem")
        return as_symmetric(self.family.coeffs[2])


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

    @classmethod
    def from_json(cls, obj):
        kset = obj.get("kset")
        return cls(obj["name"], bool(obj["holds"]), obj.get("witness_k"),
                   obj.get("lambda0"),
                   frozenset(kset) if kset is not None else None,
                   obj.get("message", ""))


@dataclass(frozen=True)
class PeriodSet:
    """Exact set of predicted minimal periods: 2pi/g per divisor g, plus 0
    for constant solutions when the kernel has a trivial summand."""

    divisors: frozenset
    includes_zero: bool = False

    def __post_init__(self):
        for g in self.divisors:
            if not isinstance(g, int) or g < 1:
                raise ValueError(f"period divisor must be a positive integer, got {g!r}")

    def as_floats(self):
        out = [2.0 * math.pi / g for g in sorted(self.divisors)]
        if self.includes_zero:
            out.append(0.0)
        return out

    def labels(self):
        out = []
        for g in sorted(self.divisors):
            out.append("2pi" if g == 1 else ("pi" if g == 2 else f"2pi/{g}"))
        if self.includes_zero:
            out.append("0")
        return out

    def to_json(self):
        return {"divisors": sorted(self.divisors), "includes_zero": self.includes_zero}

    @classmethod
    def from_json(cls, obj):
        return cls(frozenset(int(g) for g in obj["divisors"]), bool(obj["includes_zero"]))


@dataclass(frozen=True)
class Eqcont3Point:
    """One bifurcation point of a scaled family.

    pairs: the (k0, alpha0) combinations producing this lambda0; more than
    one pair means coincident points merged, flagged for review because the
    per-point jump formula assumes a singleton.
    bif_zk0: total Z_{k0} jump, ind * mu_A(alpha0) summed over pairs.
    """

    lambda0: float
    pairs: tuple
    bif_zk0: int

    @property
    def k0(self):
        return self.pairs[0][0]

    @property
    def alpha0(self):
        return self.pairs[0][1]

    @property
    def merged(self):
        return len(self.pairs) > 1

    def to_json(self):
        return {"lambda0": self.lambda0,
                "pairs": [[k, a] for k, a in self.pairs],
                "bif_zk0": self.bif_zk0,
                "merged": self.merged}

    @classmethod
    def from_json(cls, obj):
        return cls(float(obj["lambda0"]),
                   tuple((int(k), float(a)) for k, a in obj["pairs"]),
                   int(obj["bif_zk0"]))


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Whether two kernel representations admit a common isotropy label.

    hypothesis_holds means "not consistent": the symmetry-breaking
    conclusion applies to branches connecting the two kernels.
    """

    consistent: bool
    labels_left: frozenset
    labels_right: frozenset
    shared: frozenset

    @property
    def hypothesis_holds(self):
        return not self.consistent

    def to_json(self):
        def enc(labels):
            return sorted(labels, key=lambda x: (isinstance(x, str), x))

        return {"consistent": self.consistent,
                "labels_left": enc(self.labels_left),
                "labels_right": enc(self.labels_right),
                "shared": enc(self.shared)}


@dataclass(frozen=True)
class EndpointAnalysis:
    """One interval endpoint from one eigendecomposition of A(lambda): its
    spectrum, resonant k >= 0 and index rule (the built-in rule reads the
    index at infinity off the same spectrum)."""

    lam: float
    spectrum: SpectralData
    resonant: frozenset
    index_rule: IndexRule

    @classmethod
    def at(cls, p, lam, tol=DEFAULT_TOL):
        s = eigen_sym(p.family.eval(lam), tol)
        return cls(lam, s, resonant_frequencies(s), p.index_rule)

    @property
    def index(self):
        return self.index_rule.ind_of(self.spectrum, self.lam)

    @property
    def sign(self):
        """The SO(2) coordinate c of the endpoint degree: (-1)^{j_0} when
        nonresonant, the index at infinity otherwise."""
        return self.index if self.resonant else (-1) ** int(self.spectrum.counts_above(0))


def _endpoints(p, lm, lp, tol):
    return EndpointAnalysis.at(p, lm, tol), EndpointAnalysis.at(p, lp, tol)


def _j_jumps(s_m, s_p):
    """(k, j_k(s_m), j_k(s_p)) for every k >= 1 where the counts differ.

    The i-th sorted eigenvalues a_i, b_i of the two spectra move j_k only for
    k^2 in [min(a_i, b_i), max(a_i, b_i)); sqrt is correctly rounded and
    monotone, so the floors of the square roots of the ends bracket those k.
    """
    a, b = s_m.expanded(), s_p.expanded()
    lo, hi = (np.floor(np.sqrt(np.maximum(f(a, b), 0.0))).astype(np.int64).tolist()
              for f in (np.minimum, np.maximum))
    ks = np.array(sorted({k for l, h in zip(lo, hi) for k in range(max(l, 1), h + 1)}),
                  dtype=np.int64)
    rows = zip(ks.tolist(), s_m.counts_above(ks).tolist(), s_p.counts_above(ks).tolist())
    return [(k, jm, jp) for k, jm, jp in rows if jm != jp]


def _bif(e_m, e_p):
    """deg(lp) - deg(lm) and its undefined coordinates.  The Z_k coordinate
    c+ j_k(+) - c- j_k(-) vanishes off the j_k jumps when the signs agree;
    otherwise the difference is dense."""
    c_m, c_p = e_m.sign, e_p.sign
    und = (e_m.resonant | e_p.resonant) - {0}
    if c_m != c_p:
        return (degree_of_spectrum(e_p.spectrum, c_p, und)
                - degree_of_spectrum(e_m.spectrum, c_m, und)), und
    zk = {k: c_p * (jp - jm) for k, jm, jp in _j_jumps(e_m.spectrum, e_p.spectrum)
          if k not in und}
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


def bif_index_detailed(p, lm, lp, tol=DEFAULT_TOL):
    """(bif, undefined coordinates, spectra at both endpoints)."""
    e_m, e_p = _endpoints(p, lm, lp, tol)
    return (*_bif(e_m, e_p), e_m.spectrum, e_p.spectrum)


def bif_index(p, lm, lp, tol=DEFAULT_TOL):
    """Bifurcation index of the interval [lm, lp] in the tom Dieck ring."""
    return bif_index_detailed(p, lm, lp, tol)[0]


def bif_index_ls(p, lm, lp, tol=DEFAULT_TOL):
    """Leray-Schauder shadow: the SO(2)-coordinate of the bifurcation index."""
    return bif_index(p, lm, lp, tol).a0


def check_eqcont1(p, lm, lp, tol=DEFAULT_TOL):
    """Criterion with possibly resonant endpoints.

    (i) the Brouwer index at infinity differs between endpoints, or
    (ii) the common index is nonzero and some frequency k outside the
    K-set has a j_k jump.  The witness is the smallest such k.
    """
    return _eqcont1_verdict(*_endpoints(p, lm, lp, tol))


def _eqcont1_verdict(e_m, e_p):
    """check_eqcont1 from the two endpoint analyses."""
    ind_m, ind_p = e_m.index, e_p.index
    kset = k_set(e_m.spectrum, e_p.spectrum)
    if ind_p != ind_m:
        return CriterionVerdict(
            "eqcont1(i)", True, kset=kset,
            message=f"index at infinity flips: {ind_m} at {e_m.lam:g}, {ind_p} at "
                    f"{e_p.lam:g}; an unbounded branch bifurcates from infinity in the interval")
    if ind_p != 0:
        for k, jm, jp in _j_jumps(e_m.spectrum, e_p.spectrum):
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
    e_m, e_p = _endpoints(p, lm, lp, tol)
    _require_nonresonant_endpoints(e_m, e_p)
    return _eqcont2_verdict(e_m, e_p, scan_resonances(p.family, lm, lp, grid=grid, tol=tol))


def _require_nonresonant_endpoints(e_m, e_p):
    bad = [e.lam for e in (e_m, e_p) if e.resonant]
    if bad:
        raise PreconditionError(
            f"endpoints must be nonresonant, but lambda in {bad} meet {{k^2}}")


def _eqcont2_verdict(e_m, e_p, points):
    """check_eqcont2 from the two endpoint analyses and the scanned points."""
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
    jumps = _j_jumps(e_m.spectrum, e_p.spectrum)
    if jumps:
        k, jm, jp = jumps[0]
        return CriterionVerdict(
            "eqcont2(ii)", True, witness_k=k, lambda0=lam0,
            message=f"j_{k} jumps {jm} -> {jp}; an unbounded branch meets "
                    f"(infinity, lambda0 = {lam0:.9g})")
    return CriterionVerdict("eqcont2", False, lambda0=lam0,
                            message="no j_k jump across the resonance")


def eqcont3_points(p, window, tol=DEFAULT_TOL):
    """Bifurcation points of a scaled family V(x, lambda) = lambda^2 V(x).

    Every lambda0 = k/sqrt(alpha) with alpha in the positive spectrum of A
    and lambda0 inside the window is a bifurcation point, with Z_{k0} jump
    ind(-grad V, inf) * mu_A(alpha0).  Jumps all carry the sign of the
    index, so distinct contributions can never cancel.
    """
    A = p.scaled_base_matrix()
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"window must sit inside (0, inf), got ({lo}, {hi})")
    s = eigen_sym(A, tol)
    if any(abs(v) <= s.tol for v, _ in s.eigenvalues):
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
    found = []
    for alpha, mult in positive:
        root = math.sqrt(alpha)
        for k in range(max(1, math.floor(lo * root)), math.ceil(hi * root) + 1):
            lam0 = k / root
            if lo <= lam0 <= hi:
                found.append((lam0, k, alpha, ind * mult))
    found.sort()
    out = []
    i = 0
    while i < len(found):
        lam0, k, alpha, jump = found[i]
        pairs, total = [(k, alpha)], jump
        j = i + 1
        while j < len(found) and found[j][0] - lam0 <= tol * (1.0 + lam0):
            pairs.append((found[j][1], found[j][2]))
            total += found[j][3]
            j += 1
        out.append(Eqcont3Point(lam0, tuple(pairs), total))
        i = j
    return out


def predict_periods(r):
    """Minimal periods forced by a resonance point's kernel frequencies.

    2pi/g for every g in the gcd-closure of the nonzero frequencies; 0 is
    possible exactly when the frequency 0 participates (constant solutions
    in ker A(lambda0)).
    """
    nonzero = frozenset(k for k in r.frequencies if k >= 1)
    return PeriodSet(gcd_closure(nonzero), includes_zero=(0 in r.frequencies))


def consistency_check(kernel_at_point, kernel_at_infinity):
    """Isotropy comparison powering the symmetry-breaking conclusion."""
    left = isotropy_gcd_set(kernel_at_point)
    right = isotropy_gcd_set(kernel_at_infinity)
    return ConsistencyVerdict(bool(left & right), left, right, left & right)


@dataclass(frozen=True, eq=False)
class BifurcationReport:
    """Full analysis of one interval, JSON-stable; equal when the JSON is."""

    interval: tuple
    n: int
    s_minus: SpectralData
    s_plus: SpectralData
    kset: frozenset
    bif: TomDieckElement
    bif_undefined: frozenset
    bif_ls: int
    criterion: CriterionVerdict
    resonances: list
    predicted_periods: list
    eqcont3: list = ()
    consistency: list = ()
    flags: dict = None

    def __post_init__(self):
        for name, norm in (("interval", lambda x: (float(x[0]), float(x[1]))),
                           ("n", int), ("kset", frozenset), ("bif_undefined", frozenset),
                           ("bif_ls", int), ("resonances", list), ("predicted_periods", list),
                           ("eqcont3", list), ("consistency", list),
                           ("flags", lambda f: dict(f or {}))):
            object.__setattr__(self, name, norm(getattr(self, name)))

    def to_json(self):
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
            "predicted_periods": [
                {"lambda0": r.lambda0, **ps.to_json()}
                for r, ps in zip(self.resonances, self.predicted_periods)],
            "eqcont3": [pt.to_json() for pt in self.eqcont3],
            "consistency": list(self.consistency),
            "flags": self.flags,
        }

    @classmethod
    def from_json(cls, obj):
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {obj.get('format_version')!r}")
        return cls(
            tuple(obj["interval"]), obj["dimension"],
            SpectralData.from_json(obj["endpoint_spectra"]["minus"]),
            SpectralData.from_json(obj["endpoint_spectra"]["plus"]),
            frozenset(obj["kset"]),
            TomDieckElement.from_json(obj["bif"]),
            frozenset(obj["bif_undefined"]), obj["bif_ls"],
            CriterionVerdict.from_json(obj["criterion"]),
            [ResonancePoint.from_json(r) for r in obj["resonances"]],
            [PeriodSet.from_json(pp) for pp in obj["predicted_periods"]],
            [Eqcont3Point.from_json(pt) for pt in obj["eqcont3"]],
            obj["consistency"], obj["flags"])

    def __eq__(self, other):
        if not isinstance(other, BifurcationReport):
            return NotImplemented
        return self.to_json() == other.to_json()


def build_report(p, lm, lp, tol=DEFAULT_TOL, grid=DEFAULT_GRID,
                 critical_points=None, flags=None):
    """Run the full criterion cascade on [lm, lp] and assemble the report.

    Criteria are tried from most to least informative: the scaled-family
    enumeration (when applicable), then the single-resonance criterion,
    then the resonant-endpoint criterion.  Precondition failures fall
    through to the next criterion rather than aborting.
    """
    e_m, e_p = _endpoints(p, lm, lp, tol)
    bif, und = _bif(e_m, e_p)
    resonances = scan_resonances(p.family, lm, lp, grid=grid, tol=tol)
    periods = [predict_periods(r) for r in resonances]

    eq3 = []
    verdict = None
    if p.scaled and lm > 0.0:
        try:
            eq3 = eqcont3_points(p, (lm, lp), tol)
        except (MissingIndexError, PreconditionError):
            eq3 = []
        if eq3:
            first = eq3[0]
            verdict = CriterionVerdict(
                "eqcont3", True, witness_k=first.k0, lambda0=first.lambda0,
                message=f"{len(eq3)} bifurcation point(s) lambda0 = k/sqrt(alpha) "
                        "in the window, each with a nonzero Z_k jump")
    if verdict is None:
        try:
            _require_nonresonant_endpoints(e_m, e_p)
            v = _eqcont2_verdict(e_m, e_p, resonances)
            if v.holds:
                verdict = v
        except PreconditionError:
            pass
    if verdict is None:
        try:
            v = _eqcont1_verdict(e_m, e_p)
            if v.holds:
                verdict = v
        except MissingIndexError:
            pass
    if verdict is None:
        verdict = CriterionVerdict("none", False,
                                   message="no implemented criterion fired")

    consistency = []
    for name, rep in (critical_points or {}).items():
        for r in resonances:
            cv = consistency_check(rep, r.kernel_rep)
            consistency.append({"critical_point": name, "lambda0": r.lambda0,
                                **cv.to_json()})

    flags = dict(flags or {})
    if p.perturbation.kind in ("none", "kepler"):
        # bounded zero set of the gradient holds for the built-in class
        flags.setdefault("zero_set_bounded", True)

    report = BifurcationReport(
        (lm, lp), p.n, e_m.spectrum, e_p.spectrum, k_set(e_m.spectrum, e_p.spectrum),
        bif, und, bif.a0, verdict,
        resonances, periods, eq3, consistency, flags)
    if report.criterion.holds and not report.bif:
        raise AssertionError("criterion fired but the bifurcation index is zero")
    return report
