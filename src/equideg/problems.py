"""Built-in example systems and their regression checks.

Three diagonal families with a bounded gravitational-type perturbation,
used throughout the tests and the command line; each example is the
``ProblemConfig`` of its bundled problem file, configs/<name>.cfg:

* example1: n = 4, A = diag(l^2 - 1, sqrt2 + l, l - sqrt2, sqrt5 + l) on
  [-1, 1], perturbation -l^2/sqrt(|x|^2 + 1).  Resonant endpoints (k = 0),
  one interior resonance at l = 1 - sqrt2 with frequency 1.
* example2: n = 4, A = diag(4 + l, 2, 2, 2) on [-1/2, 1/2], perturbation
  -1/sqrt(|x|^2 + 1).  Nonresonant endpoints, single interior resonance
  at l = 0 with frequency 2.
* example3: n = 5, A = diag(4 + l^2/2, l^3 - sqrt10, 9 + l^2/2,
  l^3 + sqrt10, 25 + l^2/2) on [-1, 1], same perturbation.  Resonance at
  l = 0 with frequencies {2, 3, 5} and a second one near l = 0.9427 where
  the fourth entry reaches 4, so the single-resonance criterion does not
  apply and the analysis falls back to the index-based one.

``verification_rows`` packages the headline invariants as named pass/fail
checks for the command line's verify-examples, read off one report per
example.
"""

import math
from importlib import resources

from . import spectral
from .config import ProblemConfig
from .spectral import eigen_sym
from .udring import ZERO


def example1():
    return ProblemConfig.from_file(config_path("example1"))


def example2():
    return ProblemConfig.from_file(config_path("example2"))


def example3():
    return ProblemConfig.from_file(config_path("example3"))


CATALOG = {"example1": example1, "example2": example2, "example3": example3}


def config_path(name):
    """Filesystem path of a bundled .cfg (example1 / example2 / example3)."""
    if name not in CATALOG:
        raise KeyError(f"no bundled config {name!r}; have {sorted(CATALOG)}")
    return resources.files("equideg").joinpath(f"configs/{name}.cfg")


def verification_rows():
    """Named regression checks over the built-in examples.

    Returns a list of (name, thunk); each thunk returns (ok, detail).  The
    criterion, resonance, period and index rows read the report ``analyze``
    prints, one per example, built on first use and kept, so a crash fails
    every row that reads it.  Spectral counts go through the spectral module
    attributes on purpose: tampering with spectral.j_k must flip rows to FAIL.
    """
    rows = []

    def row(name):
        def deco(fn):
            rows.append((name, fn))
            return fn
        return deco

    ex1, ex2, ex3 = cfgs = [make() for make in CATALOG.values()]
    kept = {}  # id(cfg) -> its report or the exception building it raised

    def report(cfg):
        if id(cfg) not in kept:
            try:
                kept[id(cfg)] = cfg.report()
            except Exception as exc:
                kept[id(cfg)] = exc
        if isinstance(outcome := kept[id(cfg)], Exception):
            raise outcome
        return outcome

    def with_periods(ex):
        r = report(ex)
        return list(zip(r.resonances, r.predicted_periods))

    @row("example1: j_1 jumps 1 -> 2 across the interval")
    def _():
        jp = spectral.j_k(ex1.problem().family.eval(1.0), 1)
        jm = spectral.j_k(ex1.problem().family.eval(-1.0), 1)
        return (jp, jm) == (2, 1), f"j_1(+1)={jp}, j_1(-1)={jm}"

    @row("example1: index at infinity is -1 at both endpoints")
    def _():
        v = report(ex1).criterion
        ok = v.name == "eqcont1(ii)" and v.holds and v.witness_k == 1 \
            and v.kset == frozenset()
        return ok, f"verdict {v.name}, witness {v.witness_k}, K={sorted(v.kset)}"

    @row("example1: interior resonance at 1 - sqrt2, period 2pi")
    def _():
        interior = [(pt, ps) for pt, ps in with_periods(ex1) if pt.det_nonzero]
        if len(interior) != 1:
            return False, f"{len(interior)} interior resonances"
        pt, periods = interior[0]
        ok = abs(pt.lambda0 - (1.0 - math.sqrt(2.0))) < 1e-9 \
            and periods.divisors == {1} and not periods.includes_zero
        return ok, f"lambda0={pt.lambda0!r}, periods={periods.labels()}"

    @row("example2: spectrum of A(0) meets the squares exactly in {4}")
    def _():
        met = spectral.resonant_frequencies(
            eigen_sym(ex2.problem().family.eval(0.0)))
        return met == {2}, f"k with k^2 in spectrum: {sorted(met)}"

    @row("example2: j_2 jumps 0 -> 1 and the single-resonance criterion fires")
    def _():
        jp = spectral.j_k(ex2.problem().family.eval(0.5), 2)
        jm = spectral.j_k(ex2.problem().family.eval(-0.5), 2)
        v = report(ex2).criterion
        ok = (jp, jm) == (1, 0) and v.name == "eqcont2(ii)" and v.holds \
            and v.witness_k == 2 and abs(v.lambda0) < 1e-12
        return ok, f"j_2=({jp},{jm}), verdict {v.name} at lambda0={v.lambda0!r}"

    @row("example2: predicted minimal period pi")
    def _():
        pts = with_periods(ex2)
        periods = pts[0][1]
        ok = len(pts) == 1 and periods.divisors == {2} and not periods.includes_zero
        return ok, f"periods={periods.labels()}"

    @row("example3: spectrum of A(0) meets the squares exactly in {4, 9, 25}")
    def _():
        met = spectral.resonant_frequencies(
            eigen_sym(ex3.problem().family.eval(0.0)))
        return met == {2, 3, 5}, f"k with k^2 in spectrum: {sorted(met)}"

    @row("example3: j_2 jumps 3 -> 4 across the interval")
    def _():
        jp = spectral.j_k(ex3.problem().family.eval(1.0), 2)
        jm = spectral.j_k(ex3.problem().family.eval(-1.0), 2)
        return (jp, jm) == (4, 3), f"j_2(+1)={jp}, j_2(-1)={jm}"

    @row("example3: period set at lambda0 = 0 is {2pi, pi, 2pi/3, 2pi/5}")
    def _():
        at0 = [ps for pt, ps in with_periods(ex3) if abs(pt.lambda0) < 1e-9]
        if len(at0) != 1:
            return False, f"{len(at0)} resonances at 0"
        periods = at0[0]
        ok = periods.divisors == {1, 2, 3, 5} and not periods.includes_zero
        return ok, f"periods={periods.labels()}"

    for name, ex in zip(CATALOG, cfgs):
        def check(ex=ex):
            r = report(ex)
            return r.bif != ZERO and r.bif_ls == 0, f"bif={r.bif!r}, bif_ls={r.bif_ls}"
        rows.append((f"{name}: nonzero bifurcation index with zero "
                     "Leray-Schauder shadow", check))

    return rows
