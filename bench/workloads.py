"""Seeded inputs, jobs and closed-form references for the four workloads.

Nothing here imports equideg at module level: the harness re-imports the
package during set-up and hands the fresh package object to
``make_jobs``.  Every job looks its entry point up on that object at call
time, so wrappers installed by the traced run are seen.

The references never call equideg.  Bundled expectations are the published
invariants (README and the docstrings of ``equideg.problems``); synthetic
expectations follow in closed form from the diagonal polynomials p_i.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

SQRT2, SQRT5, SQRT10 = math.sqrt(2.0), math.sqrt(5.0), math.sqrt(10.0)
LO, HI = -0.5, 0.5
GRID = 512                      # build_report's default grid
LADDER = (4, 16, 64)
BRANCH_MODES = 32
BRANCH_TOL = 1e-10              # ContinuationOptions.tol, used by `continue`
LAMBDA_ATOL = 1e-8              # bisection stops at 1e-9; leave room for roundoff

WORKLOADS = ("bundled", "dense", "stiff", "branch")

# Published invariants of the bundled configs: resonances as
# (lambda0, frequencies, period divisors, constant solutions possible),
# the fired criterion and its witness.
PUBLISHED = {
    "example1": {
        "criterion": ("eqcont1(ii)", 1),
        "resonances": [(-1.0, {0}, set(), True),
                       (1.0 - SQRT2, {1}, {1}, False),
                       (1.0, {0}, set(), True)],
    },
    "example2": {
        "criterion": ("eqcont2(ii)", 2),
        "resonances": [(0.0, {2}, {2}, False)],
    },
    "example3": {
        "criterion": ("eqcont1(ii)", 2),
        "resonances": [(0.0, {2, 3, 5}, {1, 2, 3, 5}, False),
                       ((4.0 - SQRT10) ** (1.0 / 3.0), {2}, {2}, False)],
    },
}

# The bundled systems in closed form: diagonal entries as {power: coeff},
# Kepler perturbation -s(lambda)/sqrt(|x|^2 + 1).
EXAMPLE_DIAGONALS = {
    "example1": ([{2: 1.0, 0: -1.0}, {1: 1.0, 0: SQRT2}, {1: 1.0, 0: -SQRT2},
                  {1: 1.0, 0: SQRT5}], "lambda_squared"),
    "example2": ([{0: 4.0, 1: 1.0}, {0: 2.0}, {0: 2.0}, {0: 2.0}], "constant"),
    "example3": ([{0: 4.0, 2: 0.5}, {3: 1.0, 0: -SQRT10}, {0: 9.0, 2: 0.5},
                  {3: 1.0, 0: SQRT10}, {0: 25.0, 2: 0.5}], "constant"),
}

# One `continue` job per scanned resonance with a positive frequency whose
# branch converges when the benchmark was added: (config, lambda0, continued
# frequency k0, predicted period divisors).
BRANCH_JOBS = [("example2", 0.0, 2, {2}),
               ("example1", 1.0 - SQRT2, 1, {1}),
               ("example3", (4.0 - SQRT10) ** (1.0 / 3.0), 2, {2})]
# Example 3 at lambda0 = 0 (frequencies {2, 3, 5}) fails at its first
# amplitude when the benchmark was added; it runs once per run as a probe.
BRANCH_PROBE = ("example3", 0.0, 2, {1, 2, 3, 5})

STIFF_POWERS = (4, 5, 6)
DENSE_SIZES = (16, 16, 16, 16)          # one cycle
DENSE_CROSSINGS = {16: 13, 64: 47}
# At n = 64 several curves cross each square, det(A - k^2 I) becomes a
# product of several small factors, and the determinant scan accepts a
# grid node as a root up to half a cell from the true crossing for a few
# seeds in a hundred.  That size runs as the dense probe.
PROBE_N = 64


# ---------------------------------------------------------------- families

@dataclass
class DiagonalFamily:
    """A(lambda) = Q diag(p_i(lambda)) Q^T with p_i = c_i + b_i l + a_i l^2.

    ``label`` names the job.
    """

    label: str
    poly: np.ndarray            # (n, 3): c, b, a
    Q: np.ndarray

    @property
    def n(self):
        return self.poly.shape[0]

    def coeffs(self):
        """Coefficient stack (3, n, n) for equideg.MatrixFamily."""
        return np.einsum("ij,pj,kj->pik", self.Q, self.poly.T, self.Q)

    def diag_at(self, lam):
        c, b, a = self.poly.T
        return c + b * lam + a * lam * lam

    def crossings(self):
        """Sorted (lambda, k) for every root of p_i(lambda) = k^2 in
        [LO, HI], from the quadratic formula."""
        out = []
        for c, b, a in self.poly:
            ends = [LO, HI] + ([-b / (2.0 * a)] if a and LO < -b / (2.0 * a) < HI else [])
            vals = [c + b * x + a * x * x for x in ends]
            for k in range(math.isqrt(int(max(min(vals), 0.0))),
                           math.isqrt(int(max(max(vals), 0.0))) + 2):
                roots = np.roots([a, b, c - k * k]) if a else [-(c - k * k) / b]
                out += [(float(r.real), k) for r in np.atleast_1d(roots)
                        if r.imag == 0.0 and LO <= r.real <= HI]
        return sorted(out)


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _gap(j):
    """Open interval between consecutive squares: gap 0 is (-10, 0),
    gap j >= 1 is ((j-1)^2, j^2)."""
    return (-10.0, 0.0) if j == 0 else (float((j - 1) ** 2), float(j * j))


def _inside(rng, j, lo_frac, hi_frac):
    lo, hi = _gap(j)
    return lo + (hi - lo) * rng.uniform(lo_frac, hi_frac)


def _flat_poly(rng, j):
    """Quadratic that stays in the middle 65% of gap j on [LO, HI]."""
    lo, hi = _gap(j)
    va, vb = _inside(rng, j, 0.2, 0.8), _inside(rng, j, 0.2, 0.8)
    a = rng.uniform(-0.1, 0.1) * (hi - lo)
    return _through(va, vb, a)


def _through(va, vb, a):
    """c, b, a of the quadratic with p(LO) = va, p(HI) = vb, l^2 coeff a."""
    b = (vb - va) / (HI - LO)
    c = 0.5 * (va + vb) - a * 0.25
    return np.array([c, b, a])


def _resolved(crossings, lam, k):
    """A new crossing keeps every pair apart: 1e-4 in lambda, and two grid
    cells for the same frequency, so each one is a separate sign change."""
    cell = (HI - LO) / GRID
    return all(abs(lam - l2) >= (2.0 * cell if k == k2 else 1e-4)
               for l2, k2 in crossings)


def dense_family(rng, n, n_cross, label):
    """n eigenvalue curves over about [-10, 100]: n_cross of them cross one
    square k^2 monotonically and stay inside the two gaps beside it, the
    frequencies k = 0..9 taking turns; the others stay inside a gap, and
    one sits between 100 and 121 so k_max is the same for every seed."""
    poly = np.empty((n, 3))
    crossings = []
    poly[0] = _flat_poly(rng, 11)
    ks = rng.permutation([j % 10 for j in range(n_cross)])
    for i in range(1, n):
        if i > n_cross:
            poly[i] = _flat_poly(rng, int(rng.integers(0, 11)))
            continue
        k = int(ks[i - 1])
        while True:
            lam = rng.uniform(LO + 0.05, HI - 0.05)
            if _resolved(crossings, lam, k):
                break
        width = min(np.diff(_gap(k))[0], np.diff(_gap(k + 1))[0])
        slope = rng.uniform(0.2, 0.5) * width * rng.choice((-1.0, 1.0))
        a = rng.uniform(-0.5, 0.5) * abs(slope)
        # p(l) = k^2 + slope (l - lam) + a (l - lam)^2 is monotone on
        # [LO, HI] (|2 a (l - lam)| < |slope|) and moves less than 0.7 width
        # from k^2, so it meets no other square
        poly[i] = [k * k - slope * lam + a * lam * lam, slope - 2.0 * a * lam, a]
        crossings.append((lam, k))
    order = rng.permutation(n)
    return DiagonalFamily(label, poly[order], _rotation(rng, n))


def stiff_family(rng, power, label):
    """n = 4: one eigenvalue m^2 + (lambda - delta) with m^2 the square
    nearest 10^power, crossing it at lambda = delta; three flat ones."""
    m = round(10.0 ** (power / 2.0))
    delta = rng.uniform(-0.3, 0.3)
    poly = np.empty((4, 3))
    poly[0] = [m * m - delta, 1.0, 0.0]
    for i in range(1, 4):
        poly[i] = _flat_poly(rng, int(rng.integers(0, 11)))
    order = rng.permutation(4)
    return DiagonalFamily(label, poly[order], _rotation(rng, 4))


# ----------------------------------------------------------- expectations

def j_k(values, k):
    return int(np.sum(np.asarray(values) > k * k))


def expected_report(fam):
    """Closed-form report facts of a DiagonalFamily on [LO, HI] with the
    built-in Kepler perturbation (index at infinity (-1)^(n - m))."""
    vm, vp = fam.diag_at(LO), fam.diag_at(HI)
    top = max(vm.max(), vp.max())
    kmax = math.isqrt(int(max(top, 0.0))) + 1
    jm = [j_k(vm, k) for k in range(kmax + 1)]
    jp = [j_k(vp, k) for k in range(kmax + 1)]
    am, ap = (-1) ** jm[0], (-1) ** jp[0]
    zk = {str(k): ap * jp[k] - am * jm[k] for k in range(1, kmax + 1)
          if ap * jp[k] != am * jm[k]}
    crossings = fam.crossings()
    ind_m = (-1) ** (fam.n - int(np.sum(vm < 0)))
    ind_p = (-1) ** (fam.n - int(np.sum(vp < 0)))
    witness = next((k for k in range(1, kmax + 1) if jm[k] != jp[k]), None)
    # build_report's cascade: eqcont2 needs exactly one interior resonance
    # (endpoints are nonresonant by construction), then eqcont1
    if len(crossings) == 1 and jm[0] % 2 != jp[0] % 2:
        criterion = ("eqcont2(i)", None)
    elif len(crossings) == 1 and witness:
        criterion = ("eqcont2(ii)", witness)
    elif ind_m != ind_p:
        criterion = ("eqcont1(i)", None)
    else:
        criterion = ("eqcont1(ii)", witness) if witness else ("none", None)
    return {
        "spectra": (np.sort(vm), np.sort(vp)),
        "bif": {"so2": ap - am, "zk": zk},
        "criterion": criterion,
        "resonances": [(lam, {k}, {k} if k else set(), k == 0)
                       for lam, k in crossings],
    }


# ------------------------------------------------------------------ checks

def check_resonances(got, want):
    """Mismatches between a report's resonances/predicted_periods and the
    expected (lambda0, frequencies, divisors, includes_zero) list."""
    bad = []
    res, periods = got["resonances"], got["predicted_periods"]
    if len(res) != len(want):
        return [f"{len(res)} resonances, expected {len(want)}"]
    for r, pp, (lam, freqs, divisors, zero) in zip(res, periods, want):
        if abs(r["lambda0"] - lam) > LAMBDA_ATOL:
            bad.append(f"resonance at {r['lambda0']!r}, expected {lam!r}")
        if set(r["frequencies"]) != freqs:
            bad.append(f"frequencies {r['frequencies']} at {lam:.9g}, expected {sorted(freqs)}")
        if set(pp["divisors"]) != divisors or pp["includes_zero"] != zero:
            bad.append(f"periods {pp['divisors']}/{pp['includes_zero']} at {lam:.9g}, "
                       f"expected {sorted(divisors)}/{zero}")
    return bad


def check_criterion(got, want):
    name, witness = want
    c = got["criterion"]
    if c["name"] != name or c["witness_k"] != witness or c["holds"] != (name != "none"):
        return [f"criterion {c['name']}/{c['witness_k']}, expected {name}/{witness}"]
    return []


def check_bundled(name, exit_code, report):
    want = PUBLISHED[name]
    bad = [] if exit_code == 0 else [f"exit code {exit_code}"]
    bad += check_criterion(report, want["criterion"])
    bad += check_resonances(report, want["resonances"])
    bif = report["bif"]
    if report["bif_ls"] != 0 or not (bif["so2"] or any(bif["zk"].values())):
        bad.append(f"bif {bif} / shadow {report['bif_ls']}: expected nonzero "
                   "index with zero Leray-Schauder shadow")
    return bad


def check_synthetic(fam, report):
    want = expected_report(fam)
    bad = check_criterion(report, want["criterion"])
    bad += check_resonances(report, want["resonances"])
    if report["bif"] != want["bif"]:
        bad.append(f"bif {report['bif']}, expected {want['bif']}")
    for side, ref in zip(("minus", "plus"), want["spectra"]):
        spec = report["endpoint_spectra"][side]
        vals = np.repeat([v for v, _ in spec["eigenvalues"]],
                         [m for _, m in spec["eigenvalues"]])
        scale = 1e-9 * (1.0 + np.abs(ref).max())
        if vals.shape != ref.shape or np.abs(vals - ref).max() > scale:
            bad.append(f"{side} endpoint spectrum differs from p_i(endpoint)")
    return bad


def _poly_at(terms, lam):
    return sum(c * lam ** p for p, c in terms.items())


def collocation_residual(config, row, modes):
    """Max |residual| of one CSV branch row, from the closed-form system.

    Trig sums on the 4N+1 collocation nodes; the amplitude pin is left to
    the caller.  Independent of equideg.galerkin.
    """
    diag, scale = EXAMPLE_DIAGONALS[config]
    n = len(diag)
    lam = row["lambda"]
    a0 = np.array([row[f"a0_{i + 1}"] for i in range(n)])
    acos = np.array([[row[f"cos{k}_{i + 1}"] for i in range(n)] for k in range(1, modes + 1)])
    asin = np.array([[row[f"sin{k}_{i + 1}"] for i in range(n)] for k in range(1, modes + 1)])
    M = 4 * modes + 1
    t = 2.0 * math.pi * np.arange(M) / M
    k = np.arange(1, modes + 1)
    C, S = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
    u = a0 + C @ acos + S @ asin
    A = np.array([_poly_at(d, lam) for d in diag])
    s = 1.0 if scale == "constant" else lam * lam
    g = u * A + s * u / ((u * u).sum(axis=1, keepdims=True) + 1.0) ** 1.5
    r0 = g.mean(axis=0)
    rc = -(k * k)[:, None] * acos + 2.0 / M * C.T @ g
    rs = -(k * k)[:, None] * asin + 2.0 / M * S.T @ g
    return float(max(np.abs(r0).max(), np.abs(rc).max(), np.abs(rs).max())), acos, asin


def period_divisor(acos, asin, rel=1e-6):
    """gcd of the modes carrying more than rel of the coefficient energy."""
    energy = (acos ** 2).sum(axis=1) + (asin ** 2).sum(axis=1)
    total = energy.sum()
    active = [k + 1 for k, e in enumerate(energy) if total > 0 and e > rel * total]
    return math.gcd(*active) if active else 0


def check_branch(spec, summary, rows):
    """(amplitudes converged with correct output, mismatches) for one
    `continue` output; points after a truncation count as not converged."""
    config, lam0, k0, divisors = spec
    bad = []
    if abs(summary["lambda0"] - lam0) > LAMBDA_ATOL:
        return 0, [f"continued from {summary['lambda0']!r}, expected {lam0!r}"]
    good = 0
    for pt, row, R in zip(summary["points"], rows, LADDER):
        if pt["failed"]:
            break
        where = f"{config}@{lam0:.6g} amplitude {R}"
        resid, acos, asin = collocation_residual(config, row, BRANCH_MODES)
        pin = abs(math.hypot(np.linalg.norm(acos[k0 - 1]),
                             np.linalg.norm(asin[k0 - 1])) - R)
        g = period_divisor(acos, asin)
        if pt["amplitude"] != R or row["amplitude"] != R:
            bad.append(f"{where}: amplitude {pt['amplitude']}")
        elif pt["residual_norm"] > BRANCH_TOL or max(resid, pin) > 10.0 * BRANCH_TOL:
            bad.append(f"{where}: residual {pt['residual_norm']:.3g}, "
                       f"recomputed {resid:.3g}, pin {pin:.3g}")
        elif g not in divisors or pt["min_period_divisor"] != g:
            bad.append(f"{where}: period divisor {pt['min_period_divisor']} "
                       f"(recomputed {g}), predicted {sorted(divisors)}")
        else:
            good += 1
    return good, bad


# -------------------------------------------------------------------- jobs

@dataclass
class Job:
    """One closed-loop request.  ``run`` is timed; ``check`` turns its
    output into (operations attempted, operations failed, mismatches)."""

    name: str
    run: object
    check: object
    ops: int = 1


def _captured(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _bundled_job(eq, config):
    path = str(eq.config_path(config))

    def run():
        return _captured(eq.cli.main, ["analyze", path, "--json"])

    def check(out):
        code, text = out
        try:
            bad = check_bundled(config, code, json.loads(text))
        except (ValueError, KeyError) as exc:
            bad = [f"unreadable report: {exc!r}"]
        return 1, int(bool(bad)), bad

    return Job(config, run, check)


def _synthetic_job(eq, fam):
    coeffs = fam.coeffs()

    def run():
        p = eq.ProblemSpec(fam.n, eq.MatrixFamily(coeffs),
                           eq.Perturbation.kepler(1.0, "constant"),
                           eq.IndexRule.builtin())
        return eq.build_report(p, LO, HI).to_json()

    def check(report):
        bad = check_synthetic(fam, report)
        return 1, int(bool(bad)), bad

    return Job(fam.label, run, check)


def branch_job(eq, spec, csv_path):
    """`equideg continue` for one spec; the output is (exit code, JSON
    summary, CSV text), the CSV read back as soon as the command returns."""
    config, lam0 = spec[:2]
    path = str(eq.config_path(config))
    argv = ["continue", path, "--resonance", repr(lam0),
            "--amplitudes", ",".join(str(a) for a in LADDER),
            "--modes", str(BRANCH_MODES), "--out", csv_path]

    def run():
        code, text = _captured(eq.cli.main, argv)
        with open(csv_path) as fh:
            return code, text, fh.read()

    def check(out):
        code, text, csv_text = out
        try:
            summary = json.loads(text)
            lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
            header = lines[0].split(",")
            rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
            good, bad = check_branch(spec, summary, rows)
            converged = sum(1 for pt in summary["points"] if not pt["failed"])
        except (ValueError, KeyError, IndexError) as exc:
            good, converged, bad = 0, 0, [f"unreadable branch output: {exc!r}"]
        if (code == 0) != (converged == len(LADDER)):
            bad.append(f"exit code {code} with {converged}/{len(LADDER)} converged")
            good = 0
        return len(LADDER), len(LADDER) - good, bad

    return Job(f"{config}@{lam0:.6g}", run, check, len(LADDER))


def make_inputs(workload, seed):
    """The workload's inputs, from its seed alone: config names, branch
    specs or families, in canonical order (the first one is the warm-up)."""
    if workload == "bundled":
        return list(PUBLISHED)
    if workload == "branch":
        return list(BRANCH_JOBS)
    rng = np.random.default_rng(seed)
    if workload == "dense":
        return [dense_family(rng, n, DENSE_CROSSINGS[n], f"dense{i}-n{n}")
                for i, n in enumerate(DENSE_SIZES)]
    if workload == "stiff":
        return [stiff_family(rng, p, f"stiff-p{p}") for p in STIFF_POWERS]
    raise ValueError(f"unknown workload {workload!r}")


def make_jobs(eq, workload, inputs, out_dir):
    """One cycle of jobs over the generated inputs."""
    if workload == "bundled":
        return [_bundled_job(eq, c) for c in inputs]
    if workload == "branch":
        return [branch_job(eq, spec, f"{out_dir}/branch-{i}.csv")
                for i, spec in enumerate(inputs)]
    return [_synthetic_job(eq, fam) for fam in inputs]


def make_probe(eq, workload, seed, out_dir):
    """The workload's probe, or None: an input the program fails on
    (always on branch, for a few seeds in a hundred on dense), run once
    after the timed phase and reported apart from it."""
    if workload == "branch":
        return branch_job(eq, BRANCH_PROBE, f"{out_dir}/branch-probe.csv")
    if workload == "dense":
        rng = np.random.default_rng([seed, PROBE_N])
        return _synthetic_job(eq, dense_family(rng, PROBE_N, DENSE_CROSSINGS[PROBE_N],
                                               f"dense-probe-n{PROBE_N}"))
    return None
