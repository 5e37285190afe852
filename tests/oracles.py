"""Independent reference computations used by the test suite.

Deliberately avoids numpy.linalg eigensolvers: eigenvalues come from the
characteristic polynomial (Faddeev-LeVerrier recurrence) with roots isolated
by sign changes and refined by bisection.  Slow but order-of-magnitude
independent of the library under test.
"""

import math

import numpy as np


def charpoly_coeffs(A):
    """Coefficients c with det(x*I - A) = sum_i c[i] * x^(n-i), c[0] = 1."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    c = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + c[-1] * np.eye(n)
        c.append(-np.trace(A @ M) / k)
    return np.array(c)


def charpoly_eigenvalues(A):
    """All real eigenvalues of a symmetric matrix via charpoly bisection.

    Assumes simple eigenvalues (almost sure for random input); refines the
    sampling grid until n sign changes are found.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    c = charpoly_coeffs(A)

    def p(x):
        return np.polyval(c, x)

    bound = float(np.abs(A).sum(axis=1).max()) + 1.0
    samples = 512
    for _ in range(6):
        xs = np.linspace(-bound, bound, samples + 1)
        vals = p(xs)
        roots = [float(x) for x, v in zip(xs, vals) if v == 0.0]
        brackets = [(xs[i], xs[i + 1]) for i in range(samples)
                    if vals[i] != 0.0 and vals[i + 1] != 0.0
                    and (vals[i] < 0.0) != (vals[i + 1] < 0.0)]
        if len(roots) + len(brackets) >= n:
            break
        samples *= 4
    assert len(roots) + len(brackets) == n, "oracle failed to isolate all roots"

    for a, b in brackets:
        fa = p(a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = p(mid)
            if fm == 0.0 or b - a < 1e-14 * max(1.0, abs(mid)):
                a = b = mid
                break
            if (fa < 0.0) != (fm < 0.0):
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.sort(np.array(roots))


def random_symmetric(rng, n, scale=3.0):
    B = rng.normal(0.0, scale, size=(n, n))
    return (B + B.T) / 2.0


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def reference_report(eig_m, eig_p, n_resonances, ind_m=None, ind_p=None, tol=1e-9):
    """Bifurcation index and criterion of an interval, one k at a time.

    eig_m, eig_p: every eigenvalue of A at the two endpoints, with
    multiplicity (from ``charpoly_eigenvalues`` or a known diagonal).
    n_resonances: the number of interior resonance points, the only input
    the criteria take from the scan.  ind_m, ind_p: the index at infinity,
    None for the built-in rule (-1)^(n - #{eigenvalues < -tol}).

    Follows the paper's definitions for a problem that is not scaled:
    deg = (c, {k: c j_k}) with c = (-1)^{j_0} at a nonresonant endpoint
    and c = the index at a resonant one, Bif = deg(+) - deg(-) without the
    resonant coordinates; then eqcont2 (nonresonant endpoints, one
    resonance), then eqcont1.  Returns (so2, {k: Z_k}, undefined,
    criterion name, witness k).
    """
    ends = []
    for eig, ind in ((eig_m, ind_m), (eig_p, ind_p)):
        eig = [float(v) for v in eig]
        atol = tol * (1.0 + max(abs(v) for v in eig))
        top = int(max(max(eig), 0.0) ** 0.5) + 2
        res = {k for k in range(top + 1) for v in eig if abs(v - k * k) <= atol}
        if ind is None:
            ind = -1 if sum(1 for v in eig if v >= -atol) % 2 else 1
        ends.append((eig, res, ind, top))
    (em, res_m, ind_m, top_m), (ep, res_p, ind_p, top_p) = ends

    def j(eig, k):
        return sum(1 for v in eig if v > k * k)

    ks = range(1, max(top_m, top_p) + 1)
    c_m = ind_m if res_m else (-1) ** j(em, 0)
    c_p = ind_p if res_p else (-1) ** j(ep, 0)
    undefined = {k for k in res_m | res_p if k >= 1}
    zk = {}
    for k in ks:
        v = c_p * j(ep, k) - c_m * j(em, k)
        if v and k not in undefined:
            zk[k] = v
    jumps = [k for k in ks if j(em, k) != j(ep, k)]

    if not res_m and not res_p and n_resonances == 1:
        if (-1) ** j(em, 0) != (-1) ** j(ep, 0):
            return c_p - c_m, zk, undefined, "eqcont2(i)", None
        if jumps:
            return c_p - c_m, zk, undefined, "eqcont2(ii)", jumps[0]
    kset = set()
    for res in (res_m, res_p):
        closed = {k for k in res if k >= 1}
        while True:
            more = closed | {math.gcd(a, b) for a in closed for b in closed}
            if more == closed:
                break
            closed = more
        kset |= closed
    if ind_m != ind_p:
        return c_p - c_m, zk, undefined, "eqcont1(i)", None
    outside = [k for k in jumps if k not in kset]
    if ind_p != 0 and outside:
        return c_p - c_m, zk, undefined, "eqcont1(ii)", outside[0]
    return c_p - c_m, zk, undefined, "none", None
