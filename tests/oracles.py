"""Independent reference computations used by the test suite.

Deliberately avoids numpy.linalg eigensolvers: eigenvalues come from the
characteristic polynomial (Faddeev-LeVerrier recurrence) with roots isolated
by sign changes and refined by bisection.  Slow but order-of-magnitude
independent of the library under test, which no function here imports.
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


def fd_jacobian(func, x, f0):
    """Forward-difference Jacobian of func at x, f0 = func(x): the
    reference the closed-form harmonic-balance Jacobians are checked
    against."""
    J = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        h = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (func(xp) - f0) / h
    return J


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
    not exist.  Built entry by entry from (k, i), with none of the
    library's index layouts: a0_i sits at i, acos_{k,i} at (2k-1)n + i and
    asin_{k,i} at 2kn + i in the packed loop.
    """
    n, N = loop.n, loop.N
    k = np.repeat(np.arange(N + 1), n)  # mode and coordinate of each cos
    i = np.tile(np.arange(n), N + 1)    # coefficient, a0 first
    cos = np.where(k > 0, (2 * k - 1) * n + i, i)
    sin = (2 * k * n + i)[n:]
    F = np.fft.fft(p.hessian_many(loop.values(M), lam), axis=0) / M
    hc, hs = F.real, -F.imag
    kr, kc, ir, ic = k[:, None], k[None, :], i[:, None], i[None, :]
    toe_c, han_c = hc[(kr - kc) % M, ir, ic], hc[(kr + kc) % M, ir, ic]
    toe_s, han_s = hs[(kr - kc) % M, ir, ic], hs[(kr + kc) % M, ir, ic]
    half = np.where(kr == 0, 0.5, 1.0)  # the mean row is halved
    k2 = np.diag((k * k).astype(float))
    J = np.empty((n * (2 * N + 1),) * 2)
    J[np.ix_(cos, cos)] = half * (toe_c + han_c) - k2
    J[np.ix_(sin, sin)] = (toe_c - han_c - k2)[n:, n:]
    J[np.ix_(cos, sin)] = (half * (han_s - toe_s))[:, n:]
    J[np.ix_(sin, cos)] = (han_s + toe_s)[n:]
    return J


def phase_row(ref):
    """Phase-condition row against the loop ``ref``: row @ x pairs u with
    d/dt u_ref over a period, 0 at x = ref.  It removes the time-shift
    degeneracy of the full system, which the even loops do not have."""
    k = np.arange(1, ref.N + 1)[:, None]
    return math.pi * np.concatenate([np.zeros(ref.n), np.stack(
        [k * ref.asin, -k * ref.acos], axis=1).ravel()])


def full_continuation_jacobian(p, ref, k0, M, loop, lam):
    """The whole augmented continuation Jacobian at (loop, lambda), with a
    phase row against ``ref``.  Rows are the packed residual, the phase row
    at dim and the pin row (the mode-k0 coefficient norm) at dim + 1;
    columns are the packed loop and lambda at dim.  The lambda column is
    the trigonometric sum of d/dlambda grad V over the M nodes, term by
    term, with no FFT."""
    n, N = loop.n, loop.N
    dim = n * (2 * N + 1)
    t = 2.0 * math.pi * np.arange(M) / M
    k = np.arange(1, N + 1)[:, None]
    g = p.gradient_lambda_many(loop.values(M), lam)
    pin = slice((2 * k0 - 1) * n, (2 * k0 + 1) * n)  # acos_k0, asin_k0
    x = loop.pack()
    J = np.zeros((dim + 2, dim + 1))
    J[:dim, :dim] = _analytic_jacobian(loop, lam, p, M)
    J[:dim, dim] = np.concatenate([g.mean(axis=0), np.stack(
        [np.cos(k * t) @ g, np.sin(k * t) @ g], axis=1).ravel() * (2.0 / M)])
    J[dim, :dim] = phase_row(ref)
    J[dim + 1, pin] = x[pin] / np.linalg.norm(x[pin])
    return J


def _lstsq_step(J, f):
    """Least-squares step -J^+ f, and the singular values of J, which the
    least-squares solve has already taken."""
    step, _, _, sv = np.linalg.lstsq(J, -f, rcond=None)
    return step, lambda: sv


def random_symmetric(rng, n, scale=3.0):
    B = rng.normal(0.0, scale, size=(n, n))
    return (B + B.T) / 2.0


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def lin_deg(parts, morse):
    """Gradient degree of a block-diagonal self-adjoint isomorphism
    L = diag(L_0, L_1, ...) from its block Morse indices, as (a0, {k: Z_k}).

    parts: (j, k) per block, with k strictly increasing; the block acts on
    R[j, k], j copies of the plane on which SO(2) rotates with speed k
    (k = 0: j copies of the line, fixed).  morse: m(L_i) per block.  A
    block with k >= 1 is complex linear, so its Morse index is even and at
    most 2j; that of the k = 0 block is at most j.  Then

        a0 = (-1)^{m(L_0)},    Z_k = a0 m(L_k) / 2,

    with zero coordinates left out.  Block data of another shape raise
    ValueError.
    """
    if len(parts) != len(morse):
        raise ValueError(f"expected {len(parts)} Morse indices, got {len(morse)}")
    if any(b <= a for (_, a), (_, b) in zip(parts, parts[1:])):
        raise ValueError(f"frequencies must be strictly increasing in {parts}")
    for (j, k), m in zip(parts, morse):
        if not 0 <= m <= (2 * j if k else j) or k and m % 2:
            raise ValueError(f"Morse index {m} is not one of block R[{j},{k}]")
    a0 = -1 if sum(m for (_, k), m in zip(parts, morse) if k == 0) % 2 else 1
    return a0, {k: a0 * (m // 2) for (_, k), m in zip(parts, morse) if k and m}


def minus_id_morse(parts):
    """Block Morse indices of -Id on the blocks ``parts``: all negative."""
    return tuple(2 * j if k else j for j, k in parts)


def loop_degree(eig):
    """deg(Id - L_A) on 2pi-periodic loops by the block formula ``lin_deg``.

    eig: every eigenvalue of a nonresonant symmetric A, with multiplicity.
    Id - L_A acts on the loops of mode k as a positive multiple of
    k^2 - A, on n real dimensions for k = 0 and on n complex ones for
    k >= 1, so its block Morse indices are m(L_0) = j_0 and
    m(L_k) = 2 j_k, with j_k the eigenvalues above k^2, counted one by one
    up to the first k past every eigenvalue.
    """
    eig = [float(v) for v in eig]
    ks = range(int(max(max(eig), 0.0) ** 0.5) + 2)
    counts = [sum(1 for v in eig if v > k * k) for k in ks]
    return lin_deg([(len(eig), k) for k in ks],
                   [count if k == 0 else 2 * count for k, count in zip(ks, counts)])


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
    criterion name, witness k).  A supplied index that differs from
    (-1)^{j_0} at a nonresonant endpoint, which the spectrum fixes there,
    raises ValueError, whichever criterion would settle the interval.
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

    for eig, res, ind in ((em, res_m, ind_m), (ep, res_p, ind_p)):
        if not res and ind != (-1) ** j(eig, 0):
            raise ValueError(f"supplied index {ind} contradicts (-1)^j_0 = "
                             f"{(-1) ** j(eig, 0)} at a nonresonant endpoint")
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


def reference_scan_one_frequency(coeffs, nodes, k, tol):
    """The resonance scan for one frequency k, one grid node at a time: the
    reference for ``spectral._scan_one_frequency``.

    ``coeffs`` is a family's (symmetrized) coefficient stack; A(lambda) is
    built here with its own ``np.tensordot``.  Returns (roots, warnings) as
    (class name, message) pairs in emission order, or
    ("NonIsolatedResonanceError", message) on three tiny determinants in a
    row.  Signs are compared by sign bit, never by a product of two
    determinants, which underflows to zero once they are small enough.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[1]
    powers = np.asarray(nodes, dtype=float)[:, None] ** np.arange(coeffs.shape[0])[None, :]
    mats = np.tensordot(powers, coeffs, axes=([1], [0]))
    k2 = float(k * k)
    dets = np.linalg.det(mats - k2 * np.eye(n)[None, :, :])
    scale = max(float(np.abs(dets).max()), 1e-300)
    thresh = tol * scale
    tiny = np.abs(dets) <= thresh

    run = 0
    for flag in tiny:
        run = run + 1 if flag else 0
        if run >= 3:
            return ("NonIsolatedResonanceError",
                    f"det(A(lambda) - {k}^2 Id) vanishes on a subinterval of the grid; "
                    "resonances are not isolated at this tolerance")

    def det_at(lam):
        A = np.tensordot(np.power(float(lam), np.arange(coeffs.shape[0])), coeffs, axes=1)
        return float(np.linalg.det(A - k2 * np.eye(n)))

    roots = [float(nodes[i]) for i in np.flatnonzero(tiny)]
    warn = []
    for i in range(len(nodes) - 1):
        if tiny[i] or tiny[i + 1]:
            continue
        a, b = float(nodes[i]), float(nodes[i + 1])
        fa, fb = dets[i], dets[i + 1]
        if (fa < 0.0) != (fb < 0.0):
            while b - a > tol:
                mid = 0.5 * (a + b)
                if mid == a or mid == b:   # adjacent floats: no step is left
                    break
                fm = det_at(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm < 0.0) != (fa < 0.0):
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))

    absd = np.abs(dets)
    touch_thresh = math.sqrt(tol) * scale
    cell = float(nodes[1] - nodes[0]) if len(nodes) > 1 else 0.0
    for i in range(1, len(nodes) - 1):
        if tiny[i - 1] or tiny[i] or tiny[i + 1]:
            continue
        if absd[i] < touch_thresh and absd[i] <= absd[i - 1] and absd[i] <= absd[i + 1] \
                and (dets[i - 1] < 0.0) == (dets[i + 1] < 0.0):
            lam = float(nodes[i])
            if not any(abs(lam - r) <= 2.0 * cell for r in roots):
                warn.append(("TangencyWarning",
                             f"det(A(lambda) - {k}^2 Id) touches zero near lambda={lam:.6g} "
                             "without a sign change; tangential resonance not reported as a point"))

    roots = sorted(roots)
    merged = []
    for r in roots:
        if merged and r - merged[-1] <= max(tol, 1e-15):
            continue
        merged.append(r)
    if cell > 0.0:
        for a, b in zip(merged, merged[1:]):
            if b - a < cell:
                warn.append(("ResolutionWarning",
                             f"two resonances of frequency {k} fall within one grid cell "
                             f"near lambda={a:.6g}; increase the grid to separate them"))
    return merged, warn


def reference_reachable_frequencies(coeffs, nodes, mats, tol):
    """The k >= 0 whose square some cell range of the grid holds, with
    ``eigvalsh`` at every node: the reference for
    ``spectral._reachable_frequencies``.

    ``coeffs`` is a family's (symmetrized) coefficient stack and ``mats``
    its matrices at ``nodes``, both as the scan sees them.  Each cell range
    is the mean of the sorted eigenvalues at its two nodes, widened by
    L h / 2 plus the rounding slack, with L the Lipschitz bound of the
    curves.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    n = coeffs.shape[1]
    r = max(abs(float(nodes[0])), abs(float(nodes[-1])))
    norms = np.abs(np.linalg.eigvalsh(coeffs)).max(axis=1)
    q = np.arange(len(norms))
    lipschitz = float(np.sum(q[1:] * r ** (q[1:] - 1) * norms[1:]))
    scale = 1.0 + float(np.sum(r ** q * norms))
    slack = max(tol, 64.0 * n * np.finfo(float).eps) * scale
    half = lipschitz * float(np.max(np.diff(nodes))) / 2.0 + slack
    eigs = np.linalg.eigvalsh(mats)
    out = set()
    for mid in ((eigs[:-1] + eigs[1:]) / 2.0).ravel().tolist():
        if mid + half >= 0.0:
            first = math.ceil(math.sqrt(max(mid - half, 0.0)))
            out.update(range(first, math.floor(math.sqrt(mid + half)) + 1))
    return sorted(out)
