"""Command line: analyze a problem file, continue a branch, verify examples.

Exit codes for `analyze`: 0 when some bifurcation criterion fired, 2 when
none did, 1 on any error.  `continue` exits 0 only for a fully converged
branch, `verify-examples` only when every regression row passes.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import problems
from .bifurcation import FORMAT_VERSION
from .config import ProblemConfig
from .galerkin import continue_to_infinity, write_branch_csv
from .reps import isotropy_gcd_set, period_labels
from .spectral import (EigenConvergenceError, NonIsolatedResonanceError,
                       scan_resonances)


def _fmt_element(e):
    if not e:
        return "Theta (zero)"
    parts = [f"SO(2): {e.a0}"]
    parts += [f"Z_{k}: {v}" for k, v in sorted(e.zk.items())]
    return ", ".join(parts)


def _fmt_spectrum(s):
    return ", ".join(f"{v:.9g} (x{m})" for v, m in s.eigenvalues)


def _human_report(r):
    lines = []
    lines.append(f"problem: n = {r.n} on [{r.interval[0]:g}, {r.interval[1]:g}]")
    lines.append(f"spectrum at {r.interval[0]:g}: {_fmt_spectrum(r.s_minus)}")
    lines.append(f"spectrum at {r.interval[1]:g}: {_fmt_spectrum(r.s_plus)}")
    kset = ", ".join(str(k) for k in sorted(r.kset)) or "empty"
    lines.append(f"K-set: {kset}")
    lines.append(f"bifurcation index: {_fmt_element(r.bif)}")
    if r.bif_undefined:
        lines.append("  undefined coordinates at k in "
                     f"{sorted(r.bif_undefined)} (resonant endpoint)")
    lines.append(f"Leray-Schauder shadow: {r.bif_ls}")
    status = "fired" if r.criterion.holds else "did not fire"
    lines.append(f"criterion {r.criterion.name} {status}: {r.criterion.message}")
    if r.resonances:
        lines.append("resonances:")
        for pt in r.resonances:
            freqs = ", ".join(str(k) for k in sorted(pt.frequencies))
            periods = ", ".join(period_labels(isotropy_gcd_set(pt.kernel_rep)))
            lines.append(f"  lambda0 = {pt.lambda0:.9g}: frequencies {{{freqs}}}, "
                         f"predicted minimal periods {{{periods}}}")
    else:
        lines.append("resonances: none in the interval")
    for pt in r.eqcont3:
        lines.append(f"  scaled-family point lambda0 = {pt.lambda0:.9g}: "
                     f"Z_{pt.k0} jump {pt.bif_zk0}")
    for c in r.consistency:
        verdict = "consistent" if c["consistent"] else "not consistent"
        lines.append(f"critical point {c['critical_point']} vs infinity at "
                     f"lambda0 = {c['lambda0']:.9g}: {verdict}")
    if r.flags:
        flags = ", ".join(f"{k}={v}" for k, v in sorted(r.flags.items()))
        lines.append(f"flags: {flags}")
    return "\n".join(lines)


def cmd_analyze(args):
    cfg = ProblemConfig.from_file(args.config)
    report = dataclasses.replace(
        cfg, tol=args.tol if args.tol is not None else cfg.tol,
        grid=args.grid if args.grid is not None else cfg.grid).report()
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        print(_human_report(report))
    return 0 if report.criterion.holds else 2


def cmd_continue(args):
    if not math.isfinite(args.resonance):
        raise ValueError(f"--resonance must be finite, got {args.resonance:g}")
    cfg = ProblemConfig.from_file(args.config)
    p = cfg.problem()
    points = scan_resonances(p.family, cfg.lambda_minus, cfg.lambda_plus,
                             grid=cfg.grid, tol=cfg.tol)
    target = args.resonance
    atol = 1e-6 * (1.0 + abs(target))
    match = [pt for pt in points if abs(pt.lambda0 - target) <= atol]
    if not match:
        known = ", ".join(f"{pt.lambda0:.9g}" for pt in points) or "none"
        print(f"error: no resonance at lambda0 = {target:g} "
              f"(scanned points: {known})", file=sys.stderr)
        return 1
    pt = match[0]
    try:
        amplitudes = [float(a) for a in args.amplitudes.split(",") if a]
    except ValueError:
        print("error: --amplitudes must be a comma-separated number list",
              file=sys.stderr)
        return 1
    if not amplitudes or any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        print("error: --amplitudes must be strictly increasing", file=sys.stderr)
        return 1
    modes = args.modes if args.modes is not None else cfg.modes
    branch = continue_to_infinity(p, pt, amplitudes, modes)
    write_branch_csv(args.out, branch)
    ok = [bp for bp in branch if not bp.failed]
    drift = [abs(bp.lam - pt.lambda0) for bp in ok]
    tail = drift[len(drift) // 2:] if drift else []
    summary = {
        "format_version": FORMAT_VERSION,
        "lambda0": pt.lambda0,
        "frequencies": sorted(pt.frequencies),
        "csv": args.out,
        "points": [{
            "amplitude": bp.amplitude,
            "lambda": bp.lam,
            "residual_norm": None if bp.failed else bp.residual_norm,
            "min_period_divisor": bp.minimal_period_divisor,
            "active_modes": sorted(bp.active_modes),
            "failed": bp.failed,
            "newton_steps": bp.newton_steps,
            "jacobian_cond": bp.jacobian_cond,
            "energy_drift": bp.energy_drift,
        } for bp in branch],
        "lambda_drift": drift,
        "sup_tail_drift": max(tail) if tail else None,
        "converged": len(ok) == len(branch),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0 if summary["converged"] else 1


def cmd_verify(args):
    rows = problems.verification_rows()
    results = []
    for name, fn in rows:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "pass": bool(ok), "detail": detail})
    if args.json:
        print(json.dumps({"format_version": FORMAT_VERSION,
                          "rows": results,
                          "all_pass": all(r["pass"] for r in results)},
                         sort_keys=True, indent=2))
    else:
        for r in results:
            mark = "PASS" if r["pass"] else "FAIL"
            line = f"{mark}  {r['name']}"
            if not r["pass"]:
                line += f"  [{r['detail']}]"
            print(line)
    return 0 if all(r["pass"] for r in results) else 1


@functools.cache
def build_arg_parser():
    """The parser, built once and shared by every call (main's too)."""
    ap = argparse.ArgumentParser(
        prog="equideg",
        description="Equivariant-degree bifurcation-from-infinity analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run the criterion cascade on a problem file")
    a.add_argument("config")
    a.add_argument("--tol", type=float, default=None)
    a.add_argument("--grid", type=int, default=None)
    a.add_argument("--json", action="store_true")
    a.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("continue", help="follow a branch from a resonance "
                                        "toward large amplitude")
    c.add_argument("config")
    c.add_argument("--resonance", type=float, required=True,
                   help="lambda0 of a scanned resonance point")
    c.add_argument("--amplitudes", required=True,
                   help="comma-separated increasing mode-k0 amplitudes")
    c.add_argument("--modes", type=int, default=None)
    c.add_argument("--out", default="branch.csv")
    c.set_defaults(fn=cmd_continue)

    v = sub.add_parser("verify-examples", help="run the built-in regression rows")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, NonIsolatedResonanceError,
            EigenConvergenceError) as exc:  # bad input or unresolved spectra
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
