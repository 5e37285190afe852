"""Benchmark equideg end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 bench/run.py --workload bundled --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ./src.
Every workload is a closed loop with one client in this process; each job
is timed on its own and the next one starts when it returns.  Jobs run in
whole cycles over the seed's inputs, at least two, until the next cycle
would pass ``--seconds``.  Outputs are checked after each cycle against
references that do not use equideg (see workloads.py); the checks are not
part of any job's time.

Prints a table, an ``env`` line and, last, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run and a record of every run go to bench/results/.
"""

import os

# One BLAS thread unless the caller chose otherwise: on the 2-core host the
# benchmark was built on, two-thread SVDs in the branch workload made job
# times vary twice as much from job to job.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REFERENCE_EVERY_S = 0.25
# bounded in BENCHMARK.json; the others are printed and recorded
END_TO_END_UNITS = {"setup_s": "s", "job_p50_ref": "ref", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"job_ms_p50": "ms", "jobs_per_s": "1/s", "ref_ms": "ms"}

_REF_RNG = np.random.default_rng(0)
_REF_STACK = _REF_RNG.standard_normal((64, 5, 5))
_REF_STACK = _REF_STACK + _REF_STACK.transpose(0, 2, 1)


def reference_s():
    """Seconds for a fixed computation independent of equideg: a Python
    loop and small LAPACK calls, the mix the jobs spend their time in.

    The 2-core host this benchmark was built on switches between speed
    states about 1.45x apart for a minute or more.  On bundled, stiff and
    branch this time moves with the jobs' times within a few percent, so
    dividing by it keeps job_p50_ref steady across runs; dense, whose
    larger arrays feel cache pressure that these do not, is not tracked.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i)
    for _ in range(20):
        np.linalg.det(_REF_STACK)
        np.linalg.eigvalsh(_REF_STACK)
    return time.perf_counter() - t0


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if unknown."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "EQUIDEG_THREADS_set": "EQUIDEG_THREADS" in os.environ,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def import_program(src):
    """Import equideg (and its CLI) afresh from ./src."""
    for name in [n for n in sys.modules if n == "equideg" or n.startswith("equideg.")]:
        del sys.modules[name]
    importlib.import_module("equideg.cli")
    eq = sys.modules["equideg"]
    if not os.path.abspath(eq.__file__).startswith(src + os.sep):
        raise ImportError(f"equideg imported from {eq.__file__}, not from {src}")
    return eq


def set_up(args, src, out_dir):
    """Import, generate the inputs, build the jobs and run one warm-up job,
    SETUP_REPEATS times; returns (median seconds, package, jobs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        eq = import_program(src)
        inputs = workloads.make_inputs(args.workload, args.seed)
        jobs = workloads.make_jobs(eq, args.workload, inputs, out_dir)
        jobs[0].run()
        times.append(time.perf_counter() - t0)
    order = np.random.default_rng(args.seed).permutation(len(jobs))
    return statistics.median(times), eq, [jobs[i] for i in order]


def run_job(job, tracer=None, job_id=None):
    """(seconds, output or None, error text or None) of one job."""
    if tracer is not None:
        tracer.job = job_id
    t0 = time.perf_counter()
    try:
        out, err = job.run(), None
    except Exception:       # a raising job is a failed operation
        out, err = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, err


def check(job, out, err):
    """(attempted, failed, mismatches) of one job's output."""
    if err is not None:
        return job.ops, job.ops, [f"{job.name} raised: {err.strip().splitlines()[-1]}"]
    return job.check(out)


def tail(times_ms):
    """(value, percentile) of the highest listed percentile with at least
    ten jobs beyond it, or (None, None)."""
    n = len(times_ms)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return float(np.percentile(times_ms, p)), p
    return None, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "equideg", "__init__.py")):
        print(f"error: no equideg sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out_dir, exist_ok=True)

    setup_s, eq, jobs = set_up(args, src, out_dir)

    # timed phase: whole cycles; in a traced run odd cycles are traced and
    # even ones are not, so the overhead is measured on the same inputs.
    # Outputs are checked after each cycle and dropped, so memory does not
    # grow with the number of jobs.
    # The reference computation runs between untraced jobs, at most every
    # REFERENCE_EVERY_S, outside every job's time.
    tracer = tracing.Tracer() if args.trace else None
    records = []                # (job, seconds, traced, job id)
    ref_times = []
    attempted = failed = requested = converged = 0
    mismatches = []
    cycles, cycle_s, t_start = 0, 0.0, time.perf_counter()
    last_ref = -math.inf
    while cycles < 2 or time.perf_counter() - t_start + cycle_s <= args.seconds:
        traced = bool(args.trace and cycles % 2)
        outputs = []
        if traced:
            tracer.install()
        c0 = time.perf_counter()
        try:
            for job in jobs:
                dt, out, err = run_job(job, tracer if traced else None, len(records))
                records.append((job, dt, traced, len(records)))
                outputs.append((job, out, err))
                if not traced and time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                    ref_times.append(reference_s())
                    last_ref = time.perf_counter()
        finally:
            if traced:
                tracer.job = None
                tracer.restore()
        cycle_s = time.perf_counter() - c0
        cycles += 1
        for job, out, err in outputs:
            a, f, bad = check(job, out, err)
            attempted, failed = attempted + a, failed + f
            mismatches += bad
            if traced and args.workload == "branch":
                requested, converged = requested + a, converged + a - f
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    missed = {}
    if args.trace:
        tracer.install()
        n_spans = len(tracer.spans)
        try:
            missed = tracer.audit(jobs[0].run)
        finally:
            tracer.restore()
        del tracer.spans[n_spans:]

    probe = workloads.make_probe(eq, args.workload, args.seed, out_dir)
    probe_attempted = probe_failed = 0
    probe_notes = []
    if probe is not None:
        _, out, err = run_job(probe)
        probe_attempted, probe_failed, probe_notes = check(probe, out, err)

    untraced = [r for r in records if not r[2]]
    times_ms = [r[1] * 1e3 for r in untraced]
    p50 = statistics.median(times_ms)
    tail_ms, tail_p = tail(times_ms)
    ref_ms = statistics.median(ref_times) * 1e3
    jobs_per_s = len(untraced) / sum(r[1] for r in untraced)
    metrics = {
        "setup_s": setup_s,
        "job_p50_ref": p50 / ref_ms,
        "peak_rss_mb": peak_rss_mb,
        "job_ms_p50": p50,
        "jobs_per_s": jobs_per_s,
        "ref_ms": ref_ms,
    }
    fail_ratio = failed / attempted if attempted else math.nan
    correct = not mismatches

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {cycles}  jobs {len(records)}  wall {wall:.2f} s")
    for name, unit in {**END_TO_END_UNITS, **PRINTED_UNITS}.items():
        print(f"  {name:<13} {metrics[name]:12.4f} {unit}")
    if tail_ms is None:
        print(f"  {'job_ms_tail':<13} {'n/a':>12} ms  ({len(times_ms)} jobs: "
              "no percentile has 10 jobs beyond it)")
    else:
        print(f"  {'job_ms_tail':<13} {tail_ms:12.4f} ms  (p{tail_p:g} of {len(times_ms)} jobs)")
    print(f"  {'fail_ratio':<13} {fail_ratio:12.4f}     ({failed}/{attempted} operations)")
    print(f"  output checks: {'pass' if correct else 'FAIL'} ({len(mismatches)} mismatches)")
    for line in mismatches[:10]:
        print(f"    {line}", file=sys.stderr)
    if probe is not None:
        print(f"  probe {probe.name} (once, outside the timed loop): "
              f"{probe_failed}/{probe_attempted} operations failed")
        for line in probe_notes[:3]:
            print(f"    {line}")

    if args.trace:
        traced_ms = [r[1] * 1e3 for r in records if r[2]]
        n_traced = len(traced_ms)
        per_layer = tracing.layer_metrics(tracer.spans, n_traced, requested, converged)
        per_layer["trace.overhead"] = statistics.median(traced_ms) / p50 - 1.0
        per_layer["trace.missed_calls"] = float(sum(missed.values()))
        per_layer["trace.unrepeated_counts"] = float(unrepeated(tracer.spans, records))
        per_layer["probe.attempted"] = float(probe_attempted)
        per_layer["probe.failed"] = float(probe_failed)
        print(f"  traced jobs {n_traced}: overhead {per_layer['trace.overhead']:+.3f} "
              f"on job_ms_p50, missed calls {missed or 0}, "
              f"unrepeated counts {per_layer['trace.unrepeated_counts']:g}")
        for name, counts in per_job_counts(tracer.spans, records).items():
            print(f"    {name}: {counts}")
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        result_metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                          for k, v in sorted(per_layer.items())}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": u}
                          for k, u in END_TO_END_UNITS.items()}

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    record = {"args": vars(args), "env": env, "end_to_end": metrics,
              "job_ms_tail": tail_ms, "tail_percentile": tail_p, "ref_s": ref_times,
              "jobs": [[r[0].name, r[1], r[2]] for r in records],
              "mismatches": mismatches, "probe": [probe_attempted, probe_failed]}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def per_job_counts(spans, records):
    """Span counts of the first traced run of each job name."""
    by_job = tracing.counts_by_job(spans)
    out = {}
    for job, _, traced, job_id in records:
        if traced and job.name not in out:
            c = by_job.get(job_id, {})
            out[job.name] = {k: c.get(k, 0) for k in (
                "bifurcation.build_report", "spectral.scan_resonances",
                "spectral.eigen_sym", "galerkin.residual")}
    return out


def unrepeated(spans, records):
    """Job names whose span counts differ between traced cycles."""
    by_job = tracing.counts_by_job(spans)
    seen, bad = {}, set()
    for job, _, traced, job_id in records:
        if traced and seen.setdefault(job.name, by_job.get(job_id)) != by_job.get(job_id):
            bad.add(job.name)
    return len(bad)


if __name__ == "__main__":
    sys.exit(main())
