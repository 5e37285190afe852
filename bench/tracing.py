"""Spans around equideg's public functions and the numpy kernels they call.

The wrappers live here, not in the program: ``Tracer.install`` replaces
every binding of each traced function inside the ``equideg`` package (a
function imported into four modules is wrapped in all four), the class
attributes of the traced methods, and the kernels on ``numpy.linalg`` and
``numpy.fft``.  ``Tracer.restore`` puts every original object back.

A span is ``[name, start, end, parent index, job id, info]``; ``info``
holds a few facts about the call (matrices in a kernel call, the
exception a call raised).  Self time is a span's duration minus the
durations of its direct children; calls are synchronous, so children
never overlap.
"""

import functools
import importlib
import json
import os
import sys
import time

# (defining module, attribute); "Class.method" for methods.
PROGRAM_TARGETS = (
    ("equideg.spectral", "scan_resonances"),
    ("equideg.spectral", "eigen_sym"),
    ("equideg.spectral", "MatrixFamily.eval_many"),
    ("equideg.eqdeg", "deg_id_minus_LA"),
    ("equideg.eqdeg", "ind_infinity"),
    ("equideg.bifurcation", "build_report"),
    ("equideg.bifurcation", "endpoint_degree"),
    ("equideg.bifurcation", "check_eqcont1"),
    ("equideg.bifurcation", "check_eqcont2"),
    ("equideg.bifurcation", "BifurcationReport.to_json"),
    ("equideg.config", "ProblemConfig.from_file"),
    ("equideg.config", "ProblemConfig.problem"),
    ("equideg.galerkin", "continue_to_infinity"),
    ("equideg.galerkin", "residual"),
)
KERNEL_TARGETS = (
    ("numpy.linalg", "det"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "lstsq"),
    ("numpy.fft", "rfft"),
)
PACKAGE = "equideg"


def _stacked(args, kwargs, out):
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", ())
    count = 1
    for d in shape[:-2]:
        count *= d
    return {"matrices": count, "ndim": len(shape)}


def _eval_many(args, kwargs, out):
    return {"matrices": out.shape[0], "bytes": out.nbytes}


def _scan(args, kwargs, out):
    freqs = [pt.frequencies for pt in out]
    return {"roots": sum(len(f) for f in freqs),
            "freqs": len(frozenset().union(*freqs)) if freqs else 0}


INFO = {"linalg.det": _stacked, "linalg.eigvalsh": _stacked,
        "spectral.eval_many": _eval_many, "spectral.scan_resonances": _scan}


def _code_of(fn):
    """Code object of a traced function, a classmethod or a numpy
    array-function dispatcher."""
    fn = getattr(fn, "__func__", fn)
    fn = getattr(fn, "_implementation", fn)
    return fn.__code__


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []          # (owner, attribute, original)
        self._originals = {}        # span name -> original object

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, attr in PROGRAM_TARGETS + KERNEL_TARGETS:
            owner = importlib.import_module(modname)
            name = f"{modname.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self._wrap(name, fn)
                self._patch(owner, attr, raw,
                            classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
                self._originals[name] = raw
                continue
            raw = getattr(owner, attr)
            wrapper = self._wrap(name, raw)
            self._originals[name] = raw
            if owner.__name__.startswith("numpy"):
                self._patch(owner, attr, raw, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self):
        """(owner, attribute, original) for every patched binding."""
        return list(self._patches)

    def audit(self, fn):
        """Run fn and count calls that reached a traced function without
        passing through its wrapper, from code inside the package: a
        binding that ``install`` missed.  Returns {span name: calls}."""
        if not self._patches:
            raise RuntimeError("audit needs the wrappers installed")
        wrapper_code = self._wrap("", len).__code__
        targets = {_code_of(obj): name for name, obj in self._originals.items()}
        pkg_dir = os.path.dirname(sys.modules[PACKAGE].__file__)
        missed = {}

        def hook(frame, event, arg):
            # a global trace function sees each new Python frame once;
            # returning None leaves the frame's lines untraced
            if frame.f_code in targets:
                caller = frame.f_back
                if caller is not None and caller.f_code is not wrapper_code \
                        and caller.f_code.co_filename.startswith(pkg_dir):
                    name = targets[frame.f_code]
                    missed[name] = missed.get(name, 0) + 1

        sys.settrace(hook)
        try:
            fn()
        finally:
            sys.settrace(None)
        return missed

    def write(self, path):
        """Spans as JSON lines, one [name, start, end, parent, job, info]."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ------------------------------------------------------------ aggregation

def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return -1


def counts_by_job(spans):
    """{job id: {span name: calls}}."""
    out = {}
    for rec in spans:
        per = out.setdefault(rec[4], {})
        per[rec[0]] = per.get(rec[0], 0) + 1
    return out


def layer_metrics(spans, n_jobs, points_requested, points_converged):
    """Per-layer metrics, each per job over ``n_jobs`` traced jobs.

    Counts are calls per job and ``.s`` is seconds per job inside the
    layer (inclusive of its children unless named ``self_s``).
    """
    calls, secs, child = {}, {}, [0.0] * len(spans)
    for rec in spans:
        dur = rec[2] - rec[1]
        calls[rec[0]] = calls.get(rec[0], 0) + 1
        secs[rec[0]] = secs.get(rec[0], 0.0) + dur
        if rec[3] >= 0:
            child[rec[3]] += dur

    def under(name, ancestor, pred=lambda rec: True):
        return sum(1 for i, rec in enumerate(spans)
                   if rec[0] == name and pred(rec) and _ancestor(spans, i, ancestor) >= 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def info(name, key):
        return sum(rec[5][key] for rec in spans if rec[0] == name and rec[5])

    reports = calls.get("bifurcation.build_report", 0)
    scan = "spectral.scan_resonances"
    k_swept = under("linalg.det", scan, lambda r: r[5]["ndim"] > 2)
    refine = under("linalg.det", scan, lambda r: r[5]["ndim"] == 2)
    steps = under("linalg.svd", "galerkin.continue_to_infinity")
    m = {
        "spectral.scan_resonances.calls": calls.get(scan, 0) / n_jobs,
        "spectral.scan_resonances.s": secs.get(scan, 0.0) / n_jobs,
        "spectral.scans_per_report": ratio(under(scan, "bifurcation.build_report"), reports),
        "spectral.scan.k_swept": k_swept / n_jobs,
        "spectral.scan.k_useful_ratio": ratio(info(scan, "freqs"), k_swept),
        "spectral.scan.refine_evals": refine / n_jobs,
        "spectral.scan.refine_evals_per_root": ratio(refine, info(scan, "roots")),
        "spectral.eval_many.matrices": info("spectral.eval_many", "matrices") / n_jobs,
        "spectral.eval_many.bytes_computed": info("spectral.eval_many", "bytes") / n_jobs,
        "spectral.eigen_sym.calls": calls.get("spectral.eigen_sym", 0) / n_jobs,
        "spectral.eigen_sym.s": secs.get("spectral.eigen_sym", 0.0) / n_jobs,
        "spectral.eigen_sym_per_report": ratio(
            under("spectral.eigen_sym", "bifurcation.build_report"), reports),
        "bifurcation.build_report.self_s": sum(
            rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)
            if rec[0] == "bifurcation.build_report") / n_jobs,
        "bifurcation.check_eqcont2.precondition_failed": sum(
            1 for rec in spans if rec[0] == "bifurcation.check_eqcont2" and rec[5]
            and rec[5].get("raised") == "PreconditionError") / n_jobs,
        "galerkin.newton_steps": steps / n_jobs,
        "galerkin.residual_per_step": ratio(
            under("galerkin.residual", "galerkin.continue_to_infinity"), steps),
        "galerkin.steps_per_point": ratio(steps, points_requested),
        "galerkin.points_requested": points_requested / n_jobs,
        "galerkin.points_converged": points_converged / n_jobs,
        "linalg.det.matrices": info("linalg.det", "matrices") / n_jobs,
        "linalg.eigvalsh.matrices": info("linalg.eigvalsh", "matrices") / n_jobs,
    }
    for name in ("eqdeg.deg_id_minus_LA", "eqdeg.ind_infinity", "bifurcation.check_eqcont1",
                 "bifurcation.check_eqcont2", "galerkin.continue_to_infinity",
                 "galerkin.residual", "linalg.det", "linalg.eigh", "linalg.svd",
                 "linalg.lstsq", "fft.rfft"):
        m[f"{name}.calls"] = calls.get(name, 0) / n_jobs
        m[f"{name}.s"] = secs.get(name, 0.0) / n_jobs
    for name in ("bifurcation.build_report", "bifurcation.to_json", "config.from_file",
                 "config.problem", "linalg.eigvalsh"):
        m[f"{name}.s"] = secs.get(name, 0.0) / n_jobs
    m["bifurcation.endpoint_degree.calls"] = calls.get("bifurcation.endpoint_degree", 0) / n_jobs
    return m


def unit_of(name):
    if name.startswith(("probe.", "trace.missed", "trace.unrepeated")):
        return "count"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s/job"
    if name.endswith("bytes_computed"):
        return "B/job"
    if "ratio" in name or "_per_" in name or name.endswith("overhead"):
        return "ratio"
    return "count/job"
