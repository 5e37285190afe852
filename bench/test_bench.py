"""Tests of the benchmark itself: wrappers restored, seeded inputs
reproducible, and every output check rejecting a perturbed output."""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import equideg  # noqa: E402
import equideg.cli  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bundled(name):
    return workloads.make_jobs(equideg, "bundled", [name], HERE)[0]


def _all_bound_objects():
    owners = [m for n, m in sys.modules.items() if n == "equideg" or n.startswith("equideg.")]
    owners += [np.linalg, np.fft, equideg.MatrixFamily, equideg.ProblemConfig,
               equideg.BifurcationReport]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_every_binding():
    before = _all_bound_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.bindings()
        assert len(patched) > len(tracing.PROGRAM_TARGETS) + len(tracing.KERNEL_TARGETS)
        tracer.job = 0
        _bundled("example3").run()
    finally:
        tracer.restore()
    after = _all_bound_objects()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.bindings() == []
    counts = tracing.counts_by_job(tracer.spans)[0]
    assert counts["bifurcation.build_report"] == 1
    assert counts["spectral.eigen_sym"] > 0 and counts["linalg.det"] > 0


def test_audit_reports_a_missed_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        job = _bundled("example2")
        assert tracer.audit(job.run) == {}
        # undo one wrapper by hand, as a binding the installer did not know
        original = tracer._originals["spectral.eigen_sym"]
        wrapped = equideg.bifurcation.eigen_sym
        equideg.bifurcation.eigen_sym = original
        try:
            missed = tracer.audit(job.run)
        finally:
            equideg.bifurcation.eigen_sym = wrapped
    finally:
        tracer.restore()
    assert missed.get("spectral.eigen_sym", 0) > 0


def test_traced_counts_repeat():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job_id, name in enumerate(["example1", "example2", "example3", "example3"]):
            tracer.job = job_id
            _bundled(name).run()
    finally:
        tracer.restore()
    by_job = tracing.counts_by_job(tracer.spans)
    assert by_job[2] == by_job[3]
    cycle = [s for s in tracer.spans if s[4] < 3]
    once = tracing.layer_metrics(cycle, 3, 0, 0)
    scans = sum(by_job[j].get("spectral.scan_resonances", 0) for j in range(3))
    assert once["spectral.scans_per_report"] == scans / 3
    # per-job counts do not depend on how many identical cycles a run traced
    n = len(cycle)
    many = [[r[0], r[1], r[2], r[3] + j * n if r[3] >= 0 else -1, r[4], r[5]]
            for j in range(35) for r in cycle]
    again = tracing.layer_metrics(many, 105, 0, 0)
    counts = [k for k in once if tracing.unit_of(k) != "s/job"]
    assert {k: once[k] for k in counts} == {k: again[k] for k in counts}


@pytest.mark.parametrize("workload", ["dense", "stiff", "bundled", "branch"])
def test_seed_regenerates_identical_inputs(workload):
    a, b = workloads.make_inputs(workload, 7), workloads.make_inputs(workload, 7)
    if workload in ("dense", "stiff"):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.coeffs(), fb.coeffs())
            assert fa.crossings() == fb.crossings()
        other = workloads.make_inputs(workload, 8)
        assert not np.array_equal(a[0].coeffs(), other[0].coeffs())
    else:
        assert a == b


def test_synthetic_families_match_their_design():
    for fam in workloads.make_inputs("dense", 3):
        assert len(fam.crossings()) == workloads.DENSE_CROSSINGS[fam.n]
        A = fam.coeffs()
        assert np.allclose(A, A.transpose(0, 2, 1))
        assert np.allclose(np.linalg.eigvalsh(A[0]), np.sort(fam.diag_at(0.0)))
    for fam, p in zip(workloads.make_inputs("stiff", 3), workloads.STIFF_POWERS):
        ((lam, k),) = fam.crossings()
        assert k == round(10.0 ** (p / 2.0)) and abs(lam) < 0.5


def test_bundled_check_rejects_perturbed_reports():
    job = _bundled("example3")
    code, text = job.run()
    assert job.check((code, text)) == (1, 0, [])
    report = json.loads(text)
    for perturb in (
            lambda r: r["resonances"][1].__setitem__("lambda0", r["resonances"][1]["lambda0"] + 1e-6),
            lambda r: r["resonances"][0].__setitem__("frequencies", [2, 3]),
            lambda r: r["predicted_periods"][0].__setitem__("divisors", [1, 2, 3]),
            lambda r: r["criterion"].__setitem__("witness_k", 3),
            lambda r: r["criterion"].__setitem__("name", "eqcont2(ii)"),
            lambda r: r.__setitem__("bif_ls", 1),
            lambda r: r["resonances"].pop()):
        bad = copy.deepcopy(report)
        perturb(bad)
        assert job.check((code, json.dumps(bad)))[1] == 1
    assert job.check((1, text))[1] == 1


def test_synthetic_check_rejects_perturbed_reports():
    fam = workloads.make_inputs("dense", 11)[0]
    job = workloads.make_jobs(equideg, "dense", [fam], HERE)[0]
    report = job.run()
    assert job.check(report) == (1, 0, [])
    for perturb in (
            lambda r: r["resonances"][3].__setitem__("lambda0", r["resonances"][3]["lambda0"] + 1e-7),
            lambda r: r["bif"]["zk"].__setitem__("3", r["bif"]["zk"].get("3", 0) + 1),
            lambda r: r.__setitem__("bif", {"so2": r["bif"]["so2"] + 2, "zk": r["bif"]["zk"]}),
            lambda r: r["endpoint_spectra"]["plus"]["eigenvalues"][0].__setitem__(0, -9.9),
            lambda r: r["criterion"].__setitem__("witness_k", 99),
            lambda r: r["resonances"].pop(0)):
        bad = copy.deepcopy(report)
        perturb(bad)
        assert job.check(bad)[1] == 1


@pytest.fixture(scope="module")
def branch_output(tmp_path_factory):
    spec = workloads.BRANCH_JOBS[0]
    csv_path = str(tmp_path_factory.mktemp("branch") / "branch.csv")
    job = workloads.branch_job(equideg, spec, csv_path)
    return job, job.run()


def test_branch_check_accepts_and_rejects(branch_output):
    job, (code, text, csv_text) = branch_output
    n = len(workloads.LADDER)
    assert job.check((code, text, csv_text)) == (n, 0, [])
    summary = json.loads(text)

    def with_summary(edit):
        s = copy.deepcopy(summary)
        edit(s)
        return job.check((code, json.dumps(s), csv_text))

    assert with_summary(lambda s: s["points"][1].__setitem__("residual_norm", 1e-6))[1] == 1
    assert with_summary(lambda s: s["points"][2].__setitem__("min_period_divisor", 1))[1] == 1
    assert with_summary(lambda s: s.__setitem__("lambda0", 0.1))[1] == n
    lines = csv_text.splitlines()
    row = lines[3].split(",")
    row[10] = repr(float(row[10]) + 1e-6)      # one Fourier coefficient
    bad_csv = "\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n"
    assert job.check((code, text, bad_csv))[1] == 1


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
