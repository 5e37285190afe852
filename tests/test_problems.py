"""Built-in examples: matrices, bundled configs and verification rows."""

import json
import math

import numpy as np
import pytest

import equideg.bifurcation
import equideg.config
import equideg.problems
import equideg.spectral
from equideg.bifurcation import build_report
from equideg.cli import main
from equideg.config import ProblemConfig
from equideg.problems import CATALOG, config_path, example1, example2, example3


def test_example_matrices():
    lam = 0.3
    A1 = example1().problem().family.eval_array(lam)
    assert np.allclose(A1, np.diag([lam ** 2 - 1, math.sqrt(2) + lam,
                                    lam - math.sqrt(2), math.sqrt(5) + lam]))
    A2 = example2().problem().family.eval_array(lam)
    assert np.allclose(A2, np.diag([4 + lam, 2, 2, 2]))
    A3 = example3().problem().family.eval_array(lam)
    assert np.allclose(A3, np.diag([4 + lam ** 2 / 2,
                                    lam ** 3 - math.sqrt(10),
                                    9 + lam ** 2 / 2,
                                    lam ** 3 + math.sqrt(10),
                                    25 + lam ** 2 / 2]))


def test_example_intervals_and_perturbations():
    ex1, ex2, ex3 = example1(), example2(), example3()
    assert (ex1.lambda_minus, ex1.lambda_plus) == (-1.0, 1.0)
    assert (ex2.lambda_minus, ex2.lambda_plus) == (-0.5, 0.5)
    assert (ex3.lambda_minus, ex3.lambda_plus) == (-1.0, 1.0)
    assert ex1.problem().perturbation.scale == "lambda_squared"
    assert ex2.problem().perturbation.scale == "constant"
    assert ex3.problem().perturbation.scale == "constant"
    for ex in (ex1, ex2, ex3):
        assert ex.problem().perturbation.kind == "kepler"
        assert ex.problem().perturbation.a == 1.0
        assert ex.problem().index_rule.kind == "builtin"


def test_examples_are_the_problem_files_they_load():
    for name, make in CATALOG.items():
        ex = make()
        assert isinstance(ex, ProblemConfig)
        assert (ex.tol, ex.grid, ex.modes) == (1e-9, 512, 16), name


def test_config_path_resolves_bundled_files():
    for name in CATALOG:
        path = config_path(name)
        assert path.is_file()
    with pytest.raises(KeyError):
        config_path("example9")


def test_verification_rows_all_pass():
    rows = equideg.problems.verification_rows()
    assert len(rows) == 12
    names = [name for name, _ in rows]
    assert len(set(names)) == len(names)
    for name, fn in rows:
        ok, detail = fn()
        assert ok, f"{name}: {detail}"


def test_verification_rows_read_one_report_per_example(monkeypatch):
    # three reports and their three scans; eigh: the reports' 5 + 3 + 4,
    # two per j_k row (3) and one per spectrum row (2)
    counts = {"build_report": 0, "scan": 0, "eigh": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(equideg.config, "build_report",
                        counting("build_report", equideg.config.build_report))
    for module in (equideg.spectral, equideg.bifurcation):
        monkeypatch.setattr(module, "scan_resonances",
                            counting("scan", module.scan_resonances))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    for name, fn in equideg.problems.verification_rows():
        assert fn()[0], name
    assert counts == {"build_report": 3, "scan": 3, "eigh": 20}


def test_a_crashing_report_fails_every_row_that_reads_it(monkeypatch):
    # the raised exception is kept like a report: one build per example
    calls = []

    def crash(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("tampered")

    monkeypatch.setattr(equideg.config, "build_report", crash)
    rows = equideg.problems.verification_rows()
    passed = sorted(name for name, fn in rows if _outcome(fn))
    assert len(calls) == 3
    assert passed == [
        "example1: j_1 jumps 1 -> 2 across the interval",
        "example2: spectrum of A(0) meets the squares exactly in {4}",
        "example3: j_2 jumps 3 -> 4 across the interval",
        "example3: spectrum of A(0) meets the squares exactly in {4, 9, 25}"]


def test_verification_rows_read_the_report_analyze_prints(monkeypatch, capsys):
    # the same report as analyze --json, the file's options included:
    # example 2's [critical_points] gives its one consistency entry
    built = []

    def recording(*args, **kwargs):
        built.append(build_report(*args, **kwargs))
        return built[-1]

    printed = []
    for name in CATALOG:
        assert main(["analyze", str(config_path(name)), "--json"]) == 0
        printed.append(capsys.readouterr().out)
    monkeypatch.setattr(equideg.config, "build_report", recording)
    for name, fn in equideg.problems.verification_rows():
        assert fn()[0], name
    assert [json.dumps(r.to_json(), sort_keys=True, indent=2) + "\n"
            for r in built] == printed
    assert [len(r.consistency) for r in built] == [0, 1, 0]


def _outcome(fn):
    # a crashed check counts as failed, matching the command line
    try:
        return fn()[0]
    except Exception:
        return False


def test_verification_rows_catch_spectral_tampering(monkeypatch):
    # negative control: corrupting the j_k computation must flip rows red,
    # exactly the three that read j_k
    monkeypatch.setattr(equideg.spectral, "j_k", lambda A, k, tol=1e-9: 0)
    rows = equideg.problems.verification_rows()
    outcomes = {name: _outcome(fn) for name, fn in rows}
    assert sorted(name for name, ok in outcomes.items() if not ok) == [
        "example1: j_1 jumps 1 -> 2 across the interval",
        "example2: j_2 jumps 0 -> 1 and the single-resonance criterion fires",
        "example3: j_2 jumps 3 -> 4 across the interval"]


def test_verification_rows_catch_scan_tampering(monkeypatch):
    # the rows read the reports, whose scan is bifurcation's binding
    monkeypatch.setattr(equideg.bifurcation, "scan_resonances",
                        lambda *a, **k: [])
    rows = equideg.problems.verification_rows()
    outcomes = {name: _outcome(fn) for name, fn in rows}
    assert not outcomes["example2: predicted minimal period pi"]
    assert not outcomes["example1: interior resonance at 1 - sqrt2, period 2pi"]
