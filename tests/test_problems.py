"""Built-in examples: matrices, bundled configs and verification rows."""

import math

import numpy as np
import pytest

import equideg.problems
import equideg.spectral
from equideg.problems import CATALOG, config_path, example1, example2, example3


def test_example_matrices():
    lam = 0.3
    A1 = example1().problem.family.eval_array(lam)
    assert np.allclose(A1, np.diag([lam ** 2 - 1, math.sqrt(2) + lam,
                                    lam - math.sqrt(2), math.sqrt(5) + lam]))
    A2 = example2().problem.family.eval_array(lam)
    assert np.allclose(A2, np.diag([4 + lam, 2, 2, 2]))
    A3 = example3().problem.family.eval_array(lam)
    assert np.allclose(A3, np.diag([4 + lam ** 2 / 2,
                                    lam ** 3 - math.sqrt(10),
                                    9 + lam ** 2 / 2,
                                    lam ** 3 + math.sqrt(10),
                                    25 + lam ** 2 / 2]))


def test_example_intervals_and_perturbations():
    ex1, ex2, ex3 = example1(), example2(), example3()
    assert (ex1.lm, ex1.lp) == (-1.0, 1.0)
    assert (ex2.lm, ex2.lp) == (-0.5, 0.5)
    assert (ex3.lm, ex3.lp) == (-1.0, 1.0)
    assert ex1.problem.perturbation.scale == "lambda_squared"
    assert ex2.problem.perturbation.scale == "constant"
    assert ex3.problem.perturbation.scale == "constant"
    for ex in (ex1, ex2, ex3):
        assert ex.problem.perturbation.kind == "kepler"
        assert ex.problem.perturbation.a == 1.0
        assert ex.problem.index_rule.kind == "builtin"


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


def _outcome(fn):
    # a crashed check counts as failed, matching the command line
    try:
        return fn()[0]
    except Exception:
        return False


def test_verification_rows_catch_spectral_tampering(monkeypatch):
    # negative control: corrupting the j_k computation must flip rows red
    monkeypatch.setattr(equideg.spectral, "j_k", lambda A, k, tol=1e-9: 0)
    rows = equideg.problems.verification_rows()
    outcomes = {name: _outcome(fn) for name, fn in rows}
    assert not outcomes["example1: j_1 jumps 1 -> 2 across the interval"]
    assert not outcomes["example3: j_2 jumps 3 -> 4 across the interval"]


def test_verification_rows_catch_scan_tampering(monkeypatch):
    monkeypatch.setattr(equideg.spectral, "scan_resonances",
                        lambda *a, **k: [])
    rows = equideg.problems.verification_rows()
    outcomes = {name: _outcome(fn) for name, fn in rows}
    assert not outcomes["example2: predicted minimal period pi"]
    assert not outcomes["example1: interior resonance at 1 - sqrt2, period 2pi"]
