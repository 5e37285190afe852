"""Command-line interface: exit codes, output formats, error reporting."""

import json

import numpy as np
import pytest

import equideg.spectral
from equideg.cli import main
from equideg.problems import config_path

QUIET = """\
[problem]
format_version = 1
n = 1
lambda_minus = -1
lambda_plus = 1

[matrix]
1 1 = 0:2

[perturbation]
kind = kepler
a = 1
scale = constant

[index]
rule = builtin
"""


@pytest.fixture
def quiet_cfg(tmp_path):
    path = tmp_path / "quiet.cfg"
    path.write_text(QUIET)
    return str(path)


# -------------------------------------------------------------------- analyze

def test_analyze_example2_fires_and_exits_zero(capsys):
    rc = main(["analyze", str(config_path("example2"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eqcont2(ii)" in out
    assert "lambda0 = 0" in out
    assert "pi" in out


def test_analyze_quiet_problem_exits_two(quiet_cfg, capsys):
    rc = main(["analyze", quiet_cfg])
    out = capsys.readouterr().out
    assert rc == 2
    assert "did not fire" in out


def test_analyze_missing_file_exits_one(capsys):
    rc = main(["analyze", "/no/such/file.cfg"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_analyze_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nn = 2\n")
    rc = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "format_version" in err


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "-1"],
                                    ["--grid", "1"]])
def test_analyze_bad_override_exits_one(option, capsys):
    rc = main(["analyze", str(config_path("example2"))] + option)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "must" in err


def test_analyze_json_is_deterministic(capsys):
    argv = ["analyze", str(config_path("example3")), "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["format_version"] == 1
    assert obj["criterion"]["name"] == "eqcont1(ii)"
    assert obj["bif"] == {"so2": 0, "zk": {"2": 1}}
    assert len(obj["resonances"]) == 2


def test_analyze_accepts_tol_and_grid_overrides(capsys):
    rc = main(["analyze", str(config_path("example2")),
               "--tol", "1e-8", "--grid", "256", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["endpoint_spectra"]["minus"]["tol"] == pytest.approx(1e-8 * 4.5)


# ------------------------------------------------------------------- continue

def test_continue_example2_writes_branch(tmp_path, capsys):
    out_csv = tmp_path / "branch.csv"
    rc = main(["continue", str(config_path("example2")),
               "--resonance", "0", "--amplitudes", "1,2", "--modes", "8",
               "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert rc == 0
    summary = json.loads(out)
    assert summary["converged"] is True
    assert summary["lambda0"] == pytest.approx(0.0, abs=1e-9)
    assert summary["frequencies"] == [2]
    assert [pt["min_period_divisor"] for pt in summary["points"]] == [2, 2]
    assert summary["lambda_drift"][1] < summary["lambda_drift"][0]
    assert summary["sup_tail_drift"] is not None
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2 + 2  # comment, header, two points


def test_continue_reports_newton_trace_per_point(tmp_path, capsys):
    rc = main(["continue", str(config_path("example2")),
               "--resonance", "0", "--amplitudes", "1,2", "--modes", "8",
               "--out", str(tmp_path / "branch.csv")])
    points = json.loads(capsys.readouterr().out)["points"]
    assert rc == 0
    for pt in points:
        assert pt["newton_steps"] >= 1
        assert 1.0 <= pt["jacobian_cond"] < 1e14
        assert 0.0 <= pt["energy_drift"] < 1.0


def test_continue_unknown_resonance_exits_one(capsys):
    rc = main(["continue", str(config_path("example2")),
               "--resonance", "0.37", "--amplitudes", "1,2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no resonance" in err
    assert "0" in err  # the available point is listed


def test_continue_bad_amplitudes_exit_one(capsys):
    base = ["continue", str(config_path("example2")), "--resonance", "0"]
    assert main(base + ["--amplitudes", "2,1"]) == 1
    assert "increasing" in capsys.readouterr().err
    assert main(base + ["--amplitudes", "a,b"]) == 1
    assert "number list" in capsys.readouterr().err


def test_continue_nonpositive_amplitudes_exit_one(capsys):
    base = ["continue", str(config_path("example2")), "--resonance", "0"]
    for amplitudes in ("0,1", "-2,-1", "1,nan"):
        assert main(base + [f"--amplitudes={amplitudes}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: amplitudes must be positive")


def test_continue_failed_point_is_standard_json(tmp_path, capsys):
    # example 3 at lambda0 = 0 fails at its first amplitude; the summary
    # must still parse without the non-standard constants Infinity and NaN
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out_csv = tmp_path / "branch.csv"
    rc = main(["continue", str(config_path("example3")), "--resonance", "0",
               "--amplitudes", "1", "--modes", "4", "--out", str(out_csv)])
    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert rc == 1
    [pt] = summary["points"]
    assert pt["failed"] is True and pt["residual_norm"] is None
    row = out_csv.read_text().splitlines()[2].split(",")
    assert row[2] == "inf"  # the CSV keeps the failed point's residual


def test_continue_overflowing_amplitude_keeps_the_converged_points(tmp_path,
                                                                   capfd):
    # at 1e200 the rescaled seed's lambda column is of order 1e200, so the
    # first Newton step finds the augmented Jacobian rank deficient; the
    # marker keeps its seed's period divisor, nothing overflows on the way
    # (no numpy RuntimeWarning, no LAPACK complaint) and the converged
    # point before it is kept
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out_csv = tmp_path / "branch.csv"
    rc = main(["continue", str(config_path("example2")), "--resonance", "0",
               "--amplitudes", "4,1e200", "--out", str(out_csv)])
    out, err = capfd.readouterr()
    assert rc == 1
    first, second = json.loads(out, parse_constant=reject)["points"]
    assert not first["failed"] and first["residual_norm"] <= 1e-10
    assert second["failed"] is True and second["residual_norm"] is None
    assert second["min_period_divisor"] == 2
    assert len(out_csv.read_text().splitlines()) == 2 + 2
    assert err == ""


def test_continue_infinite_amplitude_exits_one(tmp_path, capsys):
    rc = main(["continue", str(config_path("example2")), "--resonance", "0",
               "--amplitudes", "4,inf", "--out", str(tmp_path / "branch.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: amplitudes must be positive")


def test_continue_bad_modes_exit_one(tmp_path, capsys):
    base = ["continue", str(config_path("example2")), "--resonance", "0",
            "--amplitudes", "1,2", "--out", str(tmp_path / "branch.csv")]
    for modes, message in (("1", "k0 = 2"), ("-3", "modes = -3"),
                           ("0", "modes = 0")):
        assert main(base + [f"--modes={modes}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


# ------------------------------------------------------------ verify-examples

def test_verify_examples_all_pass(capsys):
    rc = main(["verify-examples"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 12
    assert all(l.startswith("PASS") for l in lines)


def test_verify_examples_json(capsys):
    rc = main(["verify-examples", "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["all_pass"] is True
    assert len(obj["rows"]) == 12


def test_verify_examples_fails_under_tampering(monkeypatch, capsys):
    # corrupt the eigenvalue counting: the table must go red and exit 1
    monkeypatch.setattr(equideg.spectral, "j_k", lambda A, k, tol=1e-9: 0)
    rc = main(["verify-examples"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


# -------------------------------------------------------------------- parsing

def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_continue_requires_resonance_and_amplitudes():
    with pytest.raises(SystemExit):
        main(["continue", str(config_path("example2"))])
