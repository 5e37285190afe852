"""Command-line interface: exit codes, output formats, error reporting."""

import json
import time
import warnings

import pytest

import equideg.cli
import equideg.config
import equideg.galerkin
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


# A(lambda) = diag(4, 2 + lambda): det(A - 2^2 Id) vanishes on the interval
FLAT = """\
[problem]
format_version = 1
n = 2
lambda_minus = -0.5
lambda_plus = 0.5

[matrix]
1 1 = 0:4
2 2 = 0:2 1:1

[perturbation]
kind = kepler
a = 1
scale = constant

[index]
rule = builtin
"""


# A(lambda) = 4 + lambda on [0, 1]: resonant at k = 2 at the left endpoint
RESONANT_END = QUIET.replace("lambda_minus = -1", "lambda_minus = 0").replace(
    "1 1 = 0:2", "1 1 = 0:4 1:1")

# A(lambda) = lambda^2 diag(1, 4) on [0.4, 1.1]: points 1/2 (alpha 4, k 1)
# and 1, where alpha = 1 with k = 1 and alpha = 4 with k = 2 coincide
SCALED = (QUIET.replace("\nn = 1", "\nn = 2")
          .replace("lambda_minus = -1", "lambda_minus = 0.4")
          .replace("lambda_plus = 1", "lambda_plus = 1.1\nscaled = true")
          .replace("1 1 = 0:2", "1 1 = 2:1\n2 2 = 2:4")
          .replace("constant", "lambda_squared"))


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


@pytest.mark.parametrize("text, rc, lines", [
    (RESONANT_END, 2, ["  undefined coordinates at k in [2] (resonant endpoint)"]),
    (SCALED, 0, ["  scaled-family point lambda0 = 0.5: Z_1 jump 1",
                 "  scaled-family point lambda0 = 1: Z_1 jump 1",
                 "  scaled-family point lambda0 = 1: Z_2 jump 1"])],
    ids=["resonant-endpoint", "scaled-family"])
def test_analyze_human_output_lines(text, rc, lines, tmp_path, capsys):
    path = tmp_path / "problem.cfg"
    path.write_text(text)
    assert main(["analyze", str(path)]) == rc
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)


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


@pytest.mark.parametrize("text, message", [
    ("n = 4\n" + QUIET, "File contains no section headers. file: "),
    (QUIET.replace("\nn = 1\n", "\nn = 1\nn = 2\n"), "option 'n' in section 'problem' already"),
    (QUIET + "\n[matrix]\n1 1 = 0:3\n", "section 'matrix' already exists"),
    (QUIET.replace("\nn = 1\n", "\nn = 1%\n"), "error: problem.n: '1%' is not an integer"),
], ids=["no-header", "duplicate-option", "duplicate-section", "percent"])
@pytest.mark.parametrize("command", ["analyze", "continue"])
def test_unparsable_problem_file_exits_one(command, text, message, tmp_path, capsys):
    # configparser's own errors are no ValueError; they used to escape main
    # as a traceback
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "continue":
        argv += ["--resonance", "0", "--amplitudes", "4",
                 "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "-1"],
                                    ["--grid", "1"]])
def test_analyze_bad_override_exits_one(option, capsys):
    rc = main(["analyze", str(config_path("example2"))] + option)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "must" in err


@pytest.mark.parametrize("command", ["analyze", "continue"])
def test_infinite_tol_exits_one(command, tmp_path, capsys):
    # --tol inf, and tol = inf in a problem file, used to end in an
    # OverflowError traceback (analyze) or "no resonance" (continue)
    path = tmp_path / "inf.cfg"
    path.write_text(config_path("example2").read_text().replace(
        "tol = 1e-9", "tol = inf"))
    argv = {"analyze": ["analyze", str(path)],
            "continue": ["continue", str(path), "--resonance", "0",
                         "--amplitudes", "4", "--out",
                         str(tmp_path / "b.csv")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: options.tol: must be")
    if command == "analyze":
        assert main(["analyze", str(config_path("example2")), "--tol", "inf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tol must be positive and finite")


def test_infinite_endpoint_names_its_key(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text(config_path("example2").read_text().replace(
        "lambda_minus = -0.5", "lambda_minus = -inf"))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: problem.lambda_minus: must be finite, got -inf\n"


# diag(lambda / 2, lambda^2 + 0.5): three interior resonances, so eqcont1 reads
# the index; j_0 is 1 at lambda = -1 and 2 at lambda = 1
CONTRADICTED = QUIET.replace("1 1 = 0:2", "1 1 = 1:0.5\n2 2 = 0:0.5 2:1").replace(
    "\nn = 1", "\nn = 2").replace("rule = builtin", "rule = value\nvalue = -1")


def test_analyze_supplied_index_contradicting_the_spectrum_exits_one(tmp_path, capsys):
    path = tmp_path / "contradicted.cfg"
    path.write_text(CONTRADICTED)
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the index at infinity -1 supplied at lambda = 1 contradicts "
                   "the spectrum: A(1) is nonresonant, so the index is (-1)^j_0 = 1\n")
    path.write_text(CONTRADICTED.replace("value = -1", "value = 1"))
    assert main(["analyze", str(path)]) == 1
    assert "supplied at lambda = -1 " in capsys.readouterr().err


def test_analyze_checks_a_supplied_index_that_the_settling_criterion_never_reads(
        tmp_path, capsys):
    # eqcont2 settles example 2 without the index, but A(-0.5) = diag(3.5, 2, 2, 2)
    # is nonresonant, so the index there is (-1)^j_0 = 1, not the supplied -1
    path = tmp_path / "example2_value.cfg"
    path.write_text(config_path("example2").read_text().replace(
        "rule = builtin", "rule = value\nvalue = -1"))
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the index at infinity -1 supplied at lambda = -0.5 contradicts "
                   "the spectrum: A(-0.5) is nonresonant, so the index is (-1)^j_0 = 1\n")


# A(lambda) = lambda^2 diag(4, 4): scaled-family points k/2, so 1.0 and 1.5
# fall on window ends
SCALED_ENDS = (SCALED.replace("lambda_minus = 0.4", "lambda_minus = 1.0")
               .replace("2:1\n", "2:4\n"))


@pytest.mark.parametrize("lp, rc, criterion", [
    ("1.5", 2, "criterion none did not fire"),
    ("1.4", 2, "criterion none did not fire"),
    ("1.6", 0, "criterion eqcont3 fired: 1 bifurcation point(s)")])
def test_analyze_counts_scaled_points_strictly_inside_the_window(lp, rc, criterion,
                                                                 tmp_path, capsys):
    path = tmp_path / "scaled.cfg"
    path.write_text(SCALED_ENDS.replace("lambda_plus = 1.1", f"lambda_plus = {lp}"))
    with warnings.catch_warnings():
        # diag(4, 4) crosses 9 twice at 1.5, so det(A - 9 Id) does not change sign
        warnings.simplefilter("ignore", equideg.spectral.TangencyWarning)
        assert main(["analyze", str(path)]) == rc
    out = capsys.readouterr().out
    assert criterion in out
    assert ("scaled-family point lambda0 = 1.5: Z_3 jump 2" in out) == (rc == 0)


@pytest.mark.parametrize("command", ["analyze", "continue"])
def test_non_isolated_resonance_exits_one(command, tmp_path, capsys):
    # NonIsolatedResonanceError is a RuntimeError; it used to escape main
    # as a traceback
    path = tmp_path / "flat.cfg"
    path.write_text(FLAT)
    argv = [command, str(path)]
    if command == "continue":
        argv += ["--resonance", "0", "--amplitudes", "4",
                 "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: det(A(lambda) - 2^2 Id) vanishes on a subinterval")


@pytest.mark.parametrize("n, entry, count", [
    # j_k at the upper endpoint for every k below 1e10
    ("1", "1 1 = 0:0.5 1:1e20", "1e+10"),
    # eigenvalues +-1e308 with a tolerance of 1e299: about 1e145 squares
    # lie within tolerance of the top one
    ("2", "1 2 = 0:1e308", "1e+145")])
def test_too_many_frequencies_exit_one(n, entry, count, tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text(QUIET.replace("\nn = 1", f"\nn = {n}").replace("1 1 = 0:2", entry))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err == (f"error: enumerating {count} frequencies k "
                                       "exceeds MAX_FREQUENCIES = 1000000\n")


def test_failed_eigen_decomposition_exits_one(monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise equideg.spectral.EigenConvergenceError(
            "eigen decomposition failed: did not converge")

    monkeypatch.setattr(equideg.config, "build_report", fails)
    assert main(["analyze", str(config_path("example2"))]) == 1
    assert capsys.readouterr().err == \
        "error: eigen decomposition failed: did not converge\n"


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


def test_continue_takes_each_period_divisor_once(monkeypatch, tmp_path, capsys):
    # the CSV and the JSON summary both read BranchPoint.minimal_period_divisor;
    # the command line keeps no binding of the function of its own
    calls, divisor = [], equideg.galerkin.minimal_period_divisor
    for module in (equideg.galerkin, equideg.cli):
        monkeypatch.setattr(module, "minimal_period_divisor",
                            lambda loop: calls.append(loop) or divisor(loop), raising=False)
    out_csv = tmp_path / "branch.csv"
    assert main(["continue", str(config_path("example2")), "--resonance", "0",
                 "--amplitudes", "1,2,4", "--modes", "8", "--out", str(out_csv)]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    rows = out_csv.read_text().splitlines()[2:]
    assert len(calls) == len(points) == len(rows) == 3
    assert [pt["min_period_divisor"] for pt in points] \
        == [int(float(row.split(",")[3])) for row in rows] == [2, 2, 2]


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


SUB_SPACING_TOL = """\
[problem]
format_version = 1
n = 2
lambda_minus = -0.5
lambda_plus = 0.5

[matrix]
1 1 = 0:4.0123 1:0.6
1 2 = 0:0.3 1:0.8
2 2 = 0:2.5 1:-0.6

[perturbation]
kind = kepler
a = 1

[index]
rule = builtin

[options]
tol = 1e-19
"""


def test_continue_with_tol_below_the_float_spacing_exits_zero(tmp_path, capsys):
    # the scan's bisection used to run without end once its bracket's ends
    # were adjacent floats, still wider than tol
    path = tmp_path / "subtol.cfg"
    path.write_text(SUB_SPACING_TOL)
    rc = main(["continue", str(path), "--resonance", "-0.0831526821",
               "--amplitudes", "4", "--out", str(tmp_path / "branch.csv")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_continue_unknown_resonance_exits_one(capsys):
    rc = main(["continue", str(config_path("example2")),
               "--resonance", "0.37", "--amplitudes", "1,2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no resonance" in err
    assert "0" in err  # the available point is listed


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_continue_infinite_resonance_exits_one(value, tmp_path, capsys):
    # an infinite target used to match every scanned point and continue the
    # first one
    out = tmp_path / "branch.csv"
    rc = main(["continue", str(config_path("example2")),
               f"--resonance={value}", "--amplitudes", "4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: --resonance must be finite, got {value}\n"
    assert not out.exists()


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
    # from about 1e61 the Kepler Hessian overflows at the first Jacobian,
    # and from 1e200 the rescaled seed's residual or lambda column too; the
    # overflow fails the point: the marker keeps its seed's period divisor,
    # nothing is printed (no numpy RuntimeWarning, no LAPACK complaint) and
    # the converged point before it is kept
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out_csv = tmp_path / "branch.csv"
    for big in ("1e70", "1e100", "1e200", "1e307", "1e308", "1.7e308"):
        rc = main(["continue", str(config_path("example2")), "--resonance", "0",
                   "--amplitudes", f"4,{big}", "--out", str(out_csv)])
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

    def crash(A, k, tol=1e-9):
        raise RuntimeError("tampered")

    # a row that raises is a failed row, with the exception in its detail
    monkeypatch.setattr(equideg.spectral, "j_k", crash)
    rc = main(["verify-examples"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert sum(l.startswith("FAIL") and l.endswith("  [RuntimeError: tampered]")
               for l in lines) == 3


# -------------------------------------------------------------------- parsing

def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_continue_requires_resonance_and_amplitudes():
    with pytest.raises(SystemExit):
        main(["continue", str(config_path("example2"))])
