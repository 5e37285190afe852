"""Problem-file parsing."""

import dataclasses
import math

import numpy as np
import pytest

from equideg.bifurcation import Perturbation
from equideg.config import ConfigError, ProblemConfig
from equideg.galerkin import DEFAULT_MODES
from equideg.reps import RepDecomposition
from equideg.spectral import eigen_sym

MINIMAL = """\
[problem]
format_version = 1
n = 2
lambda_minus = -1
lambda_plus = 1

[matrix]
1 1 = 0:4
2 2 = 1:1 0:2
"""


def test_minimal_config_and_defaults():
    cfg = ProblemConfig.from_string(MINIMAL)
    assert cfg.problem().n == 2
    assert (cfg.lambda_minus, cfg.lambda_plus) == (-1.0, 1.0)
    assert cfg.problem().scaled is False
    assert cfg.tol == 1e-9
    assert cfg.grid == 512
    assert cfg.modes == DEFAULT_MODES == 16  # continue_to_infinity's default
    assert cfg.critical_points == {}
    assert cfg.flags == {}
    assert cfg.problem().perturbation.kind == "none"
    assert not cfg.problem().index_rule.available
    A = cfg.problem().family.eval_array(0.5)
    assert np.allclose(A, np.diag([4.0, 2.5]))


def test_problem_method_builds_spec():
    p = ProblemConfig.from_string(MINIMAL).problem()
    assert p.n == 2
    assert np.allclose(p.family.eval_array(-1.0), np.diag([4.0, 1.0]))


def test_a_file_holds_one_problem_spec():
    # built once at parse time and kept, also when options are replaced
    cfg = ProblemConfig.from_string(MINIMAL)
    assert cfg.problem() is cfg.problem()
    assert dataclasses.replace(cfg, tol=1e-6, grid=64).problem() is cfg.problem()
    assert {f.name for f in dataclasses.fields(cfg)}.isdisjoint(
        {"n", "family", "perturbation", "index_rule", "scaled"})


def test_named_constants_and_signs():
    text = MINIMAL.replace("1 1 = 0:4", "1 1 = 0:sqrt2 1:-sqrt10 2:+pi")
    cfg = ProblemConfig.from_string(text)
    A = cfg.problem().family.eval_array(1.0)
    assert A[0, 0] == pytest.approx(math.sqrt(2) - math.sqrt(10) + math.pi,
                                    abs=1e-15)


def test_repeated_power_accumulates():
    text = MINIMAL.replace("1 1 = 0:4", "1 1 = 0:1 0:2.5")
    cfg = ProblemConfig.from_string(text)
    assert cfg.problem().family.eval_array(0.0)[0, 0] == 3.5


def test_offdiagonal_mirroring():
    text = MINIMAL + "1 2 = 0:1\n"
    cfg = ProblemConfig.from_string(text)
    A = cfg.problem().family.eval_array(0.0)
    assert A[0, 1] == A[1, 0] == 1.0
    # both triangles may be present when they agree
    both = text + "2 1 = 0:1\n"
    assert ProblemConfig.from_string(both).problem().family.eval_array(0.0)[1, 0] == 1.0


def test_offdiagonal_mirror_conflict():
    text = MINIMAL + "1 2 = 0:1\n2 1 = 0:2\n"
    with pytest.raises(ConfigError, match="mirror"):
        ProblemConfig.from_string(text)


def test_matrix_entry_errors():
    bad_key = MINIMAL.replace("1 1 = 0:4", "1 = 0:4")
    with pytest.raises(ConfigError, match="'i j'"):
        ProblemConfig.from_string(bad_key)
    with pytest.raises(ConfigError, match="indices must be integers"):
        ProblemConfig.from_string(MINIMAL + "a b = 0:1\n")
    out_of_range = MINIMAL + "3 1 = 0:1\n"
    with pytest.raises(ConfigError, match="outside"):
        ProblemConfig.from_string(out_of_range)
    bad_term = MINIMAL.replace("0:4", "4")
    with pytest.raises(ConfigError, match="power:coefficient"):
        ProblemConfig.from_string(bad_term)
    bad_power = MINIMAL.replace("0:4", "x:4")
    with pytest.raises(ConfigError, match="power"):
        ProblemConfig.from_string(bad_power)
    neg_power = MINIMAL.replace("0:4", "-1:4")
    with pytest.raises(ConfigError, match="negative power"):
        ProblemConfig.from_string(neg_power)
    bad_coeff = MINIMAL.replace("0:4", "0:sqrte")
    with pytest.raises(ConfigError, match="sqrte"):
        ProblemConfig.from_string(bad_coeff)
    empty = MINIMAL.replace("0:4", "")
    with pytest.raises(ConfigError, match="empty polynomial"):
        ProblemConfig.from_string(empty)


def test_problem_section_errors():
    with pytest.raises(ConfigError, match="missing"):
        ProblemConfig.from_string("[matrix]\n1 1 = 0:1\n")
    with pytest.raises(ConfigError, match="format_version"):
        ProblemConfig.from_string(MINIMAL.replace("format_version = 1",
                                                  "format_version = 7"))
    with pytest.raises(ConfigError, match="format_version"):
        ProblemConfig.from_string(MINIMAL.replace("format_version = 1\n", ""))
    with pytest.raises(ConfigError, match="positive"):
        ProblemConfig.from_string(MINIMAL.replace("n = 2", "n = 0"))
    swapped = MINIMAL.replace("lambda_minus = -1", "lambda_minus = 2")
    with pytest.raises(ConfigError, match="below"):
        ProblemConfig.from_string(swapped)
    with pytest.raises(ConfigError, match="matrix"):
        ProblemConfig.from_string(MINIMAL.split("[matrix]")[0])


def test_scaled_requires_pure_quadratic():
    text = MINIMAL.replace("[problem]", "[problem]\nscaled = true")
    with pytest.raises(ConfigError, match="scaled"):
        ProblemConfig.from_string(text)
    ok = """\
[problem]
format_version = 1
n = 1
lambda_minus = 0.4
lambda_plus = 1.6
scaled = true

[matrix]
1 1 = 2:4
"""
    cfg = ProblemConfig.from_string(ok)
    assert cfg.problem().scaled
    assert cfg.problem().scaled_base_matrix().entries[0, 0] == 4.0


def test_perturbation_parsing():
    text = MINIMAL + "\n[perturbation]\nkind = kepler\na = 2\nscale = lambda_squared\n"
    cfg = ProblemConfig.from_string(text)
    assert cfg.problem().perturbation.kind == "kepler"
    assert cfg.problem().perturbation.a == 2.0
    assert cfg.problem().perturbation.scale == "lambda_squared"
    for a in ("0", "nan", "inf"):
        with pytest.raises(ConfigError, match="^perturbation: .*positive"):
            ProblemConfig.from_string(text.replace("a = 2", f"a = {a}"))
    with pytest.raises(ConfigError, match="scale"):
        ProblemConfig.from_string(text.replace("lambda_squared", "cubic"))
    with pytest.raises(ConfigError, match="kind"):
        ProblemConfig.from_string(text.replace("kepler", "magnetic"))
    none = MINIMAL + "\n[perturbation]\nkind = none\n"
    assert ProblemConfig.from_string(none).problem().perturbation.kind == "none"


def test_kepler_scale_default_matches_the_library():
    # a problem file without `scale` gets Perturbation.kepler's default
    text = MINIMAL + "\n[perturbation]\nkind = kepler\na = 2\n"
    parsed = ProblemConfig.from_string(text).problem().perturbation
    direct = Perturbation.kepler(2.0)
    assert parsed.scale == direct.scale == "constant"
    X = np.array([[0.3, -1.2], [2.0, 0.5]])
    for lam in (-0.7, 0.0, 0.4):
        assert np.array_equal(parsed.gradient_many(X, lam),
                              direct.gradient_many(X, lam))


def test_index_rule_parsing():
    for rule in ("builtin", "unavailable"):
        text = MINIMAL + f"\n[index]\nrule = {rule}\n"
        assert ProblemConfig.from_string(text).problem().index_rule.kind == rule
    value = MINIMAL + "\n[index]\nrule = value\nvalue = -1\n"
    cfg = ProblemConfig.from_string(value)
    assert cfg.problem().index_rule.ind_of(eigen_sym(np.eye(2)), 0.0) == -1
    with pytest.raises(ConfigError, match="value"):
        ProblemConfig.from_string(MINIMAL + "\n[index]\nrule = value\n")
    with pytest.raises(ConfigError, match="rule"):
        ProblemConfig.from_string(MINIMAL + "\n[index]\nrule = magic\n")


def test_options_validation():
    for tol in ("0", "nan"):
        with pytest.raises(ConfigError, match="tol"):
            ProblemConfig.from_string(MINIMAL + f"\n[options]\ntol = {tol}\n")
    with pytest.raises(ConfigError, match="grid"):
        ProblemConfig.from_string(MINIMAL + "\n[options]\ngrid = 1\n")
    with pytest.raises(ConfigError, match="modes"):
        ProblemConfig.from_string(MINIMAL + "\n[options]\nmodes = 0\n")
    cfg = ProblemConfig.from_string(
        MINIMAL + "\n[options]\ntol = 1e-8\ngrid = 128\nmodes = 24\n")
    assert (cfg.tol, cfg.grid, cfg.modes) == (1e-8, 128, 24)


@pytest.mark.parametrize("key, value", [
    ("options.grid", "abc"), ("options.modes", "1.5"), ("options.tol", "x"),
    ("problem.scaled", "maybe")])
def test_malformed_values_name_section_and_key(key, value):
    section, name = key.split(".")
    text = (MINIMAL + "\n[options]\n").replace(f"[{section}]",
                                              f"[{section}]\n{name} = {value}")
    with pytest.raises(ConfigError, match=f"^{key}: {value!r} is not"):
        ProblemConfig.from_string(text)


@pytest.mark.parametrize("key, text", [
    ("options.tol", MINIMAL + "\n[options]\ntol = inf\n"),
    ("problem.lambda_minus", MINIMAL.replace("lambda_minus = -1",
                                             "lambda_minus = -inf")),
    ("problem.lambda_minus", MINIMAL.replace("lambda_minus = -1",
                                             "lambda_minus = nan")),
    ("problem.lambda_plus", MINIMAL.replace("lambda_plus = 1",
                                            "lambda_plus = inf"))] + [
    ("matrix.1 1", MINIMAL.replace("1 1 = 0:4", f"1 1 = {terms}"))
    for terms in ("0:nan", "0:inf", "1:inf 0:1", "0:1e400", "0:1e308 0:1e308")],
    ids=["tol-inf", "lambda_minus-inf", "lambda_minus-nan", "lambda_plus-inf",
         "matrix-nan", "matrix-inf", "matrix-inf-power-1", "matrix-1e400",
         "matrix-sum-overflows"])
def test_nonfinite_values_name_their_key(key, text):
    with pytest.raises(ConfigError, match=f"^{key}: must be .*finite"):
        ProblemConfig.from_string(text)


def test_critical_points_parsing():
    text = MINIMAL + "\n[critical_points]\nOrigin = 2,1 1,3\nsaddle =\n"
    cfg = ProblemConfig.from_string(text)
    assert set(cfg.critical_points) == {"Origin", "saddle"}  # case preserved
    assert cfg.critical_points["Origin"] == RepDecomposition(((2, 1), (1, 3)))
    assert cfg.critical_points["saddle"] == RepDecomposition(())
    with pytest.raises(ConfigError, match="mult,freq"):
        ProblemConfig.from_string(MINIMAL + "\n[critical_points]\np = 1:2\n")


def test_flags_parsing():
    text = MINIMAL + "\n[flags]\nzero_set_bounded = true\nextra = no\n"
    cfg = ProblemConfig.from_string(text)
    assert cfg.flags == {"zero_set_bounded": True, "extra": False}
    with pytest.raises(ConfigError, match="boolean"):
        ProblemConfig.from_string(MINIMAL + "\n[flags]\nx = maybe\n")


def test_inline_comments_are_stripped():
    text = MINIMAL.replace("1 1 = 0:4", "1 1 = 0:4  # asymptotic block")
    assert ProblemConfig.from_string(text).problem().family.eval_array(0.0)[0, 0] == 4.0


@pytest.mark.parametrize("text", [
    "n = 2\n" + MINIMAL,
    MINIMAL.replace("n = 2\n", "n = 2\nn = 3\n"),
    MINIMAL + "\n[matrix]\n1 1 = 0:5\n",
    MINIMAL + "stray line\n",
    MINIMAL.replace("n = 2", "n = 2%"),
], ids=["no-header", "duplicate-option", "duplicate-section", "no-option", "percent"])
def test_unparsable_text_raises_config_error(text, tmp_path):
    # no section header, a duplicate option or section, a line that is no
    # option (configparser.Error); a '%' is read as it stands, so n = 2%
    # is no integer
    path = tmp_path / "problem.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError):
        ProblemConfig.from_string(text)
    with pytest.raises(ConfigError):
        ProblemConfig.from_file(path)


def test_from_file(tmp_path):
    path = tmp_path / "problem.cfg"
    path.write_text(MINIMAL)
    cfg = ProblemConfig.from_file(path)
    assert cfg.problem().n == 2
