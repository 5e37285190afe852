"""Declarative problem files.

INI-style sections describe one analysis problem:

    [problem]                      [matrix]
    format_version = 1             1 1 = 2:1 0:-1
    n = 4                          2 2 = 1:1 0:sqrt2
    lambda_minus = -1              ...
    lambda_plus = 1
    scaled = false                 [perturbation]
                                   kind = kepler
    [index]                        a = 1
    rule = builtin                 scale = lambda_squared

    [options]                      [critical_points]
    tol = 1e-9                     origin = 1,2 1,3
    grid = 512
    modes = 16                     [flags]
                                   zero_set_bounded = true

Matrix entries are polynomials in lambda, written as space-separated
``power:coefficient`` terms with 1-based ``i j`` keys; a coefficient is a
decimal literal or an optionally signed named constant (pi, sqrt2, sqrt5,
sqrt10) resolved to full double precision at parse time.  Off-diagonal
entries may be given once and are mirrored; giving both triangles is
allowed only when they agree.
"""

import configparser
import math
from dataclasses import dataclass, field

from .bifurcation import (FORMAT_VERSION, IndexRule, Perturbation, ProblemSpec,
                          build_report)
from .galerkin import DEFAULT_MODES
from .reps import RepDecomposition
from .spectral import DEFAULT_GRID, DEFAULT_TOL, MatrixFamily

NAMED_CONSTANTS = {
    "pi": math.pi,
    "sqrt2": math.sqrt(2.0),
    "sqrt5": math.sqrt(5.0),
    "sqrt10": math.sqrt(10.0),
}


class ConfigError(ValueError):
    """Problem file is malformed; the message names section and key."""


def _coefficient(token, where):
    sign = 1.0
    body = token
    if body and body[0] in "+-":
        sign = -1.0 if body[0] == "-" else 1.0
        body = body[1:]
    if body in NAMED_CONSTANTS:
        return sign * NAMED_CONSTANTS[body]
    try:
        return sign * float(body)
    except ValueError:
        raise ConfigError(
            f"{where}: coefficient {token!r} is neither a number nor one of "
            f"{sorted(NAMED_CONSTANTS)}") from None


def _entry_terms(value, where):
    terms = {}
    for tok in value.split():
        if ":" not in tok:
            raise ConfigError(f"{where}: term {tok!r} is not power:coefficient")
        ptxt, ctxt = tok.split(":", 1)
        try:
            power = int(ptxt)
        except ValueError:
            raise ConfigError(f"{where}: power {ptxt!r} is not an integer") from None
        if power < 0:
            raise ConfigError(f"{where}: negative power {power}")
        terms[power] = terms.get(power, 0.0) + _coefficient(ctxt, where)
    if not terms:
        raise ConfigError(f"{where}: empty polynomial")
    for c in terms.values():  # after summing: two finite terms may overflow
        if not math.isfinite(c):
            raise ConfigError(f"{where}: must be finite, got {c}")
    return terms


@dataclass(frozen=True, eq=False)
class ProblemConfig:
    """One problem file: the system it states, one ProblemSpec built at
    parse time, and the window and options it analyzes that system with."""

    _spec: ProblemSpec
    lambda_minus: float
    lambda_plus: float
    tol: float = DEFAULT_TOL
    grid: int = DEFAULT_GRID
    modes: int = DEFAULT_MODES
    critical_points: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def problem(self):
        return self._spec

    def report(self):
        """The report ``analyze`` prints, with every option of the file."""
        return build_report(self.problem(), self.lambda_minus, self.lambda_plus,
                            tol=self.tol, grid=self.grid,
                            critical_points=self.critical_points, flags=self.flags)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls._parse(fh.read(), str(path))

    @classmethod
    def from_string(cls, text):
        return cls._parse(text, "<string>")

    @classmethod
    def _parse(cls, text, source):
        """The problem in ``text``; configparser's own errors (no section
        header, a duplicate option or section) as one-line ConfigErrors."""
        parser = _parser()
        try:
            parser.read_string(text, source)
            return cls._from_parser(parser)
        except configparser.Error as exc:
            raise ConfigError(" ".join(ln.strip() for ln in str(exc).splitlines())) from None

    @classmethod
    def _from_parser(cls, parser):
        if not parser.has_section("problem"):
            raise ConfigError("missing [problem] section")
        prob = parser["problem"]
        version = _get_int(prob, "format_version", "problem")
        if version != FORMAT_VERSION:
            raise ConfigError(f"problem.format_version: unsupported value {version}")
        n = _get_int(prob, "n", "problem")
        if n < 1:
            raise ConfigError("problem.n: must be positive")
        lm = _get_float(prob, "lambda_minus", "problem")
        lp = _get_float(prob, "lambda_plus", "problem")
        for key, value in (("lambda_minus", lm), ("lambda_plus", lp)):
            if not math.isfinite(value):
                raise ConfigError(f"problem.{key}: must be finite, got {value}")
        if not lm < lp:
            raise ConfigError(f"problem: lambda_minus={lm} must be below lambda_plus={lp}")
        scaled = _get_bool(prob, "scaled", "problem", False)

        family = _matrix_family(parser, n)
        pert = _perturbation(parser)
        rule = _index_rule(parser)

        opts = parser["options"] if parser.has_section("options") else {}
        tol = _get_float(opts, "tol", "options", cls.tol)
        if not 0 < tol < math.inf:
            raise ConfigError(f"options.tol: must be positive and finite, got {tol}")
        grid = _get_int(opts, "grid", "options", cls.grid)
        if grid < 2:
            raise ConfigError("options.grid: must be at least 2")
        modes = _get_int(opts, "modes", "options", cls.modes)
        if modes < 1:
            raise ConfigError("options.modes: must be positive")

        critical = {}
        if parser.has_section("critical_points"):
            for name, value in parser["critical_points"].items():
                critical[name] = _rep(value, f"critical_points.{name}")

        flags = {}
        if parser.has_section("flags"):
            for name in parser["flags"]:
                flags[name] = _get_bool(parser["flags"], name, "flags")

        # ProblemSpec's rules span sections
        spec = _built("problem", ProblemSpec, n, family, pert, rule, scaled)
        return cls(spec, lm, lp, tol, grid, modes, critical, flags)


def _parser():
    p = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                  interpolation=None)
    p.optionxform = str
    return p


def _get(section, key, name, default, convert, what):
    """section[key] through convert; default when the key is absent and a
    default is given."""
    if key not in section:
        if default is None:
            raise ConfigError(f"{name}.{key}: missing")
        return default
    try:
        return convert(section[key])
    except ValueError:
        raise ConfigError(f"{name}.{key}: {section[key]!r} is not {what}") from None


def _get_int(section, key, name, default=None):
    return _get(section, key, name, default, int, "an integer")


def _get_float(section, key, name, default=None):
    return _get(section, key, name, default, float, "a number")


def _get_bool(section, key, name, default=None):
    return _get(section, key, name, default, _boolean, "a boolean")


def _boolean(text):
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(text)
    return value


def _built(where, make, *args):
    """make(*args), with its ValueError re-raised as a ConfigError naming
    the section (or section.key) ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _matrix_family(parser, n):
    if not parser.has_section("matrix"):
        raise ConfigError("missing [matrix] section")
    entries = {}
    for key, value in parser["matrix"].items():
        parts = key.split()
        if len(parts) != 2:
            raise ConfigError(f"matrix.{key!r}: key must be 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"matrix.{key!r}: indices must be integers") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError(f"matrix.{key!r}: indices outside 1..{n}")
        terms = _entry_terms(value, f"matrix.{key}")
        canon = (min(i, j), max(i, j))
        if canon in entries and entries[canon] != terms:
            raise ConfigError(
                f"matrix.{key!r}: disagrees with its mirror entry "
                f"{canon[0]} {canon[1]}")
        entries[canon] = terms
    return MatrixFamily.from_entry_polynomials(n, entries)


def _perturbation(parser):
    if not parser.has_section("perturbation"):
        return Perturbation.none()
    sec = parser["perturbation"]
    kind = sec.get("kind", "none")
    if kind == "none":
        return Perturbation.none()
    if kind == "kepler":
        scale = [sec["scale"]] if "scale" in sec else []  # else kepler's default
        return _built("perturbation", Perturbation.kepler,
                      _get_float(sec, "a", "perturbation"), *scale)
    raise ConfigError(f"perturbation.kind: unknown value {kind!r}")


def _index_rule(parser):
    if not parser.has_section("index"):
        return IndexRule.unavailable()
    sec = parser["index"]
    rule = sec.get("rule", "unavailable")
    if rule == "builtin":
        return IndexRule.builtin()
    if rule == "unavailable":
        return IndexRule.unavailable()
    if rule == "value":
        return IndexRule.value(_get_int(sec, "value", "index"))
    raise ConfigError(f"index.rule: unknown value {rule!r}")


def _rep(value, where):
    parts = []
    for tok in value.split():
        try:
            j, k = (int(x) for x in tok.split(","))
        except ValueError:
            raise ConfigError(f"{where}: token {tok!r} is not 'mult,freq'") from None
        parts.append((j, k))
    return _built(where, RepDecomposition, sorted(parts, key=lambda jk: jk[1]))
