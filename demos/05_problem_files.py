"""Declarative problem files and the command line.

Systems are described in an INI dialect: matrix entries are polynomials
in lambda written as power:coefficient terms, perturbation and index rule
are named, and tolerances live in [options].  The same files drive the
`equideg` executable:

    equideg analyze problem.cfg --json
    equideg continue problem.cfg --resonance 0 --amplitudes 10,20,40
    equideg verify-examples
"""

from equideg.config import ProblemConfig
from equideg.problems import config_path
from equideg import build_report

TEXT = """
[problem]
format_version = 1
n = 2
lambda_minus = -0.5
lambda_plus = 0.5

[matrix]
1 1 = 0:4 1:1        # 4 + lambda crosses 2^2 at lambda = 0
2 2 = 0:sqrt2        # constants may be named
1 2 = 0:0.25         # off-diagonal entries are mirrored

[perturbation]
kind = kepler
a = 1
scale = constant

[index]
rule = builtin

[options]
tol = 1e-9
grid = 512
"""

cfg = ProblemConfig.from_string(TEXT)
print("parsed: n =", cfg.problem().n, "interval =", (cfg.lambda_minus, cfg.lambda_plus))
print("A(0.1) =")
print(cfg.problem().family.eval_array(0.1))

report = build_report(cfg.problem(), cfg.lambda_minus, cfg.lambda_plus,
                      tol=cfg.tol, grid=cfg.grid)
print("\ncriterion:", report.criterion.name, "->", report.criterion.message)
print("index    :", report.bif)

# The bundled example files are regular data files on disk:
print("\nbundled files:")
for name in ("example1", "example2", "example3"):
    print(" ", config_path(name))
