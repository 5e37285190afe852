"""Equivariant-degree bifurcation-from-infinity analysis for second-order
Hamiltonian systems, with a Fourier-Galerkin continuation harness."""

from .udring import ONE, ZERO, TomDieckElement, add, product, scalar_mul, star
from .reps import SO2, RepDecomposition, gcd_closure, isotropy_gcd_set, period_labels
from .spectral import (DEFAULT_GRID, DEFAULT_TOL, DegenerateSpectrumError,
                       EigenConvergenceError, MatrixFamily,
                       NonIsolatedResonanceError, ResolutionWarning,
                       ResonancePoint, SpectralData, TangencyWarning,
                       TooManyFrequenciesError, eigen_sym, j_k, k_set,
                       kernel_rep_at_infinity, morse_index,
                       resonant_frequencies, scan_resonances)
from .eqdeg import MissingIndexError, deg_id_minus_LA, ind_infinity
from .bifurcation import (AccumulationWarning, BifurcationReport,
                          CriterionVerdict, Eqcont3Point,
                          IndexContradictionError, IndexRule, Perturbation,
                          PreconditionError, ProblemSpec, bif_index,
                          build_report, check_eqcont1, check_eqcont2,
                          consistency_check, endpoint_degree, eqcont3_points)
from .galerkin import (DEFAULT_MODES, BranchPoint, DivergenceWarning,
                       FourierLoop, NewtonConvergenceError,
                       SingularJacobianError, continue_to_infinity,
                       energy_drift, minimal_period, minimal_period_divisor,
                       newton_solve, residual, write_branch_csv)
from .config import ConfigError, ProblemConfig
from .problems import CATALOG, config_path, verification_rows

__version__ = "0.1.0"
