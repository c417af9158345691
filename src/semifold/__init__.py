"""Radial solver for forced semilinear problems on the whole space with a
decaying weight: first eigenpair, ordered sub/supersolution iteration,
continuation in the forcing coefficient, and fold location.
"""

__version__ = "0.1.0"

from .config import (CANONICAL_CONFIG, ScenarioConfig, build_scenario_instance,
                     canonical_instance, load_config, parse_config)
from .continuation import (FoldPoint, certified_below, find_fold,
                           fold_branch, refine_fold, two_solutions)
from .eigen import EigenPair, first_eigenpair
from .errors import SemifoldError
from .grid import (RadialGrid, TridiagonalOperator, assemble_laplacian,
                   assemble_weight_mass, build_grid, dirichlet_energy,
                   solve_tridiagonal, weighted_integral)
from .nonlinear import (certify, jacobian, monotone_newton, monotone_rise,
                        newton_solve, picard_solve, residual)
from .problem import (ForcingSpec, NonlinearitySpec, ProblemInstance,
                      check_P1, check_P2, derive_slack_constants,
                      linear_nonlinearity, smooth_ramp_nonlinearity)
from .subsuper import (OrderedInterval, SolutionProfile, build_subsolution,
                       monotone_iterate)
from .verify import (VerificationReport, check_comparison, e0_norm,
                     representation_residual, riesz_potential, tau_star,
                     verify_solution)

__all__ = [name for name in dir() if not name.startswith("_")]
