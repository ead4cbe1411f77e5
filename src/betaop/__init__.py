"""betaop: a transfer-operator laboratory for greedy beta-expansions with
quadratic bases beta^2 = a0*beta + a1 (integers a0 >= a1 >= 1).

Exact arithmetic in Q(beta) and exact piecewise-polynomial function algebra
make the operator identities verifiable with zero tolerance; numeric engines
(preimage trees, mpmath) cover smooth test functions and decay-rate fits.
"""

from .asymptotics import (ResidualSeries, TheoremParams, epsilon_of, fit_slope,
                          slope_or_nan, two_term_residual_exact,
                          two_term_residual_numeric)
from .bernoulli import (bernoulli_coeffs, bernoulli_piecewise, bernoulli_polynomial,
                        integer_base_expansion_residual,
                        integer_transfer_pointwise, periodized_eval)
from .catalog import SmoothFunction, builtin
from .field import BetaParams, QuadNum, quadnum_from_string
from .partition import (LevelPartition, PartitionPoint, building_block,
                        collapse_check, first_layer_point, intermediate_check,
                        lemmacrux_check, refine_to_level)
from .piecewise import PiecewisePoly, Polynomial, combine
from .spectral import (SpectralData, block_eigenvalues, expand_in_basis,
                       make_psi_basis, make_u_tilde, restriction_matrix,
                       riesz_projections)
from .transfer import (BudgetExceeded, GreedyDigits, apply_integer_transfer,
                       apply_transfer, apply_transfer_iterate, greedy_expand,
                       pointwise_transfer_power)

__version__ = "1.0.0"

__all__ = [
    "BetaParams", "QuadNum", "quadnum_from_string",
    "Polynomial", "PiecewisePoly", "combine",
    "apply_transfer", "apply_transfer_iterate", "apply_integer_transfer",
    "pointwise_transfer_power", "greedy_expand",
    "GreedyDigits", "BudgetExceeded",
    "bernoulli_coeffs", "bernoulli_polynomial", "bernoulli_piecewise",
    "periodized_eval", "integer_transfer_pointwise", "integer_base_expansion_residual",
    "SmoothFunction", "builtin",
    "make_psi_basis", "expand_in_basis", "restriction_matrix",
    "block_eigenvalues", "make_u_tilde",
    "SpectralData", "riesz_projections",
    "PartitionPoint", "LevelPartition", "first_layer_point", "refine_to_level",
    "building_block", "collapse_check", "intermediate_check", "lemmacrux_check",
    "ResidualSeries", "TheoremParams", "epsilon_of", "fit_slope", "slope_or_nan",
    "two_term_residual_exact", "two_term_residual_numeric",
    "__version__",
]
