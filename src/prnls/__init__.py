"""Solitary waves of the pseudo-relativistic NLS near the non-relativistic limit.

Spectral construction of ground states, contraction-mapping solutions at
finite wave speed, half-space identity diagnostics, and non-existence
certificates, with a CSV-emitting command-line front end.
"""

__version__ = "0.1.0"

from .diagnostics import (Certificate, ExtensionWeights, IdentityReport, RateFit,
                          action, check_identities, extension_weights, fit_rate,
                          nonexistence_certificate, trace_inequality_check)
from .errors import CollapseError, ConfigError, ConvergenceError, SolverError
from .fixed_point import SolveReport, solve
from .ground_state import GroundState, limit_residual, solve_limit_equation
from .linsolve import LinearizedOperator, invert, linearized_operator, operator_norm_probe
from .params import (PhysicalParams, ReducedParams, ToleranceSet, lift_solution,
                     reduce_params)
from .spectral import Field, Grid, read_field, write_field

__all__ = [
    "__version__",
    "Certificate", "ExtensionWeights", "IdentityReport", "RateFit",
    "action", "check_identities", "extension_weights", "fit_rate",
    "nonexistence_certificate", "trace_inequality_check",
    "CollapseError", "ConfigError", "ConvergenceError", "SolverError",
    "SolveReport", "solve",
    "GroundState", "limit_residual", "solve_limit_equation",
    "LinearizedOperator", "invert", "linearized_operator", "operator_norm_probe",
    "PhysicalParams", "ReducedParams", "ToleranceSet", "lift_solution", "reduce_params",
    "Field", "Grid", "read_field", "write_field",
]
