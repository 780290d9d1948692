"""pnewton: penalty and augmented Newton methods with rate certification.

Second-order solvers built around the shifted update
``x+ = x - (1/L)(G/rho + H(x))^{-1} grad f(x)`` and its augmented-Lagrangian
(heavy-ball momentum) companion, the classical Newton special cases they
contain, spectral diagnostics that certify the methods' linear contraction
iteration by iteration, and a CLI harness for regularized GLM benchmarks.
"""

from . import diagnostics, harness, linalg, objective, solvers
from .errors import (
    BadLabel,
    BadShape,
    ConvergenceFailure,
    DenominatorVanished,
    EmptyDataset,
    MaxIterationsExceeded,
    MissingOptimum,
    NotPSD,
    NotPositiveDefinite,
    ParseError,
    PnewtonError,
    RangeViolation,
    ReplayMismatch,
    ZeroHessian,
)
from .objective import GlmProblem, ObjectiveModel, glm_build, glm_constants, quadratic_model
from .solvers import IterateTrace, SolverConfig, run

__version__ = "0.1.0"

__all__ = [
    "diagnostics",
    "harness",
    "linalg",
    "objective",
    "solvers",
    "GlmProblem",
    "ObjectiveModel",
    "glm_build",
    "glm_constants",
    "quadratic_model",
    "IterateTrace",
    "SolverConfig",
    "run",
    "PnewtonError",
    "NotPositiveDefinite",
    "NotPSD",
    "ConvergenceFailure",
    "RangeViolation",
    "DenominatorVanished",
    "MaxIterationsExceeded",
    "MissingOptimum",
    "ZeroHessian",
    "ReplayMismatch",
    "BadShape",
    "BadLabel",
    "ParseError",
    "EmptyDataset",
    "__version__",
]
