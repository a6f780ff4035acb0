"""Maturity-structured two-phase blood cell production model.

Simulates the resting-phase population through the integrated delay
formulation of the model (Picard iteration within method-of-steps windows,
exact characteristics in flow coordinates) and verifies the model's
structural properties as executable experiments.
"""

from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     HemaflowError, HistoryWindowError, PreconditionError)
from .params import (ConstantReintroduction, CustomDivisionKernel,
                     CustomMaturityMap, CustomReintroduction, CustomVelocity,
                     HillReintroduction, LinearMaturityMap, ModelParams,
                     PowerLawVelocity, RateFunctions, SeparableKernel,
                     SeparableUniformKernel)
from .flow import FlowMap
from .kernels import CumulativeDecay, InvarianceMargin, Kernels
from .solver import (Grid, HistoryField, InitialHistory, SolutionField,
                     Solver, WarmupData)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ConvergenceError", "DomainError", "HemaflowError",
    "HistoryWindowError", "PreconditionError",
    "PowerLawVelocity", "CustomVelocity", "LinearMaturityMap",
    "CustomMaturityMap", "RateFunctions", "HillReintroduction",
    "ConstantReintroduction", "CustomReintroduction",
    "SeparableUniformKernel", "SeparableKernel", "CustomDivisionKernel",
    "ModelParams", "FlowMap", "Kernels", "CumulativeDecay", "InvarianceMargin",
    "Grid", "InitialHistory", "HistoryField", "SolutionField", "WarmupData",
    "Solver",
    "__version__",
]
