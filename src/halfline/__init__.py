"""Spectral collocation on the half line [0, inf).

Three basis families (scaled generalized-Laguerre functions, log-mapped
Hermite functions, and weighted composite translates of sinc type) reduce
nonlinear boundary-value problems posed on the half line to algebraic
systems, solved by a damped Newton iteration.  Three benchmark problems are
built in — a draining non-Newtonian film, the atomic screening equation, and
natural convection over a heated cone — together with an independent
shooting integrator and embedded copies of the published comparison tables.
"""

from .core import Expansion, eval_expansion, project
from .errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    HalflineError,
    NodeComputationError,
    NumericEvaluationError,
    OracleError,
    RangeOverflowError,
    SingularJacobianError,
    SolverError,
    UnsupportedOrderError,
    UsageError,
)
from .hermite import HermiteBasis, mapped_trapezoid_rule
from .laguerre import LaguerreBasis
from .problems import (
    ConeParams,
    FluidParams,
    Problem,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    ThomasFermiProblem,
    build_system,
    derived_slope,
    pointwise_residual,
    solve_problem,
)
from .reference import (
    AHMAD_SLOPE,
    KOBAYASHI_SLOPE,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
)
from .shooting import ShootConfig, integrate, shoot
from .sinc import SincBasis, SincMap

__version__ = "0.1.0"

# the names the command line, demos, benchmark, tests and README use from
# the package; every other public name is imported from its module
__all__ = [
    "AHMAD_SLOPE",
    "BlowUpError",
    "ConeParams",
    "ConfigurationError",
    "ConvergenceError",
    "DomainError",
    "Expansion",
    "FluidParams",
    "HalflineError",
    "HermiteBasis",
    "KOBAYASHI_SLOPE",
    "LaguerreBasis",
    "NodeComputationError",
    "NumericEvaluationError",
    "OracleError",
    "Problem",
    "ProblemSpec",
    "RangeOverflowError",
    "SeedKind",
    "SeedProfile",
    "ShootConfig",
    "SincBasis",
    "SincMap",
    "SingularJacobianError",
    "SolverError",
    "TABLE1",
    "TABLE2",
    "TABLE3",
    "TABLE4",
    "TABLE5",
    "TABLE6",
    "ThomasFermiProblem",
    "UnsupportedOrderError",
    "UsageError",
    "build_system",
    "derived_slope",
    "eval_expansion",
    "integrate",
    "mapped_trapezoid_rule",
    "pointwise_residual",
    "project",
    "shoot",
    "solve_problem",
]
