"""Spectral collocation on the half line [0, inf).

Three basis families (scaled generalized-Laguerre functions, log-mapped
Hermite functions, and weighted composite translates of sinc type) reduce
nonlinear boundary-value problems posed on the half line to algebraic
systems, solved by a damped Newton iteration.  Three benchmark problems are
built in — a draining non-Newtonian film, the atomic screening equation, and
natural convection over a heated cone — together with an independent
shooting integrator and embedded copies of the published comparison tables.
"""

from .core import (
    CollocationGrid,
    DiscreteInnerProductRule,
    Expansion,
    eval_expansion,
    project,
)
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
    UnsupportedParameterError,
    UsageError,
)
from .hermite import (
    HermiteBasis,
    hermite_fn_eval,
    hermite_line_nodes,
    hermite_matrix,
    hermite_nodes,
    mapped_trapezoid_rule,
)
from .laguerre import (
    LaguerreBasis,
    laguerre_eval,
    laguerre_nodes,
    mglf_matrix,
    mglf_quadrature_weights,
)
from .newton import NewtonConfig, SolveReport, fd_jacobian, newton_solve
from .problems import (
    ConeParams,
    FluidParams,
    NonlinearSystem,
    ParameterConsistencyWarning,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    ThomasFermiProblem,
    build_system,
    derived_slope,
    pointwise_residual,
    problem_label,
    solve_problem,
)
from .reference import (
    AHMAD_SLOPE,
    KOBAYASHI_SLOPE,
    REFERENCE_TABLES,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    TABLE7,
    ReferenceTable,
)
from .shooting import ShootConfig, integrate, shoot
from .sinc import (
    SincBasis,
    SincMap,
    composite_matrix,
    delta_matrix,
    sinc_nodes,
)

__version__ = "0.1.0"

__all__ = [
    "AHMAD_SLOPE",
    "BlowUpError",
    "CollocationGrid",
    "ConeParams",
    "ConfigurationError",
    "ConvergenceError",
    "DiscreteInnerProductRule",
    "DomainError",
    "Expansion",
    "FluidParams",
    "HalflineError",
    "HermiteBasis",
    "KOBAYASHI_SLOPE",
    "LaguerreBasis",
    "NewtonConfig",
    "NodeComputationError",
    "NonlinearSystem",
    "NumericEvaluationError",
    "OracleError",
    "ParameterConsistencyWarning",
    "ProblemSpec",
    "RangeOverflowError",
    "REFERENCE_TABLES",
    "ReferenceTable",
    "SeedKind",
    "SeedProfile",
    "ShootConfig",
    "SincBasis",
    "SincMap",
    "SingularJacobianError",
    "SolveReport",
    "SolverError",
    "TABLE1",
    "TABLE2",
    "TABLE3",
    "TABLE4",
    "TABLE5",
    "TABLE6",
    "TABLE7",
    "ThomasFermiProblem",
    "UnsupportedOrderError",
    "UnsupportedParameterError",
    "UsageError",
    "build_system",
    "composite_matrix",
    "delta_matrix",
    "derived_slope",
    "eval_expansion",
    "fd_jacobian",
    "hermite_fn_eval",
    "hermite_line_nodes",
    "hermite_matrix",
    "hermite_nodes",
    "integrate",
    "laguerre_eval",
    "laguerre_nodes",
    "mapped_trapezoid_rule",
    "mglf_matrix",
    "mglf_quadrature_weights",
    "newton_solve",
    "pointwise_residual",
    "problem_label",
    "project",
    "shoot",
    "sinc_nodes",
    "solve_problem",
]
