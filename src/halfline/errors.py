"""Exception taxonomy for the halfline package.

Every error raised deliberately by this package derives from HalflineError,
so callers can catch one base class.  Several types double as the matching
builtin (ValueError, OverflowError, KeyError) so generic code keeps working.
A bad argument, an impossible pairing and a parameter value that has no
formula (Laguerre quadrature at alpha != 1) are all ConfigurationError, as
are the bad inputs DomainError, UnsupportedOrderError and RangeOverflowError.
"""


class HalflineError(Exception):
    """Base class for all halfline errors."""


class ConfigurationError(HalflineError):
    """Inconsistent object pairing or dimensions (basis/rule/problem/method), a
    bad argument, or a parameter value with no formula (quadrature at alpha != 1)."""


class UsageError(HalflineError):
    """Bad command-line or config-file input."""


class DomainError(ConfigurationError, ValueError):
    """Evaluation point outside the function's domain (negative, zero, or non-finite x)."""


class ReferenceLookupError(ConfigurationError, KeyError):
    """No row at that abscissa, or no column of that name, in a reference table."""


class UnsupportedOrderError(ConfigurationError, ValueError):
    """Derivative order outside the supported range 0..3."""


class RangeOverflowError(ConfigurationError, OverflowError):
    """A value leaves double precision: sinc nodes (|j*h| > 700), a power h**order,
    L**order or k**order of a sinc mesh, Laguerre scale or Hermite map constant, or
    an entry of a Laguerre or Hermite table."""


class NodeComputationError(HalflineError):
    """Eigenvalue solve or root polish for collocation nodes failed."""


class NumericEvaluationError(HalflineError):
    """A residual or Jacobian evaluation produced a non-finite value.

    component: index of the offending residual entry, when known.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class SolverError(HalflineError):
    """Base class for nonlinear-solver failures."""


class SingularJacobianError(SolverError):
    """Jacobian singular: equilibrated condition kappa_1 beyond 1e14, or an all-zero
    row (condition inf); carries the iterate and the condition."""

    def __init__(self, message, iterate=None, condition=None):
        super().__init__(message)
        self.iterate = iterate
        self.condition = condition


class ConvergenceError(SolverError):
    """Newton failed to converge; carries the SolveReport for post-mortem."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BlowUpError(HalflineError):
    """An integrated trajectory left the finite range; carries the abscissa reached."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class OracleError(HalflineError):
    """The shooting iteration failed to locate an initial slope."""
