"""Benchmark boundary-value problems on the half line and their collocation systems.

Three model problems, each posed on (0, inf):

  fluid film       f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f = 0,
                   f(0) = 1, f -> 0 far out
  atomic screening y'' = y^(3/2) / sqrt(x),
                   y(0) = 1, y -> 0 far out
  heated cone      f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2 = 0,
                   f(0) = 0, f''(0) = -1, f' -> 0 far out

Each problem pairs with one of the three trial families (modified Laguerre,
mapped Hermite, weighted composite translates).  The Laguerre family imposes
axis conditions through explicit boundary equations; the other two carry
them exactly in a closed-form seed profile whose residual the basis part
corrects.  build_system turns a pairing into a square nonlinear map over
the unknown coefficients for the damped Newton driver.
"""

import math
import warnings

import enum
import numpy as np

from .core import Expansion, _as_points, _check_order
from .errors import ConfigurationError, DomainError, SolverError
from .hermite import HermiteBasis, hermite_matrix, hermite_nodes
from .laguerre import LaguerreBasis, laguerre_nodes, mglf_matrix
from .newton import NewtonConfig, newton_solve
from .sinc import SincBasis, SincMap, chain_tables, delta_matrix, sinc_nodes

_GUESS_DECAY_LAMBDA = 0.7  # interpolated start profile for unseeded solves

_CONE_START_CACHE = {}


def _cone_start_profile(lam):
    """Independently integrated cone profile used to start damped Newton.

    The cone collocation system at the tabulated truncation has several
    isolated roots whose initial slopes differ by a few times 1e-3, and the
    closed-form starting shapes (decaying bump, rational plateau) land the
    iteration on the wrong one or on a near-singular fold where the damped
    steps stall.  Fitting the trial space to a shooting trajectory instead
    starts the iteration inside the basin of the physically meaningful root.
    Imported lazily (the shooting module imports this one) and memoized per
    exponent because one trajectory serves every solve at that exponent.
    """
    key = float(lam)
    if key not in _CONE_START_CACHE:
        from .shooting import shoot
        _, (xs, states) = shoot(ConeParams(key))
        _CONE_START_CACHE[key] = (xs, states[:, 0].copy())
    return _CONE_START_CACHE[key]


class ParameterConsistencyWarning(UserWarning):
    """Material parameters supplied directly instead of derived consistently."""


class FluidParams:
    """Coefficients (b1, b2, b3) of the fluid film equation.

    Physically the three derive from two material constants and satisfy
    b2 = b1 b3 / 3; from_b1_b3 builds the consistent triple.  Direct
    construction accepts any nonnegative values (several published tables
    use rounded, slightly inconsistent triples) but warns when the identity
    is violated beyond 1e-12.
    """

    def __init__(self, b1, b2, b3):
        for name, v in (("b1", b1), ("b2", b2), ("b3", b3)):
            if not (v >= 0 and math.isfinite(v)):
                raise ConfigurationError("%s must be a nonnegative real, got %r" % (name, v))
        self.b1 = float(b1)
        self.b2 = float(b2)
        self.b3 = float(b3)
        if abs(self.b2 - self.b1 * self.b3 / 3.0) > 1e-12:
            warnings.warn(
                "b2 = %g is not b1*b3/3 = %g; proceeding with the values as given"
                % (self.b2, self.b1 * self.b3 / 3.0),
                ParameterConsistencyWarning, stacklevel=2)

    @classmethod
    def from_b1_b3(cls, b1, b3):
        return cls(b1, b1 * b3 / 3.0, b3)

    def __repr__(self):
        return "FluidParams(b1=%g, b2=%g, b3=%g)" % (self.b1, self.b2, self.b3)


class ThomasFermiProblem:
    """The atomic screening equation; carries no free parameters."""

    def __repr__(self):
        return "ThomasFermiProblem()"

    def __eq__(self, other):
        return isinstance(other, ThomasFermiProblem)

    def __hash__(self):
        return hash(type(self))


class ConeParams:
    """Heat-flux exponent of the heated-cone boundary layer."""

    def __init__(self, lam):
        if not (lam >= 0 and math.isfinite(lam)):
            raise ConfigurationError("lam must be a nonnegative real, got %r" % (lam,))
        self.lam = float(lam)

    def __repr__(self):
        return "ConeParams(lam=%g)" % self.lam


class SeedKind(enum.Enum):
    RATIONAL_QUADRATIC = "rational-quadratic"
    RATIONAL_LINEAR = "rational-linear"
    CONE_RATIONAL = "cone-rational"


class SeedProfile:
    """Closed-form boundary-carrying profile added to the basis expansion.

    RATIONAL_QUADRATIC  p = 1/(1 + a x + x^2):      p(0) = 1, p'(0) = -a
    RATIONAL_LINEAR     p = a/(a + x):              p(0) = 1, p'(0) = -1/a
    CONE_RATIONAL       p = a^2 x / (2(a + x)):     p(0) = 0, p'(0) = a/2,
                                                    p''(0) = -1
    All boundary identities hold exactly in floating point, which is what
    makes seed-forced slopes and curvatures exact in the reports.
    """

    def __init__(self, kind, parameter):
        if not isinstance(kind, SeedKind):
            raise ConfigurationError("kind must be a SeedKind, got %r" % (kind,))
        if not (parameter > 0 and math.isfinite(parameter)):
            raise ConfigurationError("seed parameter must be positive, got %r" % (parameter,))
        self.kind = kind
        self.parameter = float(parameter)

    def __call__(self, x, order=0):
        """order-th derivative at x >= 0; x may be a scalar or an array."""
        order = _check_order(order)
        x = _as_points(x)
        a = self.parameter
        if self.kind is SeedKind.RATIONAL_QUADRATIC:
            q = 1.0 + a * x + x * x
            q1 = a + 2.0 * x
            if order == 0:
                return 1.0 / q
            if order == 1:
                return -q1 / q ** 2
            if order == 2:
                return -2.0 / q ** 2 + 2.0 * q1 * q1 / q ** 3
            return 12.0 * q1 / q ** 3 - 6.0 * q1 ** 3 / q ** 4
        if self.kind is SeedKind.RATIONAL_LINEAR:
            return (-1.0) ** order * math.factorial(order) * a / (a + x) ** (order + 1)
        # CONE_RATIONAL
        q = a / (a + x)
        if order == 0:
            return 0.5 * a * x * q
        if order == 1:
            return 0.5 * a * q * q
        if order == 2:
            return -q ** 3
        return 3.0 * q ** 3 / (a + x)

    def __repr__(self):
        return "SeedProfile(%s, %g)" % (self.kind.value, self.parameter)


class ProblemSpec:
    """One benchmark problem paired with a trial family and optional seed.

    Pairing rules enforced here:
      - Laguerre never takes a seed (boundary rows do the work).
      - Hermite and composite-translate families always take one: the cone
        problem needs CONE_RATIONAL, the other two a profile with value 1
        at the axis (RATIONAL_QUADRATIC or RATIONAL_LINEAR).
      - Composite translates use the LogSinh map for the fluid/screening
        problems and the Log map for the cone problem.
    """

    def __init__(self, problem, basis, seed=None):
        if not isinstance(problem, (FluidParams, ThomasFermiProblem, ConeParams)):
            raise ConfigurationError("unknown problem kind: %r" % (problem,))
        cone = isinstance(problem, ConeParams)
        if isinstance(basis, LaguerreBasis):
            if seed is not None:
                raise ConfigurationError("the Laguerre family is never seeded")
        elif isinstance(basis, (HermiteBasis, SincBasis)):
            if not isinstance(seed, SeedProfile):
                raise ConfigurationError("this trial family requires a SeedProfile")
            if cone and seed.kind is not SeedKind.CONE_RATIONAL:
                raise ConfigurationError("the cone problem requires a CONE_RATIONAL seed")
            if not cone and seed.kind is SeedKind.CONE_RATIONAL:
                raise ConfigurationError("CONE_RATIONAL seeds fit the cone problem only")
            if isinstance(basis, SincBasis):
                want = SincMap.LOG if cone else SincMap.LOG_SINH
                if basis.map_kind is not want:
                    raise ConfigurationError(
                        "this problem pairs with the %s map, got %s"
                        % (want.value, basis.map_kind.value))
        else:
            raise ConfigurationError("unknown basis kind: %r" % (basis,))
        self.problem = problem
        self.basis = basis
        self.seed = seed

    @property
    def max_order(self):
        return 3 if isinstance(self.problem, ConeParams) else 2

    def __repr__(self):
        return "ProblemSpec(%r, %r, seed=%r)" % (self.problem, self.basis, self.seed)


def problem_label(spec):
    """Short human-readable tag used in error context and reports."""
    if isinstance(spec.problem, FluidParams):
        p = "fluid film"
    elif isinstance(spec.problem, ThomasFermiProblem):
        p = "atomic screening"
    else:
        p = "heated cone"
    if isinstance(spec.basis, LaguerreBasis):
        m = "laguerre"
    elif isinstance(spec.basis, HermiteBasis):
        m = "hermite"
    else:
        m = "sinc"
    return "%s / %s" % (p, m)


# ---------------------------------------------------------------------------
# pointwise residuals


def residual_fluid(approx, params, z):
    """f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f at z, with f^(m) = approx(z, m)."""
    f0 = approx(z, 0)
    f1 = approx(z, 1)
    f2 = approx(z, 2)
    return f2 + params.b1 * f1 * f1 * f2 - params.b2 * f0 * f1 * f1 - params.b3 * f0


def residual_thomas_fermi(approx, x):
    """y'' - y^(3/2) / sqrt(x) at x > 0 (a scalar or an array).

    The 3/2 power is extended odd-symmetrically (sign(u) |u|^{3/2}) so
    Newton iterates that dip below zero stay real and differentiable; at a
    converged nonnegative profile the extension is inactive.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("the screening residual needs x > 0, got %r" % (x,))
    u = approx(x, 0)
    return approx(x, 2) - np.copysign(np.abs(u) ** 1.5, u) / np.sqrt(x)


def residual_cone(approx, params, eta):
    """f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2 at eta."""
    a = (params.lam + 5.0) / 2.0
    b = (2.0 * params.lam + 1.0) / 3.0
    f0 = approx(eta, 0)
    f1 = approx(eta, 1)
    f2 = approx(eta, 2)
    f3 = approx(eta, 3)
    return f3 + a * f0 * f2 - b * f1 * f1


def pointwise_residual(spec, approx, x):
    """Governing-equation residual of an evaluator at an abscissa or an array of them."""
    if isinstance(spec.problem, FluidParams):
        return residual_fluid(approx, spec.problem, x)
    if isinstance(spec.problem, ThomasFermiProblem):
        return residual_thomas_fermi(approx, x)
    return residual_cone(approx, spec.problem, x)


# ---------------------------------------------------------------------------
# system assembly


class NonlinearSystem:
    """Square residual map over the unknown coefficients of one pairing."""

    def __init__(self, spec, residual_map, initial_guess, collocation_nodes,
                 boundary_rows):
        self.spec = spec
        self.residual_map = residual_map
        self.initial_guess = np.asarray(initial_guess, dtype=float)
        self.collocation_nodes = np.asarray(collocation_nodes, dtype=float)
        self.boundary_rows = int(boundary_rows)
        self.dimension = self.initial_guess.size

    def make_expansion(self, coefficients):
        return Expansion(self.spec.basis, coefficients, seed=self.spec.seed)

    def __repr__(self):
        return "NonlinearSystem(%s, dimension %d, %d boundary rows)" % (
            problem_label(self.spec), self.dimension, self.boundary_rows)


def _residual_rows(spec, f):
    """Vectorized fluid/cone residual from nodal derivative arrays f[order].

    The screening problem is handled inline by the builders (its residual
    needs the node abscissas as well).
    """
    if isinstance(spec.problem, FluidParams):
        p = spec.problem
        return (f[2] + p.b1 * f[1] * f[1] * f[2]
                - p.b2 * f[0] * f[1] * f[1] - p.b3 * f[0])
    p = spec.problem
    a = (p.lam + 5.0) / 2.0
    b = (2.0 * p.lam + 1.0) / 3.0
    return f[3] + a * f[0] * f[2] - b * f[1] * f[1]


def _build_laguerre(spec):
    basis = spec.basis
    cone = isinstance(spec.problem, ConeParams)
    nboundary = 2 if cone else 1
    if basis.N <= nboundary:
        raise ConfigurationError(
            "N = %d leaves no interior collocation nodes" % basis.N)
    nodes = laguerre_nodes(basis).nodes
    interior = nodes[: basis.N - nboundary]   # drop the least-resolved far nodes
    maxord = spec.max_order
    mats = [mglf_matrix(basis, interior, q).T for q in range(maxord + 1)]
    b0 = mglf_matrix(basis, np.array([0.0]), 0)[:, 0]
    b2 = mglf_matrix(basis, np.array([0.0]), 2)[:, 0] if cone else None
    sqrt_interior = np.sqrt(interior)
    tf = isinstance(spec.problem, ThomasFermiProblem)
    fluid = isinstance(spec.problem, FluidParams)

    def residual_map(a):
        a = np.asarray(a, dtype=float)
        f0 = mats[0] @ a
        f1 = mats[1] @ a
        f2 = mats[2] @ a
        if fluid:
            p = spec.problem
            rows = (f2 + p.b1 * f1 * f1 * f2
                    - p.b2 * f0 * f1 * f1 - p.b3 * f0)
            bc = [b0 @ a - 1.0]
        elif tf:
            rows = f2 - np.copysign(np.abs(f0) ** 1.5, f0) / sqrt_interior
            bc = [b0 @ a - 1.0]
        else:
            f3 = mats[3] @ a
            p = spec.problem
            rows = (f3 + (p.lam + 5.0) / 2.0 * f0 * f2
                    - (2.0 * p.lam + 1.0) / 3.0 * f1 * f1)
            bc = [b0 @ a, b2 @ a + 1.0]
        return np.concatenate([rows, bc])

    if cone:
        # least-squares fit of a shooting trajectory over the interior
        # nodes; the boundary rows are appended with a large weight so the
        # fitted start honours the axis conditions at the 1e-2 level.  The
        # far (dropped) nodes are excluded: no decaying expansion can hold
        # the trajectory's plateau out there, and forcing it drags the fit
        # into the basin of a spurious root.
        xs, profile = _cone_start_profile(spec.problem.lam)
        target = np.interp(interior, xs, profile)
        w = 100.0
        fit = np.vstack([mats[0], w * b0[np.newaxis, :], w * b2[np.newaxis, :]])
        rhs = np.concatenate([target, [0.0], [-w]])
        guess, *_ = np.linalg.lstsq(fit, rhs, rcond=None)
    else:
        # profile with the right axis behaviour, interpolated through
        # every node
        full0 = mglf_matrix(basis, nodes, 0).T
        shape = SeedProfile(SeedKind.RATIONAL_QUADRATIC, _GUESS_DECAY_LAMBDA)
        target = shape(nodes)
        guess = np.linalg.solve(full0, target)
    return NonlinearSystem(spec, residual_map, guess, interior, nboundary)


def _build_hermite(spec):
    basis = spec.basis
    nodes = hermite_nodes(basis).nodes
    maxord = spec.max_order
    mats = [hermite_matrix(basis, nodes, q).T for q in range(maxord + 1)]
    seed_vals = [spec.seed(nodes, q) for q in range(maxord + 1)]
    tf = isinstance(spec.problem, ThomasFermiProblem)
    sqrt_nodes = np.sqrt(nodes)

    def residual_map(a):
        a = np.asarray(a, dtype=float)
        f = [seed_vals[q] + mats[q] @ a for q in range(maxord + 1)]
        if tf:
            return f[2] - np.copysign(np.abs(f[0]) ** 1.5, f[0]) / sqrt_nodes
        return _residual_rows(spec, f)

    guess = np.zeros(basis.dimension)
    return NonlinearSystem(spec, residual_map, guess, nodes, 0)


def _build_sinc(spec):
    basis = spec.basis
    nodes = sinc_nodes(basis).nodes
    maxord = spec.max_order
    deltas = [np.ascontiguousarray(delta_matrix(basis, q).entries.T)
              for q in range(maxord + 1)]
    A = chain_tables(basis, maxord)
    seed_vals = [spec.seed(nodes, q) for q in range(maxord + 1)]
    tf = isinstance(spec.problem, ThomasFermiProblem)
    sqrt_nodes = np.sqrt(nodes)

    def residual_map(c):
        c = np.asarray(c, dtype=float)
        # mesh-derivative vectors first, chain scaling second: summing the
        # translate series before multiplying by the (sometimes huge) chain
        # coefficients keeps the far-node rows from drowning in cancellation
        u = [c] + [deltas[q] @ c for q in range(1, maxord + 1)]
        f = []
        for m_ord in range(maxord + 1):
            acc = seed_vals[m_ord].copy()
            for q in range(m_ord + 1):
                acc += A[m_ord][q] * u[q]
            f.append(acc)
        if tf:
            return f[2] - np.copysign(np.abs(f[0]) ** 1.5, f[0]) / sqrt_nodes
        return _residual_rows(spec, f)

    guess = np.zeros(basis.dimension)
    return NonlinearSystem(spec, residual_map, guess, nodes, 0)


def build_system(spec):
    """Square nonlinear system for the pairing: residual map, guess, nodes."""
    if not isinstance(spec, ProblemSpec):
        raise ConfigurationError("build_system needs a ProblemSpec")
    if isinstance(spec.basis, LaguerreBasis):
        return _build_laguerre(spec)
    if isinstance(spec.basis, HermiteBasis):
        return _build_hermite(spec)
    return _build_sinc(spec)


def solve_problem(spec, cfg=None):
    """Solve the pairing's collocation system; returns (Expansion, SolveReport)."""
    if cfg is None:
        cfg = NewtonConfig()
    system = build_system(spec)
    try:
        report = newton_solve(system.residual_map, system.initial_guess, cfg)
    except SolverError as exc:
        head = exc.args[0] if exc.args else str(exc)
        exc.args = ("%s: %s" % (problem_label(spec), head),) + tuple(exc.args[1:])
        raise
    return system.make_expansion(report.solution), report


_SLOPE_DELTA = 1e-3


def derived_slope(e, spec):
    """Initial slope f'(0) of a solved expansion.

    Laguerre: analytic member derivatives at the axis.  Hermite: the basis
    part vanishes at the axis to every order, so the seed's exact slope is
    returned.  Composite translates approach the axis only in a slow
    logarithmic limit, so the slope comes from one-sided difference
    quotients through the exact axis value at d = 1e-3, extrapolated once
    in the step (second order).  Wider stencils are counterproductive
    here: the translate interpolant ripples on a log scale near the axis,
    and high-order weights amplify that ripple far past the quotient's
    own truncation error.
    """
    if isinstance(spec.basis, (LaguerreBasis, HermiteBasis)):
        return e(0.0, 1)
    f0, f_full, f_half = e(np.array([0.0, _SLOPE_DELTA, 0.5 * _SLOPE_DELTA]), 0)
    q_full = (f_full - f0) / _SLOPE_DELTA
    q_half = (f_half - f0) / (0.5 * _SLOPE_DELTA)
    return float(2.0 * q_half - q_full)
