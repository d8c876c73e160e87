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
corrects.

Each problem class holds its equation once: residual(x, f) and
partials(x, f) take the derivative arrays f = [f0, ..., f_order] at the
abscissas x (partials gives dR/df_q for every q), and axis_conditions lists
the (derivative order, value) pairs imposed at x = 0.  build_system reduces
every pairing to nodal derivatives that are affine in the coefficients,
f_q = s_q + D_q c, so the damped Newton driver gets the residual map and
its exact Jacobian from the same operators.
"""

import math
import warnings

import enum
import numpy as np

from .core import Expansion, _as_points, _check_order
from .errors import ConfigurationError, ConvergenceError, DomainError, SolverError
from .hermite import HermiteBasis, hermite_nodes
from .laguerre import LaguerreBasis, laguerre_nodes
from .newton import newton_solve
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

    order = 2
    axis_conditions = ((0, 1.0),)

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

    def residual(self, x, f):
        """f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f."""
        return (f[2] + self.b1 * f[1] * f[1] * f[2]
                - self.b2 * f[0] * f[1] * f[1] - self.b3 * f[0])

    def partials(self, x, f):
        f1f1 = f[1] * f[1]
        return [-self.b2 * f1f1 - self.b3,
                2.0 * f[1] * (self.b1 * f[2] - self.b2 * f[0]),
                1.0 + self.b1 * f1f1]

    def __repr__(self):
        return "FluidParams(b1=%g, b2=%g, b3=%g)" % (self.b1, self.b2, self.b3)


def _positive(x):
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("the screening residual needs x > 0, got %r" % (x,))
    return x


class ThomasFermiProblem:
    """The atomic screening equation; carries no free parameters.

    The 3/2 power is extended odd-symmetrically (sign(u) |u|^{3/2}) so
    Newton iterates that dip below zero stay real and differentiable; at a
    converged nonnegative profile the extension is inactive.
    """

    order = 2
    axis_conditions = ((0, 1.0),)

    def residual(self, x, f):
        """y'' - y^(3/2) / sqrt(x) at x > 0."""
        x = _positive(x)
        return f[2] - np.copysign(np.abs(f[0]) ** 1.5, f[0]) / np.sqrt(x)

    def partials(self, x, f):
        x = _positive(x)
        return [-1.5 * np.sqrt(np.abs(f[0])) / np.sqrt(x), 0.0, 1.0]

    def __repr__(self):
        return "ThomasFermiProblem()"

    def __eq__(self, other):
        return isinstance(other, ThomasFermiProblem)

    def __hash__(self):
        return hash(type(self))


class ConeParams:
    """Heat-flux exponent of the heated-cone boundary layer."""

    order = 3
    axis_conditions = ((0, 0.0), (2, -1.0))

    def __init__(self, lam):
        if not (lam >= 0 and math.isfinite(lam)):
            raise ConfigurationError("lam must be a nonnegative real, got %r" % (lam,))
        self.lam = float(lam)

    def _coefficients(self):
        return (self.lam + 5.0) / 2.0, (2.0 * self.lam + 1.0) / 3.0

    def residual(self, eta, f):
        """f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2."""
        a, b = self._coefficients()
        return f[3] + a * f[0] * f[2] - b * f[1] * f[1]

    def partials(self, eta, f):
        a, b = self._coefficients()
        return [a * f[2], -2.0 * b * f[1], a * f[0], 1.0]

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
        return self.problem.order

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


def pointwise_residual(spec, approx, x):
    """Governing-equation residual of an evaluator at an abscissa or an array of them."""
    return spec.problem.residual(x, [approx(x, m) for m in range(spec.max_order + 1)])


# ---------------------------------------------------------------------------
# system assembly


class NonlinearSystem:
    """Square collocation system over the unknown coefficients c of one pairing.

    The nodal derivatives are affine in c, f_q = s_q + D_q c (seed values
    s_q, operator matrices D_q of shape nodes x dimension), so the map and
    its exact Jacobian are

        F(c) = [R(x, s + D c); B c - t],   J(c) = [sum_q diag(dR/df_q) D_q; B]

    with the axis rows B and their targets t.
    """

    def __init__(self, spec, nodes, operators, seeds, boundary, targets,
                 initial_guess):
        self.spec = spec
        self.collocation_nodes = np.asarray(nodes, dtype=float)
        self.operators = operators
        self.seeds = seeds
        self.boundary = np.asarray(boundary, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.initial_guess = np.asarray(initial_guess, dtype=float)
        self.boundary_rows = self.targets.size
        self.dimension = self.initial_guess.size

    def nodal_derivatives(self, c):
        return [s + D @ c for s, D in zip(self.seeds, self.operators)]

    def residual_map(self, c):
        c = np.asarray(c, dtype=float)
        rows = self.spec.problem.residual(self.collocation_nodes,
                                          self.nodal_derivatives(c))
        return np.concatenate([rows, self.boundary @ c - self.targets])

    def jacobian(self, c):
        c = np.asarray(c, dtype=float)
        partials = self.spec.problem.partials(self.collocation_nodes,
                                              self.nodal_derivatives(c))
        rows = sum(np.reshape(p, (-1, 1)) * D
                   for p, D in zip(partials, self.operators))
        return np.vstack([rows, self.boundary])

    def make_expansion(self, coefficients):
        return Expansion(self.spec.basis, coefficients, seed=self.spec.seed)

    def __repr__(self):
        return "NonlinearSystem(%s, dimension %d, %d boundary rows)" % (
            problem_label(self.spec), self.dimension, self.boundary_rows)


def _laguerre_guess(spec, nodes, operators, boundary, targets):
    basis = spec.basis
    if isinstance(spec.problem, ConeParams):
        # least-squares fit of a shooting trajectory over the collocation
        # nodes; the boundary rows are appended with a large weight so the
        # fitted start honours the axis conditions at the 1e-2 level.  The
        # far (dropped) nodes are excluded: no decaying expansion can hold
        # the trajectory's plateau out there, and forcing it drags the fit
        # into the basin of a spurious root.
        xs, profile = _cone_start_profile(spec.problem.lam)
        w = 100.0
        fit = np.vstack([operators[0], w * boundary])
        rhs = np.concatenate([np.interp(nodes, xs, profile), w * targets])
        guess, *_ = np.linalg.lstsq(fit, rhs, rcond=None)
        return guess
    # profile with the right axis behaviour, interpolated through every node
    every = laguerre_nodes(basis).nodes
    shape = SeedProfile(SeedKind.RATIONAL_QUADRATIC, _GUESS_DECAY_LAMBDA)
    return np.linalg.solve(basis.matrix(every, 0).T, shape(every))


def build_system(spec):
    """Collocation system of the pairing: nodes, operators D_q, seeds, axis rows, guess.

    Laguerre collocates at all but the last len(axis_conditions) nodes (the
    least-resolved far ones) and imposes the axis conditions as explicit
    rows.  Hermite and composite translates collocate at every node and
    carry the axis conditions in the seed.  For the translates,
    D_m = sum_q diag(A[m][q]) delta^(q)^T from the chain-rule tables.
    """
    if not isinstance(spec, ProblemSpec):
        raise ConfigurationError("build_system needs a ProblemSpec")
    basis = spec.basis
    orders = range(spec.max_order + 1)
    boundary = np.empty((0, basis.dimension))
    targets = np.empty(0)
    guess = np.zeros(basis.dimension)
    if isinstance(basis, SincBasis):
        nodes = sinc_nodes(basis).nodes
        A = chain_tables(basis, spec.max_order)
        deltas = [delta_matrix(basis, q).entries.T for q in orders]
        operators = [sum(A[m][q][:, np.newaxis] * deltas[q] for q in range(m + 1))
                     for m in orders]
    elif isinstance(basis, HermiteBasis):
        nodes = hermite_nodes(basis).nodes
        operators = [basis.matrix(nodes, q).T for q in orders]
    else:
        conditions = spec.problem.axis_conditions
        if basis.N <= len(conditions):
            raise ConfigurationError(
                "N = %d leaves no interior collocation nodes" % basis.N)
        nodes = laguerre_nodes(basis).nodes[: basis.N - len(conditions)]
        operators = [basis.matrix(nodes, q).T for q in orders]
        boundary = np.vstack([basis.matrix([0.0], q).T for q, _ in conditions])
        targets = np.array([value for _, value in conditions])
        guess = _laguerre_guess(spec, nodes, operators, boundary, targets)
    seeds = [np.zeros(nodes.size) if spec.seed is None else spec.seed(nodes, q)
             for q in orders]
    return NonlinearSystem(spec, nodes, operators, seeds, boundary, targets, guess)


def solve_problem(spec, cfg=None):
    """Solve the pairing's collocation system; returns (Expansion, SolveReport).

    Newton gets the system's analytic Jacobian.  A solve that stops
    unconverged raises ConvergenceError with the SolveReport attached.
    """
    system = build_system(spec)
    try:
        report = newton_solve(system.residual_map, system.jacobian,
                              system.initial_guess, cfg)
        if not report.converged:
            raise ConvergenceError(
                "Newton stopped unconverged after %d iterations at max|F| = %.3e"
                % (report.iterations, report.final_residual_norm), report=report)
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
