"""Benchmark boundary-value problems on the half line and their collocation systems.

Three model problems, each posed on (0, inf):

  fluid film       f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f = 0,
                   f(0) = 1, f -> 0 far out
  atomic screening y'' = y^(3/2) / sqrt(x),
                   y(0) = 1, y -> 0 far out
  heated cone      f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2 = 0,
                   f(0) = 0, f''(0) = -1, f' -> 0 far out

Each problem pairs with a trial family (see core).  An unseeded one (Laguerre)
imposes the axis conditions as boundary equations; a seeded one (Hermite,
composite translates) carries them exactly in a closed-form seed profile,
evaluated as a basis is through tables(xs, M), whose residual it corrects.

Each problem is a Problem, holding its equation in two forms.  residual(x, f)
and partials(x, f) take the derivative arrays f = [f0, ..., f_order] at the
abscissas x (partials gives dR/df_q for every q); top_derivative(x, f0, ...,
f_{order-1}) is the equation solved for f_order at one point, the form the
shooting oracle integrates.  axis_conditions lists the (derivative order,
value) pairs imposed at x = 0; the rest of what shoot and a pairing read of
a problem is the protocol of Problem.  build_system reduces every pairing to
nodal derivatives that are affine in the coefficients, f_q = s_q + D_q c,
where D_q is the family's order-q table at its collocation nodes and s_q the
seed's (or 0), so the damped Newton driver gets the residual map and its
exact Jacobian from the same operators, held as one stack D with D[q] = D_q.

All of a system but the seed values s_q is kept in core's memo, beside the
point tables expansions are evaluated at, by the values its build reads: it
is built once per process and shared read-only (by a cone table's rows, say).
"""

import contextlib
import enum
import math
import warnings

import numpy as np

from .core import Expansion, _as_points, _check_order, _memo, _real, _value
from .errors import ConfigurationError, ConvergenceError, DomainError, SolverError
from .newton import newton_solve
from .sinc import SincMap


class ParameterConsistencyWarning(UserWarning):
    """Material parameters supplied directly instead of derived consistently."""


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

    A seed is evaluated as a basis is, through tables(xs, M): orders 0..M in
    one pass that checks the points, picks the far-field form and forms the
    shared factors once.  Its entry m is seed(x, m), bit for bit, whatever M.
    So a call for order m also forms orders 0..m-1 and warns wherever one of
    them overflows: the cone seed's order 0 does where a x / 2 does.
    """

    # derivatives of 1/q by order, given q and q1 = q'
    _QUADRATIC = (lambda q, q1: 1.0 / q,
                  lambda q, q1: -q1 / q ** 2,
                  lambda q, q1: -2.0 / q ** 2 + 2.0 * q1 * q1 / q ** 3,
                  lambda q, q1: 12.0 * q1 / q ** 3 - 6.0 * q1 ** 3 / q ** 4)
    # derivatives of a^2 x / (2(a + x)) by order, given q = a/(a + x)
    _CONE = (lambda a, x, q: 0.5 * a * x * q,
             lambda a, x, q: 0.5 * a * q * q,
             lambda a, x, q: -q ** 3,
             lambda a, x, q: 3.0 * q ** 3 / (a + x))

    def __init__(self, kind, parameter):
        if not isinstance(kind, SeedKind):
            raise ConfigurationError("kind must be a SeedKind, got %r" % (kind,))
        self.kind = kind
        self.parameter = _real("seed parameter", parameter, 0.0)

    def __call__(self, x, order=0):
        """order-th derivative at x >= 0; x may be a scalar or an array."""
        return self.tables(x, order)[order]

    def tables(self, xs, M):
        """Derivatives of orders 0..M at the points xs >= 0, shape (M + 1,) +
        the shape of xs; entry m does not depend on M, bit for bit."""
        M = _check_order(M)
        x = _as_points(xs)
        a = self.parameter
        out = np.empty((M + 1,) + x.shape)
        if self.kind is SeedKind.CONE_RATIONAL:
            q = a / (a + x)
            for m in range(M + 1):
                out[m] = self._CONE[m](a, x, q)
            return out
        # no power of q overflows while every x <= 1e38; where one does, the form in u = 1/x
        far = np.maximum.reduce(x, axis=None, initial=0.0) > 1e38
        with np.errstate(all="ignore") if far else contextlib.nullcontext():
            u = 1.0 / x if far else None
            if self.kind is SeedKind.RATIONAL_QUADRATIC:
                q, q1 = 1.0 + a * x + x * x, (a + 2.0 * x if M else None)
                for m in range(M + 1):
                    rq = self._QUADRATIC[m]
                    out[m] = rq(q, q1)
                    if far:     # q/x^2 = 1 + a u + u^2, q'/x = a u + 2
                        far_m = rq(1.0 + a * u + u * u, a * u + 2.0) * u ** (m + 2)
                        out[m] = np.where(np.isinf(q ** (m + 1)), far_m, out[m])
            else:
                q = a + x
                for m in range(M + 1):
                    c = (-1.0) ** m * math.factorial(m) * a
                    out[m] = c / q ** (m + 1)
                    if far:     # (a + x) u = a u + 1
                        far_m = c * u ** (m + 1) / (a * u + 1.0) ** (m + 1)
                        out[m] = np.where(np.isinf(q ** (m + 1)), far_m, out[m])
        return out

    def __repr__(self):
        return "SeedProfile(%s, %g)" % (self.kind.value, self.parameter)


class Problem:
    """A model problem on (0, inf), as shoot and ProblemSpec read it.

    Beside label, order, axis_conditions, residual, partials and
    top_derivative, each problem declares launch(s), the walks' start state
    at launch_x for initial slope s, and mismatch(x, y), the far-field
    mismatch g at x of the state y: zero on the decaying far-field mode and
    negative too low.  It may override these defaults, the film's: launch_x,
    where walks start (a positive one is also their first trial step);
    bracket, the slope's start bracket; far(z_max), (trajectory start, walk
    end, where g is taken); newton_start, the seed an unseeded family's
    Newton start fits; sinc_map, the map a family with a map_kind uses; and
    require_posed(), which raises ConfigurationError if no solution decays.
    The memo keys a discretization by the values it reads, instance or class.
    """

    launch_x = 0.0
    bracket = (-2.0, 0.0)
    newton_start = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7)
    sinc_map = SincMap.LOG_SINH

    def far(self, z_max):
        """The trajectory from 0 to z_max, g at 10 or z_max if nearer."""
        return 0.0, z_max, min(10.0, z_max)

    def require_posed(self):
        pass


def _admit(problem, members):
    """ConfigurationError naming what fails for a non-Problem, a Problem missing one
    of members (an empty one counts as missing: with no axis condition no decaying
    solution is unique) or one that its require_posed refuses."""
    if not isinstance(problem, Problem):
        raise ConfigurationError("unknown problem kind: %r" % (problem,))
    for name in members:
        if not getattr(problem, name, None):
            raise ConfigurationError("%r does not declare %s" % (problem, name))
    problem.require_posed()


class FluidParams(Problem):
    """Coefficients (b1, b2, b3) of the fluid film equation.

    Physically the three derive from two material constants and satisfy
    b2 = b1 b3 / 3; from_b1_b3 builds the consistent triple.  Direct
    construction accepts any nonnegative values (several published tables
    use rounded, slightly inconsistent triples) but warns when the identity
    is violated beyond 1e-12.
    """

    label = "fluid film"
    order = 2
    axis_conditions = ((0, 1.0),)

    def __init__(self, b1, b2, b3):
        self.b1, self.b2, self.b3 = (_real(name, v, 0.0, strict=False) for name, v
                                     in (("b1", b1), ("b2", b2), ("b3", b3)))
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

    def top_derivative(self, x, f, fp):
        """f'' from the equation at one point (the shooting form)."""
        return (self.b2 * f * fp * fp + self.b3 * f) / (1.0 + self.b1 * fp * fp)

    def partials(self, x, f):
        f1f1 = f[1] * f[1]
        return [-self.b2 * f1f1 - self.b3,
                2.0 * f[1] * (self.b1 * f[2] - self.b2 * f[0]),
                1.0 + self.b1 * f1f1]

    def launch(self, s):
        return 1.0, s

    def mismatch(self, x, y):
        """f' + sqrt(b3) f, from f'' ~ b3 f."""
        return y[1] + math.sqrt(self.b3) * y[0]

    def require_posed(self):
        """Refuse b3 = 0, which has no decaying solution: the equation
        f''(1 + b1 f'^2) = b2 f f'^2 makes f convex while f > 0, so a
        decaying f has p = f' a function of f, dp/df = b2 f p / (1 + b1 p^2),
        and p = 0 is the only solution of that through (f, p) = (0, 0)."""
        if self.b3 == 0.0:
            raise ConfigurationError(
                "%r has no decaying solution: with b3 = 0 the film equation is "
                "f''(1 + b1 f'^2) = b2 f f'^2" % (self,))

    def __repr__(self):
        return "FluidParams(b1=%g, b2=%g, b3=%g)" % (self.b1, self.b2, self.b3)


def _positive(x):
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise DomainError("the screening residual needs x > 0, got %r" % (x,))
    return x


class ThomasFermiProblem(Problem):
    """The atomic screening equation; carries no free parameters.

    The 3/2 power is extended odd-symmetrically (sign(u) |u|^{3/2}) so
    Newton iterates that dip below zero stay real and differentiable; at a
    converged nonnegative profile the extension is inactive.
    """

    label = "atomic screening"
    order = 2
    axis_conditions = ((0, 1.0),)
    launch_x = 1e-6     # y'' ~ x^(-1/2) there, so walks start at this step too

    def residual(self, x, f):
        """y'' - y^(3/2) / sqrt(x) at x > 0."""
        x = _positive(x)
        return f[2] - np.copysign(np.abs(f[0]) ** 1.5, f[0]) / np.sqrt(x)

    def top_derivative(self, x, f, fp):
        """y'' at one point x > 0, in scalar math: numpy's vector ** 1.5
        can differ from it in the last bit."""
        return math.copysign(abs(f) ** 1.5, f) / math.sqrt(x)

    def partials(self, x, f):
        x = _positive(x)
        return [-1.5 * np.sqrt(np.abs(f[0])) / np.sqrt(x), 0.0, 1.0]

    def launch(self, s):
        """The series y = 1 + s x + (4/3) x^{3/2} + (2s/5) x^{5/2} and y'."""
        x, r = self.launch_x, math.sqrt(self.launch_x)
        return (1.0 + s * x + (4.0 / 3.0) * x * r + (2.0 * s / 5.0) * x * x * r,
                s + 2.0 * r + s * x * r)

    def mismatch(self, x, y):
        """x y' + 3 y, from y ~ 144 / x^3."""
        return x * y[1] + 3.0 * y[0]

    def far(self, z_max):
        """From 0.05 to 30 whatever z_max, g at 40 (near the root, class events
        lie near x = 195; the class root at 30 is 1.8e-8 from g's)."""
        return 0.05, 30.0, 40.0

    def __repr__(self):
        return "ThomasFermiProblem()"


class ConeParams(Problem):
    """Heat-flux exponent of the heated-cone boundary layer."""

    label = "heated cone"
    order = 3
    axis_conditions = ((0, 0.0), (2, -1.0))
    bracket = (0.0, 2.0)    # holds the root for every lam in [0, 2]
    # its Laguerre systems have roots a few 1e-3 apart in slope: on the six
    # tabulated rows, start scales in [0.9, 3.0] reach the physical one, 0.8 and
    # below one 9e-3 away, larger ones take more iterations (35 at 1.6, 39 at 2)
    newton_start = SeedProfile(SeedKind.CONE_RATIONAL, 1.6)
    sinc_map = SincMap.LOG

    def __init__(self, lam):
        self.lam = _real("lam", lam, 0.0, strict=False)
        self._a = (self.lam + 5.0) / 2.0
        self._b = (2.0 * self.lam + 1.0) / 3.0

    def residual(self, eta, f):
        """f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2."""
        return f[3] + self._a * f[0] * f[2] - self._b * f[1] * f[1]

    def top_derivative(self, eta, f, fp, fpp):
        """f''' from the equation at one point (the shooting form)."""
        return self._b * fp * fp - self._a * f * fpp

    def partials(self, eta, f):
        a, b = self._a, self._b
        return [a * f[2], -2.0 * b * f[1], a * f[0], 1.0]

    def launch(self, s):
        return 0.0, s, -1.0

    def mismatch(self, eta, y):
        """f'' + ((lam+5)/2) f f', from f''' ~ -((lam+5)/2) f f''."""
        return y[2] + self._a * y[0] * y[1]

    def __repr__(self):
        return "ConeParams(lam=%g)" % self.lam


class ProblemSpec:
    """One Problem paired with a trial family and optional seed.

    The problem passes _admit: it declares label, order, residual, partials and
    a non-empty axis_conditions, and is posed.  The family declares seeded:
      - an unseeded family never takes a seed (its axis rows do the work);
      - a seeded one takes a seed that declares tables and meets axis_conditions at 0;
      - a family with a map_kind must use the problem's sinc_map.
    Neither family nor seed is tested for its class; the memo keys on what it reads.
    """

    def __init__(self, problem, basis, seed=None):
        _admit(problem, ("label", "order", "axis_conditions", "residual", "partials"))
        seeded = getattr(basis, "seeded", None)
        if seeded is None:
            raise ConfigurationError("unknown basis kind: %r" % (basis,))
        if not seeded and seed is not None:
            raise ConfigurationError("the %s family is never seeded" % basis.label)
        if seeded:
            if not getattr(seed, "tables", None):
                raise ConfigurationError("a seeded family needs tables, got %r" % (seed,))
            axis = seed.tables(0.0, max(q for q, _ in problem.axis_conditions))
            for q, value in problem.axis_conditions:
                if axis[q] != value:
                    raise ConfigurationError("%r does not meet the axis condition f^(%d)(0) "
                                             "= %g of %r" % (seed, q, value, problem))
        if getattr(basis, "map_kind", problem.sinc_map) is not problem.sinc_map:
            raise ConfigurationError("this problem pairs with the %s map, got %s"
                                     % (problem.sinc_map.value, basis.map_kind.value))
        self.problem, self.basis, self.seed = problem, basis, seed
        self.label = "%s / %s" % (problem.label, basis.label)

    def __repr__(self):
        return "ProblemSpec(%r, %r, seed=%r)" % (self.problem, self.basis, self.seed)


def pointwise_residual(spec, e, x):
    """Governing-equation residual of an expansion at an abscissa or an array of them."""
    return spec.problem.residual(x, e.derivatives(x, spec.problem.order))


# ---------------------------------------------------------------------------
# system assembly


class NonlinearSystem:
    """Square collocation system over the unknown coefficients c of one pairing.

    The nodal derivatives are affine in c, f_q = s_q + D_q c (seed values
    s_q, operator matrices D_q of shape nodes x dimension), so the map and
    its exact Jacobian are

        F(c) = [R(x, s + D c); B c - t],   J(c) = [sum_q diag(dR/df_q) D_q; B]

    with the axis rows B and their targets t; a seeded pairing has none, and
    F and J carry no axis block.  x, the stack D = operators of shape
    (order + 1, nodes, dimension), B, t and Newton's start come shared and
    read-only from the pairing's discretization (see _discretization); the
    system tabulates only the seed values s.  The nodal derivatives s + D @ c
    are one batched product, formed afresh on every call, so the system holds
    no state between calls.  The Jacobian stacks the partials dR/df_q into
    one (order + 1, nodes, 1) array and adds its terms over q in one
    reduction.
    """

    def __init__(self, spec):
        self.spec = spec
        (self.collocation_nodes, self.boundary, self.targets, self.initial_guess,
         self.operators) = _discretization(spec.basis, spec.problem)
        order = spec.problem.order
        self.seeds = (np.zeros((order + 1, self.collocation_nodes.size)) if spec.seed is None
                      else spec.seed.tables(self.collocation_nodes, order))
        self.boundary_rows = self.targets.size
        self.dimension = self.initial_guess.size

    def nodal_derivatives(self, c):
        """s + D @ c, row q the order-q derivatives at the collocation nodes."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dimension,):
            raise ConfigurationError("%s: expected %d coefficients, got shape %r"
                                     % (self.spec.label, self.dimension, c.shape))
        return self.seeds + self.operators @ c

    def residual_map(self, c):
        c = np.asarray(c, dtype=float)
        rows = self.spec.problem.residual(self.collocation_nodes,
                                          self.nodal_derivatives(c))
        return (np.concatenate([rows, self.boundary @ c - self.targets])
                if self.boundary_rows else rows)

    def jacobian(self, c):
        """J(c) in one array; the terms diag(dR/df_q) D_q add in the order q = 0, 1, ..."""
        partials = self.spec.problem.partials(self.collocation_nodes,
                                              self.nodal_derivatives(c))
        n = self.collocation_nodes.size
        jac = np.empty((n + self.boundary_rows, self.dimension))
        if self.boundary_rows:
            jac[n:] = self.boundary
        P = np.empty((len(partials), n, 1))
        for q, p in enumerate(partials):
            P[q, :, 0] = p                  # p: one value per node, or one
        np.add.reduce(P * self.operators, axis=0, out=jac[:n])
        return jac

    def __repr__(self):
        return "NonlinearSystem(%s, dimension %d, %d boundary rows)" % (
            self.spec.label, self.dimension, self.boundary_rows)


def _discretization(basis, problem):
    """Read-only (nodes, axis rows B, targets t, start c0, operator stack D)
    of a pairing, kept in core's memo by the order, axis rows and start it reads.

    Every family takes its operators from one tabulation at its own nodes
    with the axis appended: D is its view of shape (order + 1, nodes,
    dimension), D[q] the order-q table at the nodes, and each axis row of B
    is an order's table at x = 0, the last column.  D @ c stays 3-D: over 850
    random c on each of the presets' 14 discretizations it gave the bits of
    the per-order products D[q] @ c for all 11,900, and the 2-D product of
    their concatenation missed 6,800 (numpy 2.4, OpenBLAS 0.3.31).  An
    unseeded family imposes the axis conditions as those rows, so it collocates
    at all but its last len(axis_conditions) nodes (the least-resolved far
    ones) and starts Newton from the problem's newton_start fitted at those
    nodes and by the axis rows; fitted at every node, Laguerre left Newton
    unconverged on all six cone rows.  A seeded family collocates at every
    node and carries the axis conditions in the seed.
    """
    rows = () if basis.seeded else tuple(map(tuple, problem.axis_conditions))
    start = problem.newton_start    # keyed as itself too: a function's vars() hold no code
    def build():
        if basis.dimension <= len(rows):
            raise ConfigurationError(
                "N = %d leaves no interior collocation nodes" % basis.dimension)
        nodes = basis.nodes()
        nodes = nodes[: nodes.size - len(rows)]
        tables = basis.tables(np.append(nodes, 0.0), problem.order)     # the axis last
        operators = tables[:, :, :-1].transpose(0, 2, 1)
        boundary = tables[[q for q, _ in rows], :, -1]
        targets = np.array([value for _, value in rows])
        guess = (np.linalg.solve(np.vstack([operators[0], boundary]),
                                 np.concatenate([start(nodes), targets]))
                 if rows else np.zeros(basis.dimension))
        return (nodes, boundary, targets, guess, operators)
    return _memo(basis, (problem.order, rows, start, *_value(start)), build)


def build_system(spec):
    """A fresh NonlinearSystem of the pairing (see NonlinearSystem)."""
    if not isinstance(spec, ProblemSpec):
        raise ConfigurationError("build_system needs a ProblemSpec")
    return NonlinearSystem(spec)


def solve_problem(spec):
    """Solve the pairing's collocation system; returns (Expansion, SolveReport).

    Newton gets the system's analytic Jacobian.  A solve that stops
    unconverged raises ConvergenceError with the SolveReport attached, and
    one whose arrays do not fit in memory ConfigurationError.
    """
    try:
        system = build_system(spec)
        report = newton_solve(system.residual_map, system.jacobian,
                              system.initial_guess)
        if not report.converged:
            raise ConvergenceError(
                "Newton stopped unconverged after %d iterations at max|F| = %.3e"
                % (report.iterations, report.final_residual_norm), report=report)
    except MemoryError:
        raise ConfigurationError(
            "%s: basis dimension %d does not fit in memory"
            % (spec.label, spec.basis.dimension)) from None
    except SolverError as exc:
        head = exc.args[0] if exc.args else str(exc)
        exc.args = ("%s: %s" % (spec.label, head),) + tuple(exc.args[1:])
        raise
    return Expansion(spec.basis, report.solution, seed=spec.seed), report


def derived_slope(e, spec):
    """Initial slope f'(0) of a solved expansion.

    A family whose slope_step is None gives the expansion's own derivative
    at the axis, e(0.0, 1), which adds the seed's exact slope if the pairing
    is seeded.  A family that approaches the axis only in a slow limit (the
    composite translates' is logarithmic) declares a step d: the slope then
    comes from one-sided difference quotients through the exact axis value
    at d and d/2, extrapolated once in the step (second order).  Wider
    stencils are counterproductive on the translates: their interpolant
    ripples on a log scale near the axis, and high-order weights amplify
    that ripple far past the quotient's own truncation error.
    """
    d = spec.basis.slope_step
    if d is None:
        return e(0.0, 1)
    f0, f_full, f_half = e(np.array([0.0, d, 0.5 * d]), 0)
    q_full = (f_full - f0) / d
    q_half = (f_half - f0) / (0.5 * d)
    return float(2.0 * q_half - q_full)

