"""Independent reference solutions by shooting.

An embedded Dormand-Prince 5(4) pair with step-size control integrates each
model problem from the axis with a trial initial slope s, and bisection on
the class of s, too low or too high, finds the slope that meets the
far-field condition (Keller, Numerical Methods for Two-Point Boundary-Value
Problems, 1968; Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).

One scalar stepper, _dp45, serves every integration: the classification
walks and the reported trajectory (integrate).  It works in companion form:
the state is (f, f') or (f, f', f''), and the problem's top_derivative
method, the same equation as its collocation residual, gives the highest
derivative.  The stepping stays scalar on purpose: the slope search is
sequential, and a numpy stepper advancing a batch of 8 to 65 trial slopes
in lockstep measured 65-90 us per step, against a few us per step for this
loop.

Accuracy is one knob, ShootConfig.step.  The reported trajectory runs at
local error tolerance step**4 (1e-12 at the default 1e-3), the global
error of a fixed-step fourth-order method at that step, so halving the
step still asks for 16 times the accuracy.  The step is also the spacing
of the reported trajectory, which the stepper's continuous extension
fills in.  ShootConfig also holds z_max; the bisection tolerance 1e-10
and the screening launch point 1e-6 are constants.

A trial slope takes the class of the first event on its walk, at the
launch state or an accepted one.  With (u, v) the state's last two
components, (f, f') on the film and screening and (f', f'') on the cone,
it is too low once u < 0 and too high once v > 0 (on the cone, above its
root f' levels off positive and b f'^2 drives f'' up).  So no walk runs
into a blow-up or a stiff stretch.  A walk with no event by the far field
takes the sign of u there, f(z_max) (film), f'(z_max) (cone) or y(30)
(screening), which keeps each root where its far-field condition puts it:
near the root, screening's events lie near x = 195, and above the cone
root f'' can stay at the error floor, about -1e-12.  A walk that aborts
before it has a class raises OracleError.

The bisection walks run looser, at max(step**4, min(1e-6, scale w)) at
bracket width w.  A tolerance tau moved the class boundary by at most
0.2 tau on the film and the cone, and by up to 3.5 tau at 1e-6 and 14 tau
at 1e-9 on screening (Hairer, Norsett & Wanner, sec. II.4, on tolerance
proportionality), so scale is 0.1 on the film and the cone and 1e-3 on
screening: only a slope within about 2% of w of the root can take the
wrong class.  The final midpoint's strict walk stops at its first event,
like every trial; the end on its side shares its class (the classes change
once, at the root), and the end across, if a loose walk set it, is walked
again at step**4.  If its class changes, the bisection goes on from the
bracket that end's walk split.  A wrong class leaves the root outside the
bracket on its side, so its walk ends as the end across, where the check
catches it.  Only once the check holds does the final walk resume to the
far field for the trajectory; a midpoint depends only on the classes
before it, so both are bit for bit those of an all-strict bisection.
Aborted loose walks are repeated at step**4; if the final walk aborts,
before its class or after, both ends are checked before the blow-up raises.
The trajectory's states are formed from its trail on their first read.
"""

import math
import reprlib

import numpy as np

from .core import _real
from .errors import BlowUpError, ConfigurationError, OracleError, RangeOverflowError
from .problems import ConeParams, FluidParams, ThomasFermiProblem

_BOUND = 1e6
_BISECT_TOL = 1e-10
_MAX_WIDTH = 1e3        # the widest bracket searched for a too-low bottom
# bisection walk tolerance max(step**4, min(_LOOSE_CAP, scale * width)), the
# scale set per problem kind in shoot
_LOOSE_CAP = 1e-6
_TF_LAUNCH = 1e-6
_TF_FAR_FIELD = 30.0
_TF_PRELUDE_END = 0.05

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2): stage nodes c2..c5 (c6 = c7 = 1), stage weights a_ij, the
# fifth-order weights b_j (the seventh stage's row, so the pair is FSAL),
# the error weights e_j = b_j - b^_j, and the weights d_j of the order-4
# continuous extension (Hairer's DOPRI5 dense output); b2 = e2 = d2 = 0.
_TABLEAU = (
    1 / 5, 3 / 10, 4 / 5, 8 / 9,
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)


class ShootConfig:
    """Far-field truncation and accuracy step.

    step sets the local error tolerance step**4 of the reported trajectory
    and of every check of a class (bisection walks run looser, at a scale of
    the bracket width set per problem kind, see the module docstring), the
    spacing of the reported trajectory, and the first trial step.  A walk
    with no event by z_max takes its class from the far-field sign.
    """

    def __init__(self, z_max=40.0, step=1e-3):
        self.z_max = _real("z_max", z_max, 0.0)
        self.step = _real("step", step, 0.0)


def integrate(accel, y0, x0, x1, step):
    """Error-controlled trajectory of f^(m) = accel(x, f, ..., f^(m-1)).

    y0 = (f, f') or (f, f', f'') at a finite x0; the Dormand-Prince 5(4)
    pair runs to x1 > x0 at local error tolerance step**4, starting with a
    trial step of size step > 0.  Returns (abscissas, states) as arrays of
    shape (n+1,) and (n+1, len(y0)) on x0 + k step, the last point on x1.
    An accepted state that leaves +-1e6, or a step size that collapses,
    aborts with a blow-up error carrying the abscissa.  Before any walk, a
    y0 that is not a tuple, list or 1-d array of 2 or 3 finite reals, a
    step with tol**2 outside the normal doubles, or a grid beyond memory,
    raises a typed error.
    """
    step, x0 = _real("step", step, 0.0), _real("x0", x0, -math.inf)
    if isinstance(y0, np.ndarray) and y0.ndim == 1:
        y0 = tuple(y0)
    if not isinstance(y0, (tuple, list)) or len(y0) not in (2, 3):
        raise ConfigurationError("the state holds 2 or 3 derivatives, got %s"
                                 % reprlib.repr(y0))
    state = tuple(_real("y0[%d]" % i, v, -math.inf) for i, v in enumerate(y0))
    tol, grid = _tol_and_grid(x0, _real("x1", x1, x0), step)
    trail = []
    reached, _, outcome, _ = _dp45(accel, state, x0, grid[-1], tol, step, trail)
    if outcome is None:
        raise BlowUpError("trajectory left the state bound", abscissa=reached)
    return grid, _dense(trail, grid, len(state))


# perfbench (spans.py and its tests) looks the integrator up under its former
# name; the package exports only integrate.  Drop this binding when the
# benchmark harness is next changed.
rk4_integrate = integrate


def _tol_and_grid(x0, x1, step):
    """Tolerance step**4 and abscissas x0 + k step, the last one on x1; the
    error test scales by 1 / tol**2, so tol**2 must be a normal double."""
    try:
        tol = step ** 4
    except OverflowError:
        tol = math.inf
    if not np.finfo(float).tiny <= tol * tol < math.inf:
        raise ConfigurationError("step %g: the error tolerance step**4 squared "
                                 "leaves the double range" % step)
    try:
        n = max(1, math.ceil((x1 - x0) / step - 1e-12))
        grid = x0 + step * np.arange(n + 1.0)
    except (OverflowError, ValueError, MemoryError):
        raise RangeOverflowError("a grid from %g to %g at step %g does not fit "
                                 "in memory" % (x0, x1, step)) from None
    grid[-1] = x1
    return tol, grid


def _dense(trail, grid, m):
    """States on grid, which starts at or after the first step's start, read
    from the continuous extension of the accepted steps in trail."""
    # per accepted step, the coefficients of Hairer's DOPRI5 dense output
    # y(x + t h) = y0 + t (diff + u (slope0 + t (curve + u tail))), u = 1 - t
    # with the five blocks stacked component-major, one gather reads them all
    rows = np.fromiter(trail, np.dtype((float, 4 + 3 * m)), len(trail)).T
    starts, hs = rows[0], rows[1]
    y0, k1 = rows[2:2 + m], rows[3:3 + m]
    y1, k7 = rows[3 + m:3 + 2 * m], rows[4 + m:4 + 2 * m]
    diff = y1 - y0
    slope0 = hs * k1 - diff
    curve = diff - hs * k7 - slope0
    coef = np.concatenate((y0, diff, slope0, curve, hs * rows[4 + 2 * m:4 + 3 * m],
                           rows[:2]))
    # grid points from the one at or after each step's start to the next
    # step's belong to that step; those before the first start to the first
    first = np.searchsorted(grid, starts)
    first[0] = 0
    coef = np.repeat(coef, np.diff(first, append=len(grid)), axis=1)
    t = (grid - coef[-2]) / coef[-1]
    u = 1.0 - t
    # the quartic from the inside out, in place on the tail block
    y0, diff, slope0, curve, y = coef[:-2].reshape(5, m, -1)
    for factor, term in ((u, curve), (t, slope0), (u, diff), (t, y0)):
        y *= factor
        y += term
    return y.T.copy()


# the (abscissas, states) of a shoot, its states formed on their first read
class _Trajectory:
    def __init__(self, grid, trail, m):
        self._grid, self._trail, self._m, self._states = grid, trail, m, None

    def __getitem__(self, i):
        if self._trail is not None and i not in (0, -2):
            self._states, self._trail = _dense(self._trail, self._grid, self._m), None
        return (self._grid, self._states)[i]


def _dp45(accel, state, x, x1, tol, h, trail=None, events=False):
    """Dormand-Prince 5(4) in companion form from x to x1: (x, state, outcome, h).

    state is (f, f') or (f, f', f''), and accel gives the top derivative.
    Seven stages, the last one reused as the next step's first (FSAL): six
    accel calls per step.  A step is accepted when the RMS over components
    of err_i / (tol (1 + |y_i|)), y the new state, is <= 1; the next trial
    step h is h clamp(0.9 err^(-1/5), 0.2, 10), and a non-finite error
    divides h by 5.  The walk aborts, with outcome None, after the first
    accepted state that leaves +-_BOUND, or when a rejection drives h below
    1e-14 (1 + |x|).  Each accepted step appends (x, h, state, top
    derivative, new state, new top derivative, dense-output weights) to
    trail, if given.  With events, the walk stops at its first state, the
    starting one included, whose last two components (u, v) have u < 0
    (outcome -1) or v > 0 (outcome +1); else the outcome is 0.  A walk
    stopped at an accepted state and restarted from (x, state, h) goes on
    bit for bit, for one accel call more: the FSAL derivative.  The body is
    written once per order: a loop over a state tuple costs several times
    more per step.
    """
    (c2, c3, c4, c5, a21, a31, a32, a41, a42, a43, a51, a52, a53, a54,
     a61, a62, a63, a64, a65, b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7,
     d1, d3, d4, d5, d6, d7) = _TABLEAU
    # err is the mean square of the scaled errors, so err ** -0.1 is the
    # RMS to the power -1/5
    scale = 1.0 / (len(state) * tol * tol)
    if events and (state[-2] < 0 or state[-1] > 0):
        return x, state, -1 if state[-2] < 0 else 1, h
    if len(state) == 2:
        f, p = state
        k = accel(x, f, p)
        while x < x1:
            if x + 1.01 * h >= x1:
                h, xn = x1 - x, x1
            else:
                xn = x + h
            ha = h * a21
            f2, p2 = f + ha * p, p + ha * k
            k2 = accel(x + c2 * h, f2, p2)
            f3 = f + h * (a31 * p + a32 * p2)
            p3 = p + h * (a31 * k + a32 * k2)
            k3 = accel(x + c3 * h, f3, p3)
            f4 = f + h * (a41 * p + a42 * p2 + a43 * p3)
            p4 = p + h * (a41 * k + a42 * k2 + a43 * k3)
            k4 = accel(x + c4 * h, f4, p4)
            f5 = f + h * (a51 * p + a52 * p2 + a53 * p3 + a54 * p4)
            p5 = p + h * (a51 * k + a52 * k2 + a53 * k3 + a54 * k4)
            k5 = accel(x + c5 * h, f5, p5)
            f6 = f + h * (a61 * p + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
            p6 = p + h * (a61 * k + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
            k6 = accel(xn, f6, p6)
            fn = f + h * (b1 * p + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
            pn = p + h * (b1 * k + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            kn = accel(xn, fn, pn)
            af, ap = abs(fn), abs(pn)
            sf = (e1 * p + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * pn) / (1.0 + af)
            sp = (e1 * k + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * kn) / (1.0 + ap)
            err = h * h * (sf * sf + sp * sp) * scale
            if err <= 1.0:
                if not (af <= _BOUND and ap <= _BOUND):
                    return xn, (fn, pn), None, h
                if trail is not None:
                    trail.append((
                        x, h, f, p, k, fn, pn, kn,
                        d1 * p + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * pn,
                        d1 * k + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * kn))
                x, f, p, k = xn, fn, pn, kn
                h *= 10.0 if err == 0.0 or (g := 0.9 * err ** -0.1) >= 10.0 else g
                if events and (f < 0 or p > 0):
                    return x, (f, p), -1 if f < 0 else 1, h
            else:
                h *= g if err < math.inf and (g := 0.9 * err ** -0.1) > 0.2 else 0.2
                if h < 1e-14 * (1.0 + abs(x)):
                    return x, (f, p), None, h
        return x, (f, p), 0, h
    f, p, q = state
    k = accel(x, f, p, q)
    while x < x1:
        if x + 1.01 * h >= x1:
            h, xn = x1 - x, x1
        else:
            xn = x + h
        ha = h * a21
        f2, p2, q2 = f + ha * p, p + ha * q, q + ha * k
        k2 = accel(x + c2 * h, f2, p2, q2)
        f3 = f + h * (a31 * p + a32 * p2)
        p3 = p + h * (a31 * q + a32 * q2)
        q3 = q + h * (a31 * k + a32 * k2)
        k3 = accel(x + c3 * h, f3, p3, q3)
        f4 = f + h * (a41 * p + a42 * p2 + a43 * p3)
        p4 = p + h * (a41 * q + a42 * q2 + a43 * q3)
        q4 = q + h * (a41 * k + a42 * k2 + a43 * k3)
        k4 = accel(x + c4 * h, f4, p4, q4)
        f5 = f + h * (a51 * p + a52 * p2 + a53 * p3 + a54 * p4)
        p5 = p + h * (a51 * q + a52 * q2 + a53 * q3 + a54 * q4)
        q5 = q + h * (a51 * k + a52 * k2 + a53 * k3 + a54 * k4)
        k5 = accel(x + c5 * h, f5, p5, q5)
        f6 = f + h * (a61 * p + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
        p6 = p + h * (a61 * q + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
        q6 = q + h * (a61 * k + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = accel(xn, f6, p6, q6)
        fn = f + h * (b1 * p + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
        pn = p + h * (b1 * q + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
        qn = q + h * (b1 * k + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        kn = accel(xn, fn, pn, qn)
        af, ap, aq = abs(fn), abs(pn), abs(qn)
        sf = (e1 * p + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * pn) / (1.0 + af)
        sp = (e1 * q + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * qn) / (1.0 + ap)
        sq = (e1 * k + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * kn) / (1.0 + aq)
        err = h * h * (sf * sf + sp * sp + sq * sq) * scale
        if err <= 1.0:
            if not (af <= _BOUND and ap <= _BOUND and aq <= _BOUND):
                return xn, (fn, pn, qn), None, h
            if trail is not None:
                trail.append((
                    x, h, f, p, q, k, fn, pn, qn, kn,
                    d1 * p + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * pn,
                    d1 * q + d3 * q3 + d4 * q4 + d5 * q5 + d6 * q6 + d7 * qn,
                    d1 * k + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * kn))
            x, f, p, q, k = xn, fn, pn, qn, kn
            h *= 10.0 if err == 0.0 or (g := 0.9 * err ** -0.1) >= 10.0 else g
            if events and (p < 0 or q > 0):
                return x, (f, p, q), -1 if p < 0 else 1, h
        else:
            h *= g if err < math.inf and (g := 0.9 * err ** -0.1) > 0.2 else 0.2
            if h < 1e-14 * (1.0 + abs(x)):
                return x, (f, p, q), None, h
    return x, (f, p, q), 0, h


def _tf_launch(s, x0):
    """Series state (y, y') at small x0: y = 1 + s x + (4/3) x^{3/2} + (2s/5) x^{5/2}."""
    r = math.sqrt(x0)
    return (1.0 + s * x0 + (4.0 / 3.0) * x0 * r + (2.0 * s / 5.0) * x0 * x0 * r,
            s + 2.0 * r + s * x0 * r)


def shoot(problem, cfg=None):
    """Reference initial slope and trajectory for one model problem.

    problem is a FluidParams, ConeParams, or ThomasFermiProblem instance.
    Returns (slope, (abscissas, states)); states columns are the integrated
    components (f, f') / (f, f', f'') / (y, y') on a grid of spacing
    cfg.step.  The Thomas-Fermi problem launches from the small-x series at
    x = 1e-6 (also its first trial step), reports from 0.05 on, and imposes
    its far-field condition at 30; the other problems impose theirs at
    cfg.z_max.  The bracket (lo, hi) starts at (-2, 0), or (0, 2) for the
    cone (its root for every lam in [0, 2]), and moves to (lo - 2 (hi - lo),
    lo) while lo walks too high; bisection returns its midpoint at a width
    of 1e-10 (1 + |midpoint|).  With (u, v) a state's last two components,
    a trial slope is too low at its walk's first state with u < 0, too high
    at its first with v > 0, and else takes the sign of u at the far field.  A
    top end not too high, a bracket past 1e3 wide or a walk that aborts
    unclassified raises OracleError.  The states are formed on their first
    read, so a caller that reads only the slope never pays for them; every
    error is raised by shoot, none by that read.
    """
    cfg = ShootConfig() if cfg is None else cfg
    if not isinstance(cfg, ShootConfig):
        raise ConfigurationError("cfg must be a ShootConfig or None, got %r" % (cfg,))
    x0, grid0, x1, h0 = 0.0, 0.0, cfg.z_max, cfg.step
    if isinstance(problem, FluidParams):
        start, lo, hi, scale = (lambda s: (1.0, s)), -2.0, 0.0, 0.1
    elif isinstance(problem, ConeParams):
        start, lo, hi, scale = (lambda s: (0.0, s, -1.0)), 0.0, 2.0, 0.1
    elif isinstance(problem, ThomasFermiProblem):
        x0 = h0 = _TF_LAUNCH
        start, lo, hi, scale = (lambda s: _tf_launch(s, x0)), -2.0, 0.0, 1e-3
        grid0, x1 = _TF_PRELUDE_END, _TF_FAR_FIELD
    else:
        raise ConfigurationError("unknown problem kind: %r" % (problem,))
    accel = problem.top_derivative
    tol, grid = _tol_and_grid(grid0, x1, cfg.step)
    known = {}  # trial slope -> its class at tol

    def side(s, walk_tol=tol):
        if s in known:
            return known[s]
        reached, y, outcome, _ = _dp45(accel, start(s), x0, x1, walk_tol, h0, None, True)
        if outcome is None:
            if walk_tol > tol:
                return side(s)
            raise OracleError("the walk from trial slope %.17g aborted at x = %g "
                              "before it had a class" % (s, reached))
        cls = outcome or math.copysign(1.0, y[-2])
        if walk_tol == tol:
            known[s] = cls
        return cls

    if side(hi) < 0:
        raise OracleError("far-field mismatch is not positive at the top of the bracket")
    while side(lo) > 0:
        if hi - lo > _MAX_WIDTH:
            raise OracleError("no far-field root found above %.17g" % lo)
        lo, hi = lo - 2.0 * (hi - lo), lo
    # each bracket on the path is split by its midpoint's walk into the next;
    # an end whose strict class contradicts its loose one sends the search
    # back to the bracket it split, where its class is now the strict one
    path = [(lo, hi)]
    while True:
        a, b = path[-1]
        mid = 0.5 * (a + b)
        if b - a > _BISECT_TOL * (1.0 + abs(mid)):
            walk_tol = max(tol, min(_LOOSE_CAP, scale * (b - a)))
            path.append((mid, b) if side(mid, walk_tol) < 0 else (a, mid))
            continue
        # mid's strict walk stops at its first event, like every trial; once
        # the end across agrees, it resumes to x1 for the reported trajectory
        trail = []
        reached, y, outcome, h = _dp45(accel, start(mid), x0, x1, tol, h0, trail, True)
        if outcome is not None:
            cls = outcome or math.copysign(1.0, y[-2])
            wrong = b if cls < 0 else a
            if side(wrong) == -cls:
                reached, y, outcome, _ = _dp45(accel, y, reached, x1, tol, h, trail)
                if outcome is not None:
                    return mid, _Trajectory(grid, trail, len(y))
        if outcome is None:
            wrong = next((end for end, cls in ((a, -1), (b, 1)) if side(end) != cls), None)
            if wrong is None:
                raise BlowUpError("trajectory left the state bound", abscissa=reached)
        while 0.5 * (path[-1][0] + path[-1][1]) != wrong:
            path.pop()
