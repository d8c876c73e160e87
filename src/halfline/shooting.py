"""Independent reference solutions by shooting.

Classical fixed-step RK4 integrates each model problem from the axis with a
trial initial slope s; a bracketed false-position iteration (secant with
bracket retention) drives the far-field mismatch to zero.

One scalar stepper, _rk4, serves every integration: the mismatch probes,
the graded launch steps of the screening problem, and the reported
trajectory (rk4_integrate).  It works in companion form: the state is
(f, f') or (f, f', f''), and the problem's top_derivative method, the same
equation as its collocation residual, gives the highest derivative.  The
stepping stays scalar on purpose: the slope search is sequential, and a
numpy stepper advancing a batch of 8 to 65 trial slopes in lockstep
measured 65-90 us per step, against about 2 us per step for this loop.

The mismatch landscape needs care.  Truncating at z_max and capping blown-up
trajectories manufactures spurious sign changes well inside the bracket: a
trajectory caught mid-dive sweeps continuously through zero as the blow-up
point crosses z_max.  The physical slope is the TOPMOST zero, and for the
convecting-cone problem it sits at the upper edge of a dip in the mismatch
only ~1e-2 wide, far narrower than any affordable scan grid.  upper-root
scanning therefore walks down from the top of the bracket and, whenever the
scan values stop decreasing before changing sign, golden-sections the local
minimum hunting for a hidden negative value, then refines the dip's upper
edge.  Mismatch values are log-compressed so capped trajectories cannot
swamp the secant updates.

The scan step is twice the configured RK step and the refinement uses the
configured step itself.  Steps much above 2e-3 go unstable on the stiffest
trial trajectories (the cone linearization reaches |A f| ~ 5e2, and RK4
needs h |lambda| < 2.8), which would poison the scan with oscillation roots.
"""

import math

import numpy as np

from .core import _real
from .errors import BlowUpError, ConfigurationError, OracleError
from .problems import ConeParams, FluidParams, ThomasFermiProblem

_BOUND = 1e6
_TF_FAR_FIELD = 30.0
_TF_PRELUDE_END = 0.05
_TF_PRELUDE_STEPS = 1500
_SCAN_POINTS = 64


class ShootConfig:
    """Far-field truncation, RK step, slope-iteration tolerance, bracket.

    bracket = None picks the per-problem default: (-2, 0) for the fluid and
    Thomas-Fermi problems (their slopes are negative), (0, 2) for the cone.
    """

    def __init__(self, z_max=40.0, step=1e-3, secant_tol=1e-10, bracket=None):
        self.z_max = _real("z_max", z_max, 0.0)
        self.step = _real("step", step, 0.0)
        self.secant_tol = _real("secant_tol", secant_tol, 0.0)
        if bracket is not None:
            lo = _real("bracket lo", bracket[0], -math.inf)
            bracket = (lo, _real("bracket hi", bracket[1], lo))
        self.bracket = bracket


def rk4_integrate(accel, y0, x0, x1, step):
    """Classical RK4 trajectory of f^(m) = accel(x, f, ..., f^(m-1)).

    y0 = (f, f') or (f, f', f'') at a finite x0; steps of size step > 0 run to
    x1 > x0, the last one shortened to land on it.  Returns (abscissas, states)
    as arrays of shape (n+1,) and (n+1, len(y0)).  A state that leaves +-1e6
    or turns non-finite aborts with a blow-up error carrying the abscissa.
    """
    step, x0 = _real("step", step, 0.0), _real("x0", x0, -math.inf)
    if len(y0) not in (2, 3):
        raise ConfigurationError("the state holds 2 or 3 derivatives, got %d"
                                 % len(y0))
    steps = _uniform_steps(x0, _real("x1", x1, x0), step)
    states = [tuple(float(v) for v in y0)]
    reached, _, ok = _rk4(accel, states[0], steps, states)
    if not ok:
        raise BlowUpError("trajectory left the state bound", abscissa=reached)
    return np.array([x0] + [x + h for x, h in steps]), np.array(states)


def _uniform_steps(x0, x1, h):
    """(x, h) pairs from x0 to x1, the last step shortened to land on x1."""
    n = max(1, int(math.ceil((x1 - x0) / h - 1e-12)))
    steps = []
    x = x0
    for _ in range(n):
        hh = min(h, x1 - x)
        steps.append((x, hh))
        x += hh
    return steps


def _graded_steps(x0, x1, n):
    """n geometrically graded (x, h) pairs from x0 to x1 (the singular launch)."""
    ratio = (x1 / x0) ** (1.0 / n)
    xs = [x0] + [x0 * ratio ** (i + 1) for i in range(n)]
    return [(a, b - a) for a, b in zip(xs, xs[1:])]


def _rk4(accel, state, steps, trail=None):
    """RK4 in companion form over the (x, h) pairs; (x reached, state, survived).

    state is (f, f') or (f, f', f''), and accel gives the top derivative.
    The walk stops after the first step whose state leaves +-_BOUND or turns
    non-finite; each state that stays inside is appended to trail, if given.
    The body is written once per order because a loop over a state tuple
    costs several times more per step.
    """
    if len(state) == 2:
        f, fp = state
        for x, h in steps:
            h2 = h / 2
            k1 = accel(x, f, fp)
            a0, a1 = f + h2 * fp, fp + h2 * k1
            k2 = accel(x + h2, a0, a1)
            b0, b1 = f + h2 * a1, fp + h2 * k2
            k3 = accel(x + h2, b0, b1)
            c0, c1 = f + h * b1, fp + h * k3
            k4 = accel(x + h, c0, c1)
            h6 = h / 6
            f = f + h6 * (fp + 2 * a1 + 2 * b1 + c1)
            fp = fp + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not (abs(f) <= _BOUND and abs(fp) <= _BOUND):
                return x + h, (f, fp), False
            if trail is not None:
                trail.append((f, fp))
        return x + h, (f, fp), True
    f, fp, fpp = state
    for x, h in steps:
        h2 = h / 2
        k1 = accel(x, f, fp, fpp)
        a0, a1, a2 = f + h2 * fp, fp + h2 * fpp, fpp + h2 * k1
        k2 = accel(x + h2, a0, a1, a2)
        b0, b1, b2 = f + h2 * a1, fp + h2 * a2, fpp + h2 * k2
        k3 = accel(x + h2, b0, b1, b2)
        c0, c1, c2 = f + h * b1, fp + h * b2, fpp + h * k3
        k4 = accel(x + h, c0, c1, c2)
        h6 = h / 6
        f = f + h6 * (fp + 2 * a1 + 2 * b1 + c1)
        fp = fp + h6 * (fpp + 2 * a2 + 2 * b2 + c2)
        fpp = fpp + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not (abs(f) <= _BOUND and abs(fp) <= _BOUND and abs(fpp) <= _BOUND):
            return x + h, (f, fp, fpp), False
        if trail is not None:
            trail.append((f, fp, fpp))
    return x + h, (f, fp, fpp), True


def _compress(v):
    return math.copysign(math.log1p(abs(v)), v)


def _refine(fun, lo, hi, flo, fhi, tol, maxit=100):
    """False position with bracket retention (Illinois) on a sign change."""
    if (flo < 0) == (fhi < 0):
        raise OracleError("refinement bracket does not straddle a sign change")
    side = 0
    for _ in range(maxit):
        denom = fhi - flo
        x = (lo * fhi - hi * flo) / denom if denom != 0 else 0.5 * (lo + hi)
        if not (min(lo, hi) < x < max(lo, hi)):
            x = 0.5 * (lo + hi)
        fx = fun(x)
        if fx == 0 or abs(hi - lo) <= tol * (1 + abs(x)):
            return x
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
            if side == -1:
                fhi /= 2
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo /= 2
            side = 1
    raise OracleError("slope iteration did not converge in %d steps" % maxit)


def _upper_root(mis_scan, mis_full, lo, hi, tol):
    """Topmost zero of the mismatch in (lo, hi); see the module docstring."""
    nscan = _SCAN_POINTS

    def full_pair_refine(a, b):
        fa = mis_full(a)
        fb = mis_full(b)
        ds = (hi - lo) / nscan
        for _ in range(3):
            if (fa < 0) != (fb < 0):
                break
            a = max(lo, a - ds)
            b = min(hi, b + ds)
            fa = mis_full(a)
            fb = mis_full(b)
        if (fa < 0) == (fb < 0):
            return None
        return _refine(mis_full, a, b, fa, fb, tol)

    ss = [lo + (hi - lo) * i / nscan for i in range(nscan + 1)]
    f_above = mis_scan(ss[nscan])
    if f_above < 0:
        raise OracleError("far-field mismatch is not positive at the top of the bracket")
    for i in range(nscan - 1, -1, -1):
        fi = mis_scan(ss[i])
        if fi == 0 or (fi < 0) != (f_above < 0):
            r = full_pair_refine(ss[i], ss[i + 1])
            if r is not None:
                return r
        elif fi > f_above and i + 2 <= nscan:
            # values rising as s falls: scan minimum at ss[i+1]; hunt for a
            # dip narrower than the scan grid inside (ss[i], ss[i+2])
            xa, xb, xc = ss[i], ss[i + 1], ss[i + 2]
            fxb = f_above
            neg = None
            g = 0.5 * (3.0 - math.sqrt(5.0))
            for _ in range(60):
                if (xb - xa) > (xc - xb):
                    xm = xb - g * (xb - xa)
                else:
                    xm = xb + g * (xc - xb)
                fm = mis_scan(xm)
                if fm < 0:
                    neg = xm
                    break
                if fm < fxb:
                    if xm < xb:
                        xc = xb
                    else:
                        xa = xb
                    xb, fxb = xm, fm
                else:
                    if xm < xb:
                        xa = xm
                    else:
                        xc = xm
                if xc - xa < 1e-11 * (1 + abs(xb)):
                    break
            if neg is not None:
                up = xc if xc > neg else ss[i + 2]
                r = full_pair_refine(neg, up)
                if r is not None:
                    return r
        f_above = fi
    raise OracleError("no far-field root found inside the bracket")


def _tf_launch(s, x0):
    """Series state (y, y') at small x0: y = 1 + s x + (4/3) x^{3/2} + (2s/5) x^{5/2}."""
    r = math.sqrt(x0)
    return (1.0 + s * x0 + (4.0 / 3.0) * x0 * r + (2.0 * s / 5.0) * x0 * x0 * r,
            s + 2.0 * r + s * x0 * r)


def shoot(problem, cfg=None, launch_x0=1e-6):
    """Reference initial slope and trajectory for one model problem.

    problem is a FluidParams, ConeParams, or ThomasFermiProblem instance.
    Returns (slope, (abscissas, states)); states columns are the integrated
    components (f, f') / (f, f', f'') / (y, y').  The Thomas-Fermi problem
    launches from the small-x series at launch_x0 (graded steps carry it to
    0.05, uniform steps onward) and imposes its far-field condition at 30;
    the other problems impose theirs at cfg.z_max.
    """
    if cfg is None:
        cfg = ShootConfig()
    x0, x1, far, prelude = 0.0, cfg.z_max, 0, None
    if isinstance(problem, FluidParams):
        start, bracket = (lambda s: (1.0, s)), (-2.0, 0.0)
    elif isinstance(problem, ConeParams):
        start, bracket, far = (lambda s: (0.0, s, -1.0)), (0.0, 2.0), 1
    elif isinstance(problem, ThomasFermiProblem):
        if not (0 < launch_x0 < _TF_PRELUDE_END):
            raise ConfigurationError("launch_x0 must sit in (0, %g)" % _TF_PRELUDE_END)
        start, bracket = (lambda s: _tf_launch(s, launch_x0)), (-2.0, 0.0)
        x0, x1 = _TF_PRELUDE_END, _TF_FAR_FIELD
        prelude = _graded_steps(launch_x0, _TF_PRELUDE_END, _TF_PRELUDE_STEPS)
    else:
        raise ConfigurationError("unknown problem kind: %r" % (problem,))
    accel = problem.top_derivative
    lo, hi = cfg.bracket if cfg.bracket is not None else bracket

    def launch(s):
        """State at x0 for the trial slope s, and whether it stayed bounded."""
        if prelude is None:
            return start(s), True
        _, y, ok = _rk4(accel, start(s), prelude)
        return y, ok

    def mismatch(h):
        steps = _uniform_steps(x0, x1, h)

        def mis(s):
            y, ok = launch(s)
            if ok:
                _, y, ok = _rk4(accel, y, steps)
            return _compress(y[far] if ok else math.copysign(_BOUND, y[far]))
        return mis

    slope = _upper_root(mismatch(2.0 * cfg.step), mismatch(cfg.step), lo, hi,
                        cfg.secant_tol)
    y, ok = launch(slope)
    if not ok:
        raise OracleError("converged slope still blows up in the launch region")
    return slope, rk4_integrate(accel, y, x0, x1, cfg.step)
