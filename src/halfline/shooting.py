"""Independent reference solutions by shooting.

Hairer's embedded DOP853 pair, of order 8 with error estimates of orders 5
and 3, integrates each model problem from the axis with a trial initial
slope s under step-size control.  Bisection on the class of s, too low or
too high, brackets the root, and a secant on a far-field mismatch g(s),
safeguarded by that bracket, finds it (Keller, Numerical Methods for
Two-Point Boundary-Value Problems, 1968; Lentini & Keller, SIAM J. Numer.
Anal. 17, 1980; Brent, Algorithms for Minimization without Derivatives,
1973, ch. 4; Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4-II.6).

One scalar stepper, _dop853, serves every walk and integrate, in companion
form: the state is (f, f') or (f, f', f''), and the problem's
top_derivative method, the same equation as its collocation residual,
gives the highest derivative.  It stays scalar on purpose: a numpy stepper
advancing a batch of 8 to 65 trial slopes in lockstep measured 65-90 us per
step, against 10-12 us here.  Accuracy is one knob, ShootConfig.step: the
mismatch walks and the reported trajectory run at local error tolerance
step**4 (1e-12 at the default 1e-3).  The trajectory, one walk from the
final slope, is walked on the first read of the states and spaced step
apart by the pair's order-7 continuous extension; it takes no step longer
than 4, so the extension holds the tolerance in the far field too.

A trial slope takes the class of the first event on its walk, at the
launch state or an accepted one.  With (u, v) the state's last two
components, (f, f') on the film and screening and (f', f'') on the cone,
it is too low once u < 0 and too high once v > 0 (on the cone, above its
root f' levels off positive and b f'^2 drives f'' up), so no walk runs
into a blow-up or a stiff stretch.  A walk with no event by the far field,
z_max or 30 on screening, takes the sign of g there: near the root,
screening's events lie near x = 195, and above the cone root f'' can stay
at the error floor, about -1e-12.  g vanishes on the decaying far-field
mode and is negative too low: g = f' + sqrt(b3) f on the film (from
f'' ~ b3 f), f'' + a f f' on the cone (from f''' ~ -a f f'',
a = (lam + 5) / 2) and x y' + 3 y on screening (y ~ 144 / x^3).

Class walks run loose, at tau = max(step**4, min(1e-3, 0.1 w)) at bracket
width w: the checks of the start bracket's ends and bisection down to
w = 1e-6, each from a first trial step of step
(tau / step**4)**(1/4), the rule that ties step to step**4; screening's
start at its launch step, as y'' ~ x^(-1/2) there.  As a tau from 1e-7 to
1e-3 moved the class boundary by at most 0.04 tau (0.16 tau on screening),
only a slope within a few percent of w of the root can take the wrong
class.  A loose walk that aborts, or a top end found too low, is repeated
at step**4.  The secant takes
g at the end of a walk without events to X = 10 on the film and the cone
(z_max if nearer) and X = 40 on screening.  A wrong loose class, or
screening's class root at 30 (1.8e-8 from g's at 40), can leave g's root
just outside the bracket, where both ends' g share a sign; the bracket
then moves past the end that is off, doubling its width.  An iterate
outside the bracket is its midpoint, each g sign narrows it, and the
search stops at a step of at most 1e-13 (1 + |s|).  A g walk that aborts
gives its slope's strict class instead, and a midpoint follows.
"""

import copy
import math
import reprlib
from functools import reduce
from operator import add

import numpy as np

from .core import _real
from .errors import BlowUpError, ConfigurationError, OracleError, RangeOverflowError
from .problems import ConeParams, FluidParams, ThomasFermiProblem

_BOUND = 1e6
_MAX_WIDTH = 1e3        # the widest bracket searched
_LOOSE_CAP = 1e-3       # bisection walks run at max(step**4, min(cap, scale * width))
_LOOSE_SCALE = 0.1
_SECANT_WIDTH = 1e-6    # the bracket width where the secant takes over
_SECANT_TOL = 1e-13     # its stop, |ds| <= _SECANT_TOL (1 + |s|)
_MISMATCH_X = 10.0      # where the film's and the cone's mismatch is taken
_TRAIL_CAP = 4.0        # the longest step of a trail walk
_TF_LAUNCH = 1e-6
_TF_FAR_FIELD = 30.0
_TF_PRELUDE_END = 0.05
_TF_MISMATCH_X = 40.0

# Hairer's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5; the
# values of his dop853.f): stage nodes c2..c11 (c12 = c13 = 1), stage weights
# a_ij of stages 2-12, the eighth-order weights b_j (the thirteenth stage's
# row, so the pair is FSAL), the fifth-order error weights e_j and the weights
# bh_j of the third-order estimate b - bh; only nonzero weights are listed
_DOP853 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    0.05260015195876773,
    0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.08876275643042054,
    0.2413651341592667, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
    0.2440944881889764, 0.7338466882816118, 0.022058823529411766,
)
# its order-7 continuous extension (sec. II.6): the three extra stages 14-16,
# each a node and the nonzero weights a_ij on earlier stages j (13 is the
# step's end) in summation order, and the 4 x 12 weights d_rj on stages 1, 6-16
_EXTRA_STAGES = (
    (0.1, {1: 0.056167502283047954, 7: 0.25350021021662483, 8: -0.2462390374708025,
           9: -0.12419142326381637, 10: 0.15329179827876568, 11: 0.00820105229563469,
           12: 0.007567897660545699, 13: -0.008298}),
    (0.2, {1: 0.03183464816350214, 6: 0.028300909672366776, 7: 0.053541988307438566,
           8: -0.05492374857139099, 11: -0.00010834732869724932, 12: 0.0003825710908356584,
           13: -0.00034046500868740456, 14: 0.1413124436746325}),
    (0.7777777777777778, {1: -0.42889630158379194, 6: -4.697621415361164,
                          7: 7.683421196062599, 8: 4.06898981839711, 9: 0.3567271874552811,
                          13: -0.0013990241651590145, 14: 2.9475147891527724,
                          15: -9.15095847217987}),
)
_DENSE = np.array((
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564,
)).reshape(4, 12)


class ShootConfig:
    """Far-field truncation and accuracy step.

    step sets the local error tolerance step**4 of the secant's walks and
    of the reported trajectory (class walks run looser, see the module
    docstring), the spacing of the reported trajectory, and the first trial
    step of every walk at step**4 on the film and the cone (screening's
    start at 1e-6).  z_max is where the reported trajectory ends and where
    a class walk with no event takes the sign of the far-field mismatch.
    """

    def __init__(self, z_max=40.0, step=1e-3):
        self.z_max = _real("z_max", z_max, 0.0)
        self.step = _real("step", step, 0.0)


def integrate(accel, y0, x0, x1, step):
    """Error-controlled trajectory of f^(m) = accel(x, f, ..., f^(m-1)).

    y0 = (f, f') or (f, f', f'') at a finite x0; the DOP853 pair runs to
    x1 > x0 at local error tolerance step**4, starting with a trial step of
    size step > 0 and growing none past 4.  Returns (abscissas, states) as
    arrays of shape (n+1,) and (n+1, len(y0)) on x0 + k step, the last point
    on x1, read from the pair's order-7 continuous extension, which the step
    cap keeps within the tolerance.  An accepted state that leaves
    +-1e6, or a step size that collapses, aborts with a blow-up error
    carrying the abscissa.  Before any walk, a y0 that is not a tuple, list
    or 1-d array of 2 or 3 finite reals, a step with tol**2 outside the
    normal doubles, or a grid beyond memory, raises a typed error.
    """
    step, x0 = _real("step", step, 0.0), _real("x0", x0, -math.inf)
    if isinstance(y0, np.ndarray) and y0.ndim == 1:
        y0 = tuple(y0)
    if not isinstance(y0, (tuple, list)) or len(y0) not in (2, 3):
        raise ConfigurationError("the state holds 2 or 3 derivatives, got %s"
                                 % reprlib.repr(y0))
    state = tuple(_real("y0[%d]" % i, v, -math.inf) for i, v in enumerate(y0))
    tol, grid = _tol_and_grid(x0, _real("x1", x1, x0), step)
    return grid, _Trajectory(grid, (accel, state, x0, grid[-1], tol, step))[1]


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


def _dense(trail, grid, accel):
    """States on grid, which starts at or after the first step's start, read
    from the continuous extension of the accepted steps in trail, each held
    as (x, h, start state, end state, derivatives of stages 1 and 6-13)."""
    rows = np.array(trail).T
    m = (len(rows) - 2) // 11
    starts, hs, y0 = rows[0], rows[1], rows[2:2 + m]
    k = dict(zip((1, 6, 7, 8, 9, 10, 11, 12, 13), rows[2 + 2 * m:].reshape(9, m, -1)))
    # the extra stages of all steps at once, each sum in the order the stepper
    # sums its own stages, then accel step by step on Python floats
    for j, (c, weights) in enumerate(_EXTRA_STAGES, 14):
        y = y0 + hs * reduce(add, (a * k[i] for i, a in weights.items()))
        top = [accel(*point) for point in zip((starts + c * hs).tolist(), *y.tolist())]
        k[j] = np.vstack((y[1:], [top]))
    # per accepted step, the blocks of Hairer's DOP853 dense output
    # y(x + t h) = y0 + t (diff + u (slope0 + t (curve + u (d0 + t (d1 + u (d2
    # + t d3)))))), u = 1 - t, with d_r = h sum_j D_rj k_j over the stage
    # derivatives k_j; with the eight blocks stacked component-major, one
    # gather reads them all
    k = np.stack(tuple(k.values()))
    diff = rows[2 + m:2 + 2 * m] - y0
    slope0 = hs * k[0] - diff
    curve = diff - hs * k[8] - slope0   # stage 13 is the step's end
    d = hs * (_DENSE @ k.reshape(12, -1)).reshape(4 * m, -1)
    coef = np.concatenate((y0, diff, slope0, curve, d, rows[:2]))
    # grid points from the one at or after each step's start to the next
    # step's belong to that step; those before the first start to the first
    first = np.searchsorted(grid, starts)
    first[0] = 0
    coef = np.repeat(coef, np.diff(first, append=len(grid)), axis=1)
    t = (grid - coef[-2]) / coef[-1]
    u = 1.0 - t
    # the polynomial from the inside out, in place on the d3 block
    y0, diff, slope0, curve, d0, d1, d2, y = coef[:-2].reshape(8, m, -1)
    for factor, term in ((t, d2), (u, d1), (t, d0), (u, curve), (t, slope0), (u, diff),
                         (t, y0)):
        y *= factor
        y += term
    return y.T.copy()


# (abscissas, states) on grid; the states are walked, by _dop853 from the
# arguments walk, and formed on their first read, and an aborted walk raises on
# every read
class _Trajectory:
    def __init__(self, grid, walk):
        self._grid, self._walk, self._states = grid, walk, None

    def __getitem__(self, i):
        if i in (0, -2):
            return self._grid
        if self._walk is not None:
            trail = []
            reached, _, outcome = _dop853(*self._walk, trail)
            self._states = reached if outcome is None else _dense(trail, self._grid,
                                                                  self._walk[0])
            self._walk = None
        if not isinstance(self._states, np.ndarray):
            raise BlowUpError("trajectory left the state bound", abscissa=self._states)
        return (self._grid, self._states)[i]


def _dop853(accel, state, x, x1, tol, h, trail=None, events=False):
    """Hairer's DOP853 in companion form from x to x1: (x, state, outcome).

    state is (f, f') or (f, f', f''), and accel gives the top derivative.
    Twelve stages, then the derivative at the new state, reused as the next
    step's first (FSAL): twelve accel calls per accepted step, eleven per
    rejected one.  With E5 and E3 the fifth- and third-order error
    estimates, each component scaled by tol (1 + |y_i|), y the new state,
    Hairer's error |h| |E5|^2 / sqrt(n (|E5|^2 + 0.01 |E3|^2)) over n
    components, the RMS of E5 when E3 is small, must be <= 1 to accept the
    step; the next trial step h is h clamp(0.9 err^(-1/8), 1/3, 6), a zero
    error grows h sixfold and a non-finite one divides it by 3.  The walk
    aborts, with outcome None, after the first accepted state that leaves
    +-_BOUND, or when a rejection drives h below 1e-14 (1 + |x|).  With a
    trail, no step grows past _TRAIL_CAP, and each accepted one appends
    (x, h, state, new state, the derivatives of stages 1 and 6-13), from
    which _dense forms the continuous extension.  With events, the walk
    stops at its first state, the starting one included, whose last two
    components (u, v) have u < 0 (outcome -1) or v > 0 (outcome +1); else
    the outcome is 0.  The body is written once per order: a loop over a
    state tuple costs several times more per step.
    """
    (c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, a2_1, a3_1, a3_2, a4_1, a4_3, a5_1, a5_3,
     a5_4, a6_1, a6_4, a6_5, a7_1, a7_4, a7_5, a7_6, a8_1, a8_4, a8_5, a8_6, a8_7, a9_1,
     a9_4, a9_5, a9_6, a9_7, a9_8, a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9, a11_1,
     a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10, a12_1, a12_4, a12_5, a12_6, a12_7,
     a12_8, a12_9, a12_10, a12_11, b1, b6, b7, b8, b9, b10, b11, b12, e1, e6, e7, e8, e9,
     e10, e11, e12, bh1, bh9, bh12) = _DOP853
    # err is the square of Hairer's estimate, so err ** -0.0625 is that
    # estimate to the power -1/8
    scale = 1.0 / (len(state) * tol * tol)
    cap = math.inf if trail is None else _TRAIL_CAP
    if events and (state[-2] < 0 or state[-1] > 0):
        return x, state, -1 if state[-2] < 0 else 1
    if len(state) == 2:
        f, p = state
        k = accel(x, f, p)
        while x < x1:
            if x + 1.01 * h >= x1:
                h, xn = x1 - x, x1
            else:
                xn = x + h
            ha = h * a2_1
            f2, p2 = f + ha * p, p + ha * k
            k2 = accel(x + c2 * h, f2, p2)
            f3 = f + h * (a3_1 * p + a3_2 * p2)
            p3 = p + h * (a3_1 * k + a3_2 * k2)
            k3 = accel(x + c3 * h, f3, p3)
            f4 = f + h * (a4_1 * p + a4_3 * p3)
            p4 = p + h * (a4_1 * k + a4_3 * k3)
            k4 = accel(x + c4 * h, f4, p4)
            f5 = f + h * (a5_1 * p + a5_3 * p3 + a5_4 * p4)
            p5 = p + h * (a5_1 * k + a5_3 * k3 + a5_4 * k4)
            k5 = accel(x + c5 * h, f5, p5)
            f6 = f + h * (a6_1 * p + a6_4 * p4 + a6_5 * p5)
            p6 = p + h * (a6_1 * k + a6_4 * k4 + a6_5 * k5)
            k6 = accel(x + c6 * h, f6, p6)
            f7 = f + h * (a7_1 * p + a7_4 * p4 + a7_5 * p5 + a7_6 * p6)
            p7 = p + h * (a7_1 * k + a7_4 * k4 + a7_5 * k5 + a7_6 * k6)
            k7 = accel(x + c7 * h, f7, p7)
            f8 = f + h * (a8_1 * p + a8_4 * p4 + a8_5 * p5 + a8_6 * p6 + a8_7 * p7)
            p8 = p + h * (a8_1 * k + a8_4 * k4 + a8_5 * k5 + a8_6 * k6 + a8_7 * k7)
            k8 = accel(x + c8 * h, f8, p8)
            f9 = f + h * (a9_1 * p + a9_4 * p4 + a9_5 * p5 + a9_6 * p6 + a9_7 * p7
                + a9_8 * p8)
            p9 = p + h * (a9_1 * k + a9_4 * k4 + a9_5 * k5 + a9_6 * k6 + a9_7 * k7
                + a9_8 * k8)
            k9 = accel(x + c9 * h, f9, p9)
            f10 = f + h * (a10_1 * p + a10_4 * p4 + a10_5 * p5 + a10_6 * p6 + a10_7 * p7
                + a10_8 * p8 + a10_9 * p9)
            p10 = p + h * (a10_1 * k + a10_4 * k4 + a10_5 * k5 + a10_6 * k6 + a10_7 * k7
                + a10_8 * k8 + a10_9 * k9)
            k10 = accel(x + c10 * h, f10, p10)
            f11 = f + h * (a11_1 * p + a11_4 * p4 + a11_5 * p5 + a11_6 * p6 + a11_7 * p7
                + a11_8 * p8 + a11_9 * p9 + a11_10 * p10)
            p11 = p + h * (a11_1 * k + a11_4 * k4 + a11_5 * k5 + a11_6 * k6 + a11_7 * k7
                + a11_8 * k8 + a11_9 * k9 + a11_10 * k10)
            k11 = accel(x + c11 * h, f11, p11)
            f12 = f + h * (a12_1 * p + a12_4 * p4 + a12_5 * p5 + a12_6 * p6 + a12_7 * p7
                + a12_8 * p8 + a12_9 * p9 + a12_10 * p10 + a12_11 * p11)
            p12 = p + h * (a12_1 * k + a12_4 * k4 + a12_5 * k5 + a12_6 * k6 + a12_7 * k7
                + a12_8 * k8 + a12_9 * k9 + a12_10 * k10 + a12_11 * k11)
            k12 = accel(xn, f12, p12)
            bf = (b1 * p + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10 + b11 * p11
                + b12 * p12)
            bp = (b1 * k + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9 + b10 * k10 + b11 * k11
                + b12 * k12)
            fn, pn = f + h * bf, p + h * bp
            af, ap = abs(fn), abs(pn)
            # the fifth-order error estimate s and the third-order one t, scaled
            sf = (e1 * p + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10 + e11 * p11
                + e12 * p12) / (1.0 + af)
            sp = (e1 * k + e6 * k6 + e7 * k7 + e8 * k8 + e9 * k9 + e10 * k10 + e11 * k11
                + e12 * k12) / (1.0 + ap)
            tf = (bf - bh1 * p - bh9 * p9 - bh12 * p12) / (1.0 + af)
            tp = (bp - bh1 * k - bh9 * k9 - bh12 * k12) / (1.0 + ap)
            s5, s3 = sf * sf + sp * sp, tf * tf + tp * tp
            err = h * h * s5 * s5 * scale / (s5 + 0.01 * s3) if s5 else 0.0
            if err <= 1.0:
                if not (af <= _BOUND and ap <= _BOUND):
                    return xn, (fn, pn), None
                kn = accel(xn, fn, pn)
                if trail is not None:
                    trail.append((x, h, f, p, fn, pn, p, k, p6, k6, p7, k7, p8, k8, p9, k9,
                        p10, k10, p11, k11, p12, k12, pn, kn))
                x, f, p, k = xn, fn, pn, kn
                h = min(cap, h * (6.0 if err == 0.0 or (g := 0.9 * err ** -0.0625) >= 6.0 else g))
                if events and (f < 0 or p > 0):
                    return x, (f, p), -1 if f < 0 else 1
            else:
                h *= g if err < math.inf and (g := 0.9 * err ** -0.0625) > 1 / 3 else 1 / 3
                if h < 1e-14 * (1.0 + abs(x)):
                    return x, (f, p), None
        return x, (f, p), 0
    f, p, q = state
    k = accel(x, f, p, q)
    while x < x1:
        if x + 1.01 * h >= x1:
            h, xn = x1 - x, x1
        else:
            xn = x + h
        ha = h * a2_1
        f2, p2, q2 = f + ha * p, p + ha * q, q + ha * k
        k2 = accel(x + c2 * h, f2, p2, q2)
        f3 = f + h * (a3_1 * p + a3_2 * p2)
        p3 = p + h * (a3_1 * q + a3_2 * q2)
        q3 = q + h * (a3_1 * k + a3_2 * k2)
        k3 = accel(x + c3 * h, f3, p3, q3)
        f4 = f + h * (a4_1 * p + a4_3 * p3)
        p4 = p + h * (a4_1 * q + a4_3 * q3)
        q4 = q + h * (a4_1 * k + a4_3 * k3)
        k4 = accel(x + c4 * h, f4, p4, q4)
        f5 = f + h * (a5_1 * p + a5_3 * p3 + a5_4 * p4)
        p5 = p + h * (a5_1 * q + a5_3 * q3 + a5_4 * q4)
        q5 = q + h * (a5_1 * k + a5_3 * k3 + a5_4 * k4)
        k5 = accel(x + c5 * h, f5, p5, q5)
        f6 = f + h * (a6_1 * p + a6_4 * p4 + a6_5 * p5)
        p6 = p + h * (a6_1 * q + a6_4 * q4 + a6_5 * q5)
        q6 = q + h * (a6_1 * k + a6_4 * k4 + a6_5 * k5)
        k6 = accel(x + c6 * h, f6, p6, q6)
        f7 = f + h * (a7_1 * p + a7_4 * p4 + a7_5 * p5 + a7_6 * p6)
        p7 = p + h * (a7_1 * q + a7_4 * q4 + a7_5 * q5 + a7_6 * q6)
        q7 = q + h * (a7_1 * k + a7_4 * k4 + a7_5 * k5 + a7_6 * k6)
        k7 = accel(x + c7 * h, f7, p7, q7)
        f8 = f + h * (a8_1 * p + a8_4 * p4 + a8_5 * p5 + a8_6 * p6 + a8_7 * p7)
        p8 = p + h * (a8_1 * q + a8_4 * q4 + a8_5 * q5 + a8_6 * q6 + a8_7 * q7)
        q8 = q + h * (a8_1 * k + a8_4 * k4 + a8_5 * k5 + a8_6 * k6 + a8_7 * k7)
        k8 = accel(x + c8 * h, f8, p8, q8)
        f9 = f + h * (a9_1 * p + a9_4 * p4 + a9_5 * p5 + a9_6 * p6 + a9_7 * p7 + a9_8 * p8)
        p9 = p + h * (a9_1 * q + a9_4 * q4 + a9_5 * q5 + a9_6 * q6 + a9_7 * q7 + a9_8 * q8)
        q9 = q + h * (a9_1 * k + a9_4 * k4 + a9_5 * k5 + a9_6 * k6 + a9_7 * k7 + a9_8 * k8)
        k9 = accel(x + c9 * h, f9, p9, q9)
        f10 = f + h * (a10_1 * p + a10_4 * p4 + a10_5 * p5 + a10_6 * p6 + a10_7 * p7
            + a10_8 * p8 + a10_9 * p9)
        p10 = p + h * (a10_1 * q + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
            + a10_8 * q8 + a10_9 * q9)
        q10 = q + h * (a10_1 * k + a10_4 * k4 + a10_5 * k5 + a10_6 * k6 + a10_7 * k7
            + a10_8 * k8 + a10_9 * k9)
        k10 = accel(x + c10 * h, f10, p10, q10)
        f11 = f + h * (a11_1 * p + a11_4 * p4 + a11_5 * p5 + a11_6 * p6 + a11_7 * p7
            + a11_8 * p8 + a11_9 * p9 + a11_10 * p10)
        p11 = p + h * (a11_1 * q + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
            + a11_8 * q8 + a11_9 * q9 + a11_10 * q10)
        q11 = q + h * (a11_1 * k + a11_4 * k4 + a11_5 * k5 + a11_6 * k6 + a11_7 * k7
            + a11_8 * k8 + a11_9 * k9 + a11_10 * k10)
        k11 = accel(x + c11 * h, f11, p11, q11)
        f12 = f + h * (a12_1 * p + a12_4 * p4 + a12_5 * p5 + a12_6 * p6 + a12_7 * p7
            + a12_8 * p8 + a12_9 * p9 + a12_10 * p10 + a12_11 * p11)
        p12 = p + h * (a12_1 * q + a12_4 * q4 + a12_5 * q5 + a12_6 * q6 + a12_7 * q7
            + a12_8 * q8 + a12_9 * q9 + a12_10 * q10 + a12_11 * q11)
        q12 = q + h * (a12_1 * k + a12_4 * k4 + a12_5 * k5 + a12_6 * k6 + a12_7 * k7
            + a12_8 * k8 + a12_9 * k9 + a12_10 * k10 + a12_11 * k11)
        k12 = accel(xn, f12, p12, q12)
        bf = (b1 * p + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10 + b11 * p11
            + b12 * p12)
        bp = (b1 * q + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9 + b10 * q10 + b11 * q11
            + b12 * q12)
        bq = (b1 * k + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9 + b10 * k10 + b11 * k11
            + b12 * k12)
        fn, pn, qn = f + h * bf, p + h * bp, q + h * bq
        af, ap, aq = abs(fn), abs(pn), abs(qn)
        # the fifth-order error estimate s and the third-order one t, scaled
        sf = (e1 * p + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10 + e11 * p11
            + e12 * p12) / (1.0 + af)
        sp = (e1 * q + e6 * q6 + e7 * q7 + e8 * q8 + e9 * q9 + e10 * q10 + e11 * q11
            + e12 * q12) / (1.0 + ap)
        sq = (e1 * k + e6 * k6 + e7 * k7 + e8 * k8 + e9 * k9 + e10 * k10 + e11 * k11
            + e12 * k12) / (1.0 + aq)
        tf = (bf - bh1 * p - bh9 * p9 - bh12 * p12) / (1.0 + af)
        tp = (bp - bh1 * q - bh9 * q9 - bh12 * q12) / (1.0 + ap)
        tq = (bq - bh1 * k - bh9 * k9 - bh12 * k12) / (1.0 + aq)
        s5, s3 = sf * sf + sp * sp + sq * sq, tf * tf + tp * tp + tq * tq
        err = h * h * s5 * s5 * scale / (s5 + 0.01 * s3) if s5 else 0.0
        if err <= 1.0:
            if not (af <= _BOUND and ap <= _BOUND and aq <= _BOUND):
                return xn, (fn, pn, qn), None
            kn = accel(xn, fn, pn, qn)
            if trail is not None:
                trail.append((x, h, f, p, q, fn, pn, qn, p, q, k, p6, q6, k6, p7, q7, k7,
                    p8, q8, k8, p9, q9, k9, p10, q10, k10, p11, q11, k11, p12, q12, k12, pn,
                    qn, kn))
            x, f, p, q, k = xn, fn, pn, qn, kn
            h = min(cap, h * (6.0 if err == 0.0 or (g := 0.9 * err ** -0.0625) >= 6.0 else g))
            if events and (p < 0 or q > 0):
                return x, (f, p, q), -1 if p < 0 else 1
        else:
            h *= g if err < math.inf and (g := 0.9 * err ** -0.0625) > 1 / 3 else 1 / 3
            if h < 1e-14 * (1.0 + abs(x)):
                return x, (f, p, q), None
    return x, (f, p, q), 0


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
    cfg.step to cfg.z_max, or from 0.05 to 30 on screening, which launches
    from its small-x series at x = 1e-6.  The bracket starts at (-2, 0), or
    (0, 2) for the cone (its root for every lam in [0, 2]), and (lo, hi)
    moves to (lo - 2 (hi - lo), lo) while lo walks too high.

    The slope is g's root to within the error of its walks, and that root
    is the infinite-domain slope to within 1e-13 (1 + |s|) on the film and
    the cone and 3e-9 on screening, at the default step.  Past X the
    trajectory's error grows like the unstable mode, on the film as
    e^{sqrt(b3) z}.  A top end not too high, a bracket past 1e3 wide, a walk
    that aborts unclassified, or a g that keeps its sign over 1e3 raises
    OracleError in shoot.  The trajectory is walked, on a copy of problem
    taken by shoot, on the first read of the states, which unpacking the
    pair makes; reading only the abscissas walks nothing.  A trajectory
    that leaves +-1e6 raises BlowUpError on that read and on every later one.
    """
    cfg = ShootConfig() if cfg is None else cfg
    if not isinstance(cfg, ShootConfig):
        raise ConfigurationError("cfg must be a ShootConfig or None, got %r" % (cfg,))
    x0, grid0, x1, h0 = 0.0, 0.0, cfg.z_max, cfg.step
    far = min(_MISMATCH_X, x1)
    if isinstance(problem, FluidParams):
        start, lo, hi = (lambda s: (1.0, s)), -2.0, 0.0
        mismatch = lambda x, y, rate=math.sqrt(problem.b3): y[1] + rate * y[0]
    elif isinstance(problem, ConeParams):
        start, lo, hi = (lambda s: (0.0, s, -1.0)), 0.0, 2.0
        mismatch = lambda x, y, a=(problem.lam + 5.0) / 2.0: y[2] + a * y[0] * y[1]
    elif isinstance(problem, ThomasFermiProblem):
        x0 = h0 = _TF_LAUNCH
        start, lo, hi = (lambda s: _tf_launch(s, x0)), -2.0, 0.0
        grid0, x1, far = _TF_PRELUDE_END, _TF_FAR_FIELD, _TF_MISMATCH_X
        mismatch = lambda x, y: x * y[1] + 3.0 * y[0]
    else:
        raise ConfigurationError("unknown problem kind: %r" % (problem,))
    accel = copy.copy(problem).top_derivative
    tol, grid = _tol_and_grid(grid0, x1, cfg.step)

    def side(s, width=0.0):
        """The class of s, walked at the tolerance of a bracket this wide."""
        walk_tol = max(tol, min(_LOOSE_CAP, _LOOSE_SCALE * width))
        h = h0 if x0 else h0 * (walk_tol / tol) ** 0.25
        reached, y, outcome = _dop853(accel, start(s), x0, x1, walk_tol, h, None, True)
        if outcome is None:
            if walk_tol > tol:
                return side(s)
            raise OracleError("the walk from trial slope %.17g aborted at x = %g "
                              "before it had a class" % (s, reached))
        return outcome or math.copysign(1.0, mismatch(reached, y))

    def g(s):
        """(s, g at far, its sign), or (s, None, strict class) if the walk aborts."""
        _, y, outcome = _dop853(accel, start(s), x0, far, tol, h0)
        if outcome is None:
            return s, None, side(s)
        value = mismatch(far, y)
        return s, value, math.copysign(1.0, value)

    if side(hi, hi - lo) < 0 and side(hi) < 0:
        raise OracleError("far-field mismatch is not positive at the top of the bracket")
    while side(lo, hi - lo) > 0:
        if hi - lo > _MAX_WIDTH:
            raise OracleError("no far-field root found above %.17g" % lo)
        lo, hi = lo - 2.0 * (hi - lo), lo
    while hi - lo > _SECANT_WIDTH:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if side(mid, hi - lo) < 0 else (lo, mid)
    # where both ends' g share a sign, g's root lies past the end that is off
    low, high = g(lo), g(hi)
    while low[2] > 0 or high[2] < 0:
        width = 2.0 * (high[0] - low[0])
        if width > _MAX_WIDTH:
            raise OracleError("the far-field mismatch keeps its sign from %.17g to %.17g"
                              % (low[0], high[0]))
        low, high = (g(low[0] - width), low) if low[2] > 0 else (high, g(high[0] + width))
    # the secant through the last two walks, if it stays inside (lo, hi)
    (s0, g0, _), (s1, g1, _) = low, high
    lo, hi = s0, s1
    while True:
        s = 0.5 * (lo + hi)
        if g0 is not None and g1 is not None and g0 != g1:
            t = s1 - g1 * (s1 - s0) / (g1 - g0)
            if lo < t < hi or abs(t - s1) <= _SECANT_TOL * (1.0 + abs(t)):
                s = t
        if abs(s - s1) <= _SECANT_TOL * (1.0 + abs(s)):
            break
        _, gs, sign = g(s)
        lo, hi = (s, hi) if sign < 0 else (lo, s)
        (s0, g0), (s1, g1) = (s1, g1), (s, gs)
    return s, _Trajectory(grid, (accel, start(s), x0, x1, tol, h0))
