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
form: the state is (f, f') or (f, f', f''), and the problem's top_derivative
method, the same equation as its collocation residual, gives the highest
derivative.  It stays scalar on purpose: a numpy stepper advancing a batch
of 8 to 65 trial slopes in lockstep measured 65-90 us per step, against
10-12 us here, and its walk is generated per state length from the tableau,
because a loop over a state tuple measured several times slower.  For a
bound method that _inline accepts, a problem's top_derivative say, the walk
evaluates its return expression, read from its lines in linecache, in place
of each call (a film shoot 1.5 -> 1.1 ms, a cone 2.8 -> 2.3 ms), and calls
the method where _inline refuses it.  Accuracy is one knob, ShootConfig.step:
the mismatch walks and the reported trajectory run at local error tolerance
step**4 (1e-12 at the default 1e-3).  The trajectory, one walk from the
final slope, is walked on the first read of the states and spaced step apart
by the pair's order-7 continuous extension; it takes no step longer than 4,
so the extension holds the tolerance in the far field too.

A problem gives what a shoot needs through the Problem protocol: launch
point and state, start bracket, far fields and the far-field mismatch g.  A
trial slope takes the class of the first event on its walk, at the launch
state or an accepted one.  With (u, v) the state's last two components, it
is too low once u < 0 and too high once v > 0 (on the cone, above its root
f' levels off positive and b f'^2 drives f'' up), so no walk runs into a
blow-up or a stiff stretch.  A walk with no event by the walk end takes the
sign of g there: above the cone root f'' can stay at the error floor, about
-1e-12.

Class walks run loose, at tau = max(step**4, min(1e-3, 0.1 w)) at bracket
width w: the checks of the start bracket's ends and bisection down to
w = 1e-6, each from a first trial step of step (tau / step**4)**(1/4), the
rule that ties step to step**4, or from a positive launch point.  As a tau
from 1e-7 to 1e-3 moved the class boundary by at most 0.04 tau (0.16 tau on
screening), only a slope within a few percent of w of the root can take the
wrong class.  A loose walk that aborts, or a top end found too low, is
repeated at step**4.  The secant takes g where the problem's far field puts
it, at the end of a walk without events.  A wrong loose class, or a class
root apart from g's, can leave g's root just outside the bracket, where
both ends' g share a sign; the bracket then moves past the end that is off,
doubling its width.  An iterate outside the bracket is its midpoint, each g
sign narrows it, and the search stops at a step of at most 1e-13 (1 + |s|).
A g walk that aborts gives its slope's strict class instead, and a midpoint
follows.
"""

import ast
import copy
import linecache
import math
import reprlib
import textwrap
from functools import cache, reduce
from operator import add, attrgetter
from types import FunctionType

import numpy as np

from .core import _real
from .errors import BlowUpError, ConfigurationError, OracleError, RangeOverflowError
from .problems import _admit

_BOUND = 1e6
_MAX_WIDTH = 1e3        # the widest bracket searched
_LOOSE_CAP = 1e-3       # bisection walks run at max(step**4, min(cap, scale * width))
_LOOSE_SCALE = 0.1
_SECANT_WIDTH = 1e-6    # the bracket width where the secant takes over
_SECANT_TOL = 1e-13     # its stop, |ds| <= _SECANT_TOL (1 + |s|)
_TRAIL_CAP = 4.0        # the longest step of a trail walk

# Hairer's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5; the
# values of his dop853.f): stages 2-12, each a node and the nonzero weights
# a_ij on earlier stages j in summation order (stage 12's node 1 is the
# step's end), the eighth-order weights b_j (the thirteenth stage's row, so
# the pair is FSAL), the fifth-order error weights e_j and the weights bh_j
# of the third-order estimate b - bh
_STAGES = (
    (0.05260015195876773, {1: 0.05260015195876773}),
    (0.0789002279381516, {1: 0.0197250569845379, 2: 0.0591751709536137}),
    (0.1183503419072274, {1: 0.02958758547680685, 3: 0.08876275643042054}),
    (0.2816496580927726, {1: 0.2413651341592667, 3: -0.8845494793282861, 4: 0.924834003261792}),
    (0.3333333333333333, {1: 0.037037037037037035, 4: 0.17082860872947386,
                          5: 0.12546768756682242}),
    (0.25, {1: 0.037109375, 4: 0.17025221101954405, 5: 0.06021653898045596, 6: -0.017578125}),
    (0.3076923076923077, {1: 0.03709200011850479, 4: 0.17038392571223998, 5: 0.10726203044637328,
                          6: -0.015319437748624402, 7: 0.008273789163814023}),
    (0.6512820512820513, {1: 0.6241109587160757, 4: -3.3608926294469414, 5: -0.868219346841726,
                          6: 27.59209969944671, 7: 20.154067550477894, 8: -43.48988418106996}),
    (0.6, {1: 0.47766253643826434, 4: -2.4881146199716677, 5: -0.590290826836843,
           6: 21.230051448181193, 7: 15.279233632882423, 8: -33.28821096898486,
           9: -0.020331201708508627}),
    (0.8571428571428571, {1: -0.9371424300859873, 4: 5.186372428844064, 5: 1.0914373489967295,
                          6: -8.149787010746927, 7: -18.52006565999696, 8: 22.739487099350505,
                          9: 2.4936055526796523, 10: -3.0467644718982196}),
    (1.0, {1: 2.273310147516538, 4: -10.53449546673725, 5: -2.0008720582248625,
           6: -17.9589318631188, 7: 27.94888452941996, 8: -2.8589982771350235,
           9: -8.87285693353063, 10: 12.360567175794303, 11: 0.6433927460157636}),
)
_B = {1: 0.054293734116568765, 6: 4.450312892752409, 7: 1.8915178993145003, 8: -5.801203960010585,
      9: 0.3111643669578199, 10: -0.1521609496625161, 11: 0.20136540080403034,
      12: 0.04471061572777259}
_E = {1: 0.01312004499419488, 6: -1.2251564463762044, 7: -0.4957589496572502,
      8: 1.6643771824549864, 9: -0.35032884874997366, 10: 0.3341791187130175,
      11: 0.08192320648511571, 12: -0.022355307863886294}
_BH = {1: 0.2440944881889764, 9: 0.7338466882816118, 12: 0.022058823529411766}
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
    step of every walk at step**4 from a launch point at 0.  z_max is what
    each problem's far takes: where the film's and the cone's trajectory
    and class walks end.
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

    state is (f, f', ...), and accel gives the top derivative.  Twelve
    stages, then the derivative at the new state, reused as the next step's
    first (FSAL): twelve top-derivative evaluations per accepted step,
    eleven per rejected one, each a call of accel or, for a bound method that
    _inline accepts, its expression inline.  With E5 and E3 the fifth- and
    third-order error estimates, each component scaled by tol (1 + |y_i|),
    y the new state, Hairer's error
    |h| |E5|^2 / sqrt(n (|E5|^2 + 0.01 |E3|^2)) over n components, the RMS
    of E5 when E3 is small, must be <= 1 to accept the step; the next trial
    step h is h clamp(0.9 err^(-1/8), 1/3, 6), a zero error grows h sixfold
    and a non-finite one divides it by 3.  The walk aborts, with outcome None,
    after the first accepted state that leaves +-_BOUND, or when a rejection
    drives h below 1e-14 (1 + |x|).  With a trail, no step grows past
    _TRAIL_CAP, and each accepted one appends (x, h, state, new state, the
    derivatives of stages 1 and 6-13), from which _dense forms the
    continuous extension.  With events, the walk stops at its first state,
    the starting one included, whose last two components (u, v) have u < 0
    (outcome -1) or v > 0 (outcome +1); else the outcome is 0.  _walk_source
    generates the walk per state length and function that accel binds.
    """
    if events and (state[-2] < 0 or state[-1] > 0):
        return x, state, -1 if state[-2] < 0 else 1
    method = getattr(accel, "__func__", None)
    walk = _walker(method if isinstance(method, FunctionType) else None, len(state))
    return walk(accel, state, x, x1, 1.0 / (len(state) * tol * tol), h,
                math.inf if trail is None else _TRAIL_CAP, trail, events)


@cache
def _walker(method, n):
    """The n-component walk of an accel bound to method (None: any accel), compiled once."""
    namespace = {}
    exec(compile(_walk_source(n, method), "<dop853 walk, %d components>" % n, "exec"),
         globals(), namespace)
    return namespace["walk"]


class _Stage(ast.NodeTransformer):
    """A return expression with each name in names as its text (x as chr(1) and
    component i as y<i>_chr(0) for a stage's node and index), each
    self.<attr> as the local self_<attr> and each other name as free_<name>."""
    def __init__(self, names):
        self.names, self.attrs = names, set()

    def visit_Name(self, node):
        return ast.Name(self.names.get(node.id, "free_" + node.id))

    def visit_Attribute(self, node):
        if getattr(node.value, "id", None) != "self":
            return self.generic_visit(node)
        self.attrs.add(node.attr)
        return ast.Name("self_" + node.attr)


def _inline(method, n):
    """(the lines binding self_<attr> and free_<name> for each self.<attr> and
    other name that the function method reads, a function writing its return
    expression at a stage's node and index), or None, the call path, unless
    method, with no cell such as super()'s, has lines compiling to its loaded
    names and arguments (self, x and n components) that are a docstring and
    one return binding no name and reading only what its globals or builtins hold."""
    code, key = method.__code__, attrgetter("co_names", "co_varnames", "co_argcount")
    end = max((pos[1] or 0 for pos in getattr(code, "co_positions", tuple)()), default=0)
    try:
        module = ast.parse(textwrap.dedent(
            "".join(linecache.getlines(code.co_filename)[code.co_firstlineno - 1:end])))
        read = [key(c) for c in compile(module, "", "exec").co_consts if isinstance(c, type(code))]
    except SyntaxError:
        return None
    if read != [key(code)] or not isinstance(tree := module.body[0], ast.FunctionDef):
        return None
    *doc, last = tree.body
    free = {node.id for node in ast.walk(last) if isinstance(node, ast.Name)} - {*code.co_varnames}
    if (not code.co_argcount == len(code.co_varnames) == n + 2 or code.co_freevars
            or not isinstance(last, ast.Return)
            or len(doc) != (ast.get_docstring(tree) is not None)
            or free - method.__globals__.keys() - method.__builtins__.keys()
            or any(isinstance(node, (ast.Lambda, ast.NamedExpr)) for node in ast.walk(last))):
        return None
    stage = _Stage(dict(zip(code.co_varnames, ("accel.__self__", "\1",
                                               *("y%d_\0" % i for i in range(n))))))
    text = ast.unparse(stage.visit(last.value))
    return ("".join("    self_%s = accel.__self__.%s\n" % (a, a) for a in sorted(stage.attrs))
            + "".join("    free_%s = accel.__globals__.get(%r, accel.__builtins__.get(%r))\n"
                      % (name, name, name) for name in sorted(free)),
            lambda node, j: text.replace("\0", str(j)).replace(
                "\1", node if node.isidentifier() else "(%s)" % node))


def _walk_source(n, method=None):
    """Source of the body of _dop853 for n components, as scalar Python:
    y<i>_<j> is component i at stage j (1 the step's start, 13 its end) and
    k<j> the top derivative there, a call of accel or, by _inline, the
    function method that accel binds written out; each weight is a literal,
    each sum in the tableau's order."""
    def state(j):
        return ", ".join("y%d_%d" % (i, j) for i in range(n))

    bind, top = (method and _inline(method, n)) or (
        "", lambda node, j: "accel(%s, %s)" % (node, state(j)))

    def slope(i, j):
        return "y%d_%d" % (i + 1, j) if i + 1 < n else "k%d" % j

    def dot(weights, i):
        return " + ".join("%r * %s" % (a, slope(i, j)) for j, a in weights.items())

    lines = []
    for j, (c, weights) in enumerate(_STAGES, 2):
        for i in range(n):
            # a lone weight meets h first, (h a21) y', as in dop853.f
            terms = dot(weights, i) if len(weights) == 1 else "(%s)" % dot(weights, i)
            lines.append("y%d_%d = y%d_1 + h * %s" % (i, j, i, terms))
        node = "xn" if c == 1.0 else "x + %r * h" % c
        lines.append("k%d = %s" % (j, top(node, j)))
    # the new state, then the fifth-order error estimate s and the
    # third-order one t, scaled
    for i in range(n):
        bh = "".join(" - %r * %s" % (a, slope(i, j)) for j, a in _BH.items())
        lines += ["b%d = %s" % (i, dot(_B, i)), "y%d_13 = y%d_1 + h * b%d" % (i, i, i),
                  "a%d = abs(y%d_13)" % (i, i), "s%d = (%s) / (1.0 + a%d)" % (i, dot(_E, i), i),
                  "t%d = (b%d%s) / (1.0 + a%d)" % (i, i, bh, i)]
    return _WALK.format(
        bind=bind, k1=top("x", 1), k13=top("xn", 13),
        start=state(1), end=state(13), u="y%d_1" % (n - 2), v="y%d_1" % (n - 1),
        stages="\n".join(" " * 8 + line for line in lines),
        s5=" + ".join("s%d * s%d" % (i, i) for i in range(n)),
        s3=" + ".join("t%d * t%d" % (i, i) for i in range(n)),
        bounded=" and ".join("a%d <= _BOUND" % i for i in range(n)),
        slopes=", ".join(slope(i, j) for j in (*_B, 13) for i in range(n)))


# err is the square of Hairer's estimate, so err ** -0.0625 is that estimate
# to the power -1/8
_WALK = """\
def walk(accel, state, x, x1, scale, h, cap, trail, events):
{bind}    {start} = state
    k1 = {k1}
    while x < x1:
        if x + 1.01 * h >= x1:
            h, xn = x1 - x, x1
        else:
            xn = x + h
{stages}
        s5, s3 = {s5}, {s3}
        err = h * h * s5 * s5 * scale / (s5 + 0.01 * s3) if s5 else 0.0
        if err <= 1.0:
            if not ({bounded}):
                return xn, ({end}), None
            k13 = {k13}
            if trail is not None:
                trail.append((x, h, {start}, {end}, {slopes}))
            x, {start}, k1 = xn, {end}, k13
            h = min(cap, h * (6.0 if err == 0.0 or (g := 0.9 * err ** -0.0625) >= 6.0 else g))
            if events and ({u} < 0 or {v} > 0):
                return x, ({start}), -1 if {u} < 0 else 1
        else:
            h *= g if err < math.inf and (g := 0.9 * err ** -0.0625) > 1 / 3 else 1 / 3
            if h < 1e-14 * (1.0 + abs(x)):
                return x, ({start}), None
    return x, ({start}), 0
"""


def shoot(problem, cfg=None):
    """Reference initial slope and trajectory of a Problem.

    Returns (slope, (abscissas, states)); the states' columns are the
    integrated components on a grid of spacing cfg.step over the trajectory
    span of problem.far(cfg.z_max).  The bracket starts at problem.bracket,
    and (lo, hi) moves to (lo - 2 (hi - lo), lo) while lo walks too high.

    The slope is g's root to within the error of its walks, and that root
    is the infinite-domain slope to within 1e-13 (1 + |s|) on the film and
    the cone and 3e-9 on screening, at the default step.  Past where g is
    taken the trajectory's error grows like the unstable mode, on the film
    as e^{sqrt(b3) z}.  A top end not too high, a bracket past 1e3 wide, a
    walk that aborts unclassified, or a g that keeps its sign over 1e3
    raises OracleError in shoot.  The trajectory is walked, on a copy of
    problem taken by shoot, on the first read of the states, which
    unpacking the pair makes; reading only the abscissas walks nothing.  A
    trajectory that leaves +-1e6 raises BlowUpError on that read and on
    every later one.  A problem that is no Problem, that require_posed
    refuses or that lacks launch, mismatch or top_derivative raises
    ConfigurationError.
    """
    cfg = ShootConfig() if cfg is None else cfg
    if not isinstance(cfg, ShootConfig):
        raise ConfigurationError("cfg must be a ShootConfig or None, got %r" % (cfg,))
    _admit(problem, ("launch", "mismatch", "top_derivative"))
    start, mismatch, accel = problem.launch, problem.mismatch, copy.copy(problem).top_derivative
    x0, (lo, hi), (grid0, x1, far) = problem.launch_x, problem.bracket, problem.far(cfg.z_max)
    h0 = x0 or cfg.step
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
