"""Reference shooting integrator: error-controlled Runge-Kutta behavior in
companion form, slope search, and robustness of the reported slopes."""

import copy
import inspect
import linecache
import math
import traceback

import numpy as np
import pytest

from halfline.errors import (BlowUpError, ConfigurationError, OracleError,
                             RangeOverflowError)
from halfline import shooting
from halfline.problems import ConeParams, FluidParams, ThomasFermiProblem
from halfline.shooting import ShootConfig, integrate, shoot

from conftest import CONE_LAMBDAS, FLUID_B
from scalar_reference import extension_points

FLUID = FluidParams(*FLUID_B)
# each model problem's top_derivative and its state length
MODELS = ((FluidParams.top_derivative, 2), (ConeParams.top_derivative, 3),
          (ThomasFermiProblem.top_derivative, 2))


# ---------------------------------------------------------------------------
# DOP853 integrator: integrate(accel, (f, f'[, f'']), x0, x1, step)


def test_integrate_exponential():
    xs, states = integrate(lambda x, f, fp: f, (1.0, 1.0), 0.0, 1.0, 1e-3)
    assert abs(states[-1, 0] - math.e) <= 1e-10
    assert abs(states[-1, 1] - math.e) <= 1e-10
    assert xs[0] == 0.0 and xs[-1] == 1.0


def test_integrate_constant_is_exact():
    xs, states = integrate(lambda x, f, fp: 0.0, (0.7, 0.0), 0.0, 5.0, 0.1)
    assert np.all(states[:, 0] == 0.7)
    xs, states = integrate(lambda x, f, fp, fpp: 0.0, (0.7, 0.0, 0.0),
                           0.0, 5.0, 0.1)
    assert np.all(states[:, 0] == 0.7)


def test_integrate_exact_on_low_degree_polynomials():
    # f = x^3 through f'' = 6x, and f = x^3 + x^2 through f''' = 6
    xs, states = integrate(lambda x, f, fp: 6.0 * x, (0.0, 0.0),
                           0.0, 2.0, 1e-2)
    assert abs(states[-1, 0] - 8.0) <= 1e-12
    assert abs(states[-1, 1] - 12.0) <= 1e-12
    xs, states = integrate(lambda x, f, fp, fpp: 6.0, (0.0, 0.0, 2.0),
                           0.0, 2.0, 1e-2)
    assert abs(states[-1, 0] - 12.0) <= 1e-12
    assert abs(states[-1, 1] - 16.0) <= 1e-12
    assert abs(states[-1, 2] - 14.0) <= 1e-12


def test_integrate_final_step_lands_exactly():
    xs, states = integrate(lambda x, f, fp: 0.0, (0.0, 1.0),
                           0.0, 0.0015, 1e-3)
    assert xs[-1] == 0.0015
    assert len(xs) == 3
    assert abs(states[-1, 0] - 0.0015) <= 1e-15


def test_integrate_trajectory_shape():
    xs, states = integrate(lambda x, f, fp: -f, (1.0, 0.0), 0.0, 1.0, 0.1)
    assert xs.shape == (11,)
    assert states.shape == (11, 2) and states.flags.c_contiguous
    xs, states = integrate(lambda x, f, fp, fpp: -fp, (1.0, 0.0, -1.0),
                           0.0, 1.0, 0.1)
    assert states.shape == (11, 3) and states.flags.c_contiguous
    # a 1-d array is a state as its tuple is
    again = integrate(lambda x, f, fp, fpp: -fp, np.array([1.0, 0.0, -1.0]),
                      0.0, 1.0, 0.1)
    assert np.array_equal(again[0], xs) and np.array_equal(again[1], states)


def test_integrate_blow_up_reports_abscissa():
    # f'' = 6 f^2 from f = 1, f' = 2 is f = (1 - x)^-2, with a pole at x = 1
    with pytest.raises(BlowUpError) as info:
        integrate(lambda x, f, fp: 6.0 * f * f, (1.0, 2.0), 0.0, 2.0, 1e-3)
    assert 0.9 < info.value.abscissa <= 1.1
    # f''' = 1e9 is integrated exactly, and f'' = 1e7 after the first step
    # is already past the bound
    with pytest.raises(BlowUpError) as info:
        integrate(lambda x, f, p, q: 1e9, (0.0, 0.0, 0.0), 0.0, 10.0, 1e-2)
    assert info.value.abscissa == 0.01


def test_integrate_reports_a_collapsed_step():
    # every error estimate is NaN, so each trial step is cut by 3 until it
    # falls below 1e-14 at the start (the order-2 walk meets this in
    # test_walk_that_aborts_before_its_class_is_an_oracle_error)
    with pytest.raises(BlowUpError) as info:
        integrate(lambda x, f, p, q: math.nan, (1.0, 0.0, 0.0), 0.0, 1.0, 1e-2)
    assert info.value.abscissa == 0.0


def test_integrate_fills_the_grid_from_the_continuous_extension():
    # f'' = -f is cos x; the accepted steps are far longer than the grid
    # spacing, so almost every reported point comes from the order-7
    # continuous extension, which holds the local tolerance: 1e-8 at step
    # 1e-2 (19 steps), and 1e-12 at the default step 1e-3 (53 steps, 3.5e-12)
    xs, states = integrate(lambda x, f, fp: -f, (1.0, 0.0), 0.0, 10.0, 1e-2)
    assert np.array_equal(xs[:-1], 1e-2 * np.arange(1000)) and xs[-1] == 10.0
    assert np.max(np.abs(states[:, 0] - np.cos(xs))) <= 1e-7
    assert np.max(np.abs(states[:, 1] + np.sin(xs))) <= 1e-7
    xs, states = integrate(lambda x, f, fp: -f, (1.0, 0.0), 0.0, 10.0, 1e-3)
    assert len(xs) == 10_001
    assert np.max(np.abs(states - np.column_stack((np.cos(xs), -np.sin(xs))))) <= 1e-11
    # and f''' = -f' from (0, 1, 0) is sin x, through the three-component walk
    xs, states = integrate(lambda x, f, fp, fpp: -fp, (0.0, 1.0, 0.0), 0.0, 10.0, 1e-3)
    exact = np.column_stack((np.sin(xs), np.cos(xs), -np.sin(xs)))
    assert np.max(np.abs(states - exact)) <= 1e-11


def test_the_walk_is_generated_for_any_state_length():
    # y'''' = y from (1, 0, -1, 0) is cos x: a four-component walk, which no
    # model problem takes, at tolerance 1e-12 with a trail, and its
    # continuous extension on the grid of step 1e-3 (errors of 3.5e-12 on
    # the grid and 7.6e-13 at the end were measured)
    accel, trail = (lambda x, *y: y[0]), []
    tol, grid = shooting._tol_and_grid(0.0, 5.0, 1e-3)
    x, end, outcome = shooting._dop853(accel, (1.0, 0.0, -1.0, 0.0), 0.0, 5.0, tol, 1e-3,
                                       trail)
    exact = np.column_stack((np.cos(grid), -np.sin(grid), -np.cos(grid), np.sin(grid)))
    assert x == 5.0 and outcome == 0
    assert np.max(np.abs(np.array(end) - exact[-1])) <= 1e-10
    assert np.max(np.abs(shooting._dense(trail, grid, accel) - exact)) <= 1e-10


def test_an_error_in_accel_names_the_generated_walk():
    def accel(x, f, fp):
        raise ZeroDivisionError
    with pytest.raises(ZeroDivisionError) as info:
        integrate(accel, (1.0, 0.0), 0.0, 1.0, 0.1)
    frames = traceback.extract_tb(info.value.__traceback__)
    assert ("<dop853 walk, 2 components>", "walk") in [(f.filename, f.name) for f in frames]


def test_integrate_stays_stable_on_stiff_decay():
    # f'' = -1e3 f' from (0, 1) is f = (1 - exp(-1e3 x)) / 1e3.  A fixed
    # step of 1e-2 is far outside any explicit stability region; the step
    # control settles at the stability limit instead.  Every Runge-Kutta
    # step keeps the linear invariant f + f'/1e3 = 1e-3 exactly, so the
    # error in f(40) is the leftover stiff mode f'(40) / 1e3, which the
    # error test holds near the tolerance 1e-8: at most about 1.5e-11.
    xs, states = integrate(lambda x, f, fp: -1e3 * fp, (0.0, 1.0), 0.0, 40.0, 1e-2)
    assert xs[-1] == 40.0 and len(xs) == 4001
    assert abs(states[-1, 0] - 1e-3) <= 2e-11
    assert abs(states[-1, 0] + states[-1, 1] / 1e3 - 1e-3) <= 1e-15


def test_integrate_step_validation():
    for step in (0.0, -1e-3, math.inf, math.nan, True, None):
        with pytest.raises(ConfigurationError):
            integrate(lambda x, f, fp: 0.0, (1.0, 0.0), 0.0, 1.0, step)
    # x0 is finite and x1 lies beyond it: a backward or empty run, or an
    # endless one, is refused instead of taking a single odd step
    for x0, x1 in ((1.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0),
                   (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigurationError):
            integrate(lambda x, f, fp: 0.0, (1.0, 0.0), x0, x1, 0.1)
    # before any walk: a tolerance step**4 whose square leaves the double
    # range (step 1e-90 underflows, 1e100 overflows), and a grid of 1e30
    # points that cannot be allocated
    calls = []

    def accel(x, f, fp):
        calls.append(x)
        return 0.0
    for step in (1e-90, 1e100):
        with pytest.raises(ConfigurationError):
            integrate(accel, (1.0, 0.0), 0.0, 1.0, step)
    with pytest.raises(RangeOverflowError):
        integrate(accel, (1.0, 0.0), 0.0, 1.0, 1e-30)
    assert calls == []


def test_integrate_state_must_hold_two_or_three_derivatives():
    # and each of them a finite real: no scalar, string, None or nan
    for y0 in ((1.0,), (1.0, 0.0, 0.0, 0.0), 5, (1.0, "a"), (1.0, None),
               (math.nan, 0.0)):
        with pytest.raises(ConfigurationError):
            integrate(lambda x, *f: 0.0, y0, 0.0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# reported slopes


def test_fluid_slope_matches_published_value(oracle):
    slope, (xs, states) = oracle(FLUID)
    assert abs(slope - (-0.678301)) <= 1e-5
    assert states[0, 0] == 1.0 and states[0, 1] == slope
    # the profile decays through the physical range; past z ~ 25 the
    # equation's e^{sqrt(b3) z} growth mode amplifies the last digits of
    # the slope, so the endpoint itself is not a meaningful zero
    i10 = int(round(10.0 / 1e-3))
    i20 = int(round(20.0 / 1e-3))
    assert abs(states[i10, 0]) <= 1e-3
    assert abs(states[i20, 0]) <= 1e-3


def test_thomas_fermi_slope_matches_published_value(oracle):
    slope, (xs, states) = oracle(ThomasFermiProblem())
    assert abs(slope - (-1.588071)) <= 5e-4
    assert xs[-1] == 30.0
    # y falls through the whole range towards Sommerfeld's y ~ 144 / x^3:
    # its local decay exponent -x y' / y has reached 2.47 at 30
    y, yp = states[:, 0], states[:, 1]
    assert np.all(y > 0.0) and np.all(np.diff(y) < 0.0)
    assert 2.4 <= -30.0 * yp[-1] / y[-1] <= 3.0


def test_cone_slope_matches_published_value(oracle):
    slope, (xs, states) = oracle(ConeParams(0.0))
    assert abs(slope - 0.94760) <= 1e-4
    assert states[0, 0] == 0.0 and states[0, 2] == -1.0
    assert abs(states[-1, 1]) <= 1e-6  # far-field target f'(z_max) = 0


def test_cone_slope_identity_table(oracle):
    from halfline.reference import TABLE3
    for lam in CONE_LAMBDAS:
        slope, _ = oracle(ConeParams(lam))
        assert abs(slope - TABLE3.value(lam, "rk")) <= 1e-4


def test_step_halving_leaves_slopes_unchanged(oracle):
    problems = [FLUID, ThomasFermiProblem()] + \
        [ConeParams(lam) for lam in CONE_LAMBDAS]
    fine = ShootConfig(step=5e-4)
    for prob in problems:
        base, _ = oracle(prob)
        halved, _ = shoot(prob, fine)
        assert abs(halved - base) <= 1e-8


def test_far_field_extension_leaves_slopes_unchanged(oracle):
    base, _ = oracle(FLUID)
    extended, _ = shoot(FLUID, ShootConfig(z_max=60.0))
    assert abs(extended - base) <= 1e-7
    far = ShootConfig(z_max=60.0)
    for lam in CONE_LAMBDAS:
        base, _ = oracle(ConeParams(lam))
        extended, _ = shoot(ConeParams(lam), far)
        assert abs(extended - base) <= 1e-7


def test_a_far_field_past_the_growth_mode_still_gives_the_slope():
    # past X these films' trajectories follow the e^{sqrt(b3) z} growth mode
    # out of +-1e6 before z = 60; the slope needs no trajectory, so shoot
    # returns it, and only reading the states raises, on every read
    far = ShootConfig(z_max=60.0)
    for b, abscissa in (((0.8618729262948603, 0.9852375172970218), 59.46662189245423),
                        ((0.9434921427204597, 0.9994613990339944), 58.991532808548115)):
        film = FluidParams.from_b1_b3(*b)
        slope, trajectory = shoot(film, far)
        assert slope == shoot(film)[0]
        assert trajectory[0][-1] == 60.0
        for _ in range(2):
            with pytest.raises(BlowUpError, match="^trajectory left the state bound$") as info:
                trajectory[1]
            assert info.value.abscissa == abscissa


# the fixed-step RK4 slopes (step 1e-3) the error-controlled stepper
# replaced; screening's is the secant's, on the far-field mismatch at 40 (the
# fixed-step -1.588071265017559 solved the truncated y(30) = 0)
FIXED_STEP_SLOPES = {
    "film": -0.678301619310756,
    "screening": -1.588071025238939,
    0.0: 0.947604879149176,
    0.25: 0.911282349874943,
    1.0 / 3.0: 0.900307399588860,
    0.5: 0.879801615516390,
    0.75: 0.852155098928181,
    1.0: 0.827606852370027,
}


def test_default_slopes_match_fixed_step_values(oracle):
    problems = {"film": FLUID, "screening": ThomasFermiProblem()}
    problems.update((lam, ConeParams(lam)) for lam in CONE_LAMBDAS)
    assert set(problems) == set(FIXED_STEP_SLOPES)
    for key, prob in problems.items():
        slope, _ = oracle(prob)
        assert abs(slope - FIXED_STEP_SLOPES[key]) <= 1e-8


# the film's and cone lam = 0, 1/2 and 1 slopes at their default far fields,
# computed to 30 digits with mpmath, and the classical screening slope
# (Boyd, J. Comput. Appl. Math. 244, 2013)
MPMATH_SLOPES = {
    "film": -0.678301619352223238,
    0.0: 0.947604879149179913,
    0.5: 0.879801615516390628,
    1.0: 0.827606852370022642,
}
SCREENING_SLOPE = -1.588071022611375


def test_default_slopes_lie_within_1e_12_of_independent_digits(oracle):
    # off by -4.6e-14, -3.2e-14, -7.2e-14 and -9.3e-14; screening, whose
    # mismatch is taken at 40 on an asymptote with a slowly decaying
    # correction, by -2.6e-9
    problems = {"film": FLUID, 0.0: ConeParams(0.0), 0.5: ConeParams(0.5),
                1.0: ConeParams(1.0)}
    for key, exact in MPMATH_SLOPES.items():
        slope, _ = oracle(problems[key])
        assert abs(slope - exact) <= 1e-12 * (1.0 + abs(exact))
    slope, _ = oracle(ThomasFermiProblem())
    assert abs(slope - SCREENING_SLOPE) <= 1e-8


def test_the_trajectory_holds_the_tolerance_in_the_far_field(oracle):
    # the cone's far-field steps are capped at 4, so the continuous
    # extension stays near the tolerance between them: 4.5e-12 from a walk
    # at a quarter of the step (1.0e-10 at z = 30.3 with 7.57-long steps)
    for lam in (0.0, 0.5):
        slope, (xs, states) = oracle(ConeParams(lam))
        fine_xs, fine = integrate(ConeParams(lam).top_derivative, (0.0, slope, -1.0),
                                  0.0, 40.0, 2.5e-4)
        assert np.array_equal(fine_xs[::4], xs)
        assert np.max(np.abs(states - fine[::4])) <= 2e-11


def test_cone_default_bracket_beyond_lambda_one():
    # the stiff probes near the top s = 2 of the start bracket (0, 2) stay
    # stable, so it finds the root inside it, the same as a shoot at half
    # the step
    fine = ShootConfig(step=5e-4)
    for lam in (1.2, 2.0):
        slope, _ = shoot(ConeParams(lam))
        assert 0.0 < slope < 2.0
        assert abs(slope - shoot(ConeParams(lam), fine)[0]) <= 1e-8


def test_cone_classifies_every_lambda_up_to_two():
    # the bracket (0, 2) holds the root on the whole lam grid, and
    # the slope falls as the heat-flux exponent grows
    slopes = [shoot(ConeParams(i / 10))[0] for i in range(21)]
    assert all(0.0 < s < 2.0 for s in slopes)
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_screening_launch_point_insensitivity(oracle, monkeypatch):
    base, _ = oracle(ThomasFermiProblem())
    monkeypatch.setattr(ThomasFermiProblem, "launch_x", 1e-7)
    lo, _ = shoot(ThomasFermiProblem())
    monkeypatch.setattr(ThomasFermiProblem, "launch_x", 1e-5)
    hi, _ = shoot(ThomasFermiProblem())
    assert abs(lo - base) <= 1e-8
    assert abs(hi - base) <= 1e-8


# ---------------------------------------------------------------------------
# the slope search: loose bisection walks, then the secant on g

STRICT_TOL = 1e-3 ** 4  # the default step**4


@pytest.mark.parametrize("step", [1e-3, 5e-4])
def test_loose_walks_leave_every_bit_of_the_oracle(oracle, monkeypatch, step):
    # with the loose cap at 0 every walk runs at step**4; on these problems
    # the loose classes give the strict run's last bracket, so the secant
    # and the trajectory are bit for bit the same
    problems = [FLUID, ThomasFermiProblem(), FluidParams.from_b1_b3(0.3, 0.9),
                FluidParams.from_b1_b3(0.9, 0.3)] + \
        [ConeParams(lam) for lam in CONE_LAMBDAS + (1.2, 2.0)]
    cfg = ShootConfig(step=step)
    loose = [oracle(prob) if step == 1e-3 else shoot(prob, cfg) for prob in problems]
    monkeypatch.setattr(shooting, "_LOOSE_CAP", 0.0)
    for prob, (slope, (xs, states)) in zip(problems, loose):
        assert_all_strict_bits(prob, cfg, slope, xs, states)


def assert_all_strict_bits(prob, cfg, slope, xs, states):
    """shoot(prob, cfg), its walks at step**4 under _LOOSE_CAP = 0, returns
    these very bits."""
    strict, (strict_xs, strict_states) = shoot(prob, cfg)
    assert slope == strict
    assert np.array_equal(xs, strict_xs)
    assert np.array_equal(states, strict_states)


def test_the_states_are_formed_once_and_only_when_read(monkeypatch):
    dense, calls = shooting._dense, []

    def counted(*args):
        calls.append(args)
        return dense(*args)
    monkeypatch.setattr(shooting, "_dense", counted)
    slope, _ = shoot(FLUID)
    assert calls == []
    slope, trajectory = shoot(FLUID)
    xs = trajectory[0]
    assert calls == []
    _, states = trajectory
    assert trajectory[1] is states and len(calls) == 1
    monkeypatch.setattr(shooting, "_LOOSE_CAP", 0.0)
    assert_all_strict_bits(FLUID, ShootConfig(), slope, xs, states)


def test_reading_the_abscissas_walks_nothing(monkeypatch):
    walk, calls = shooting._dop853, []

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(shooting, "_dop853", counted)
    _, trajectory = shoot(FLUID)
    searched = len(calls)
    assert trajectory[0] is trajectory[-2] and trajectory[0][-1] == 40.0
    assert len(calls) == searched
    trajectory[1]
    assert len(calls) == searched + 1 and calls[-1][6] is not None


def test_the_states_are_those_of_the_problem_when_shot():
    # the trajectory is walked on the first read, from a copy of the problem
    # taken by shoot, so changing the problem in between changes no bit
    film = FluidParams(*FLUID_B)
    slope, trajectory = shoot(film)
    film.b3 = 0.9
    fresh, (fresh_xs, fresh_states) = shoot(FluidParams(*FLUID_B))
    assert slope == fresh
    assert np.array_equal(trajectory[0], fresh_xs)
    assert np.array_equal(trajectory[1], fresh_states)


@pytest.mark.parametrize("problem, cfg", [
    (FLUID, ShootConfig()), (ThomasFermiProblem(), ShootConfig()),
    *((ConeParams(lam), ShootConfig()) for lam in (0.0, 0.5, 1.0)),
    (FluidParams(0.0, 0.0, 9.0), ShootConfig(z_max=10.0))],
    ids=["film", "screening", "cone-0", "cone-0.5", "cone-1", "steep-film"])
def test_the_inlined_walk_equals_the_call_path(problem, cfg, monkeypatch):
    # the walk writes each model problem's top_derivative into its stages;
    # a plain function in its place is called at every stage, and every bit
    # of the slope and the states stays
    walker, methods = shooting._walker, set()

    def recorded(method, n):
        methods.add(method)
        return walker(method, n)
    monkeypatch.setattr(shooting, "_walker", recorded)
    slope, (_, states) = shoot(problem, cfg)
    assert type(problem).top_derivative in methods  # beside None, if compiled here
    called = copy.copy(problem)
    method = problem.top_derivative
    called.top_derivative = lambda *args: method(*args)
    methods.clear()
    called_slope, (_, called_states) = shoot(called, cfg)
    assert methods == {None}
    assert slope.hex() == called_slope.hex()
    assert np.array_equal(states, called_states)


def test_only_one_return_expression_is_written_out():
    # the walk writes out a top_derivative that is a docstring and one return
    # over self, x and the state, binding no name and reading only names its
    # globals or builtins hold, so one of the model problems' that stops being
    # so fails here; else it calls accel at each of the 13 points of a step
    for method, n in MODELS:
        assert "accel(" not in shooting._walk_source(n, method)
        assert shooting._walk_source(n).count("accel(") == 13

    class Statements:
        def top_derivative(self, x, f, fp):
            g = f
            return g

    class Unresolved:
        def top_derivative(self, x, f, fp):
            return h * f    # h: neither a global here nor a builtin

    class Walrus:
        def top_derivative(self, x, f, fp):
            return (f := 2.0 * f) * f

    class Lambda:
        def top_derivative(self, x, f, fp):
            return (lambda fp: fp * x)(f)

    class Starred:
        def top_derivative(self, x, f, *fp):
            return f

    class Written:
        def top_derivative(self, x, f, fp):
            return self.b * f * math.sqrt(x)

    class Cell(FluidParams):
        def top_derivative(self, x, f, fp):
            return 2.0 * super().top_derivative(x, f, fp)   # reads a __class__ cell
    for kind, n in ((Statements, 2), (Unresolved, 2), (Walrus, 2), (Lambda, 2),
                    (Starred, 2), (Written, 3), (FluidParams, 3), (Cell, 2)):
        assert shooting._inline(kind.top_derivative, n) is None
        assert shooting._walk_source(n, kind.top_derivative).count("accel(") == 13
    bind, top = shooting._inline(Written.top_derivative, 2)
    assert bind == ("    self_b = accel.__self__.b\n"
                    "    free_math = accel.__globals__.get('math', "
                    "accel.__builtins__.get('math'))\n")
    assert top("x + 0.5 * h", 2) == "self_b * y0_2 * free_math.sqrt((x + 0.5 * h))"
    assert top("xn", 13) == "self_b * y0_13 * free_math.sqrt(xn)"


scale = 0.81    # the name of a walk local, read below as this module's global


class Scaled:
    def top_derivative(self, x, f, fp):
        """f'' = scale f - |f'| sin x."""
        return scale * f - abs(fp) * math.sin(x)


def test_the_walk_binds_the_names_of_the_method_once(monkeypatch):
    # each name the expression reads is bound at the walk's start from the
    # method's globals, else its builtins, so a global named like a walk
    # local is written out with the call path's bits
    source = shooting._walk_source(2, Scaled.top_derivative)
    assert "accel(" not in source
    assert "    free_scale = accel.__globals__.get('scale', " in source
    walker, methods = shooting._walker, []
    monkeypatch.setattr(shooting, "_walker",
                        lambda method, n: methods.append(method) or walker(method, n))
    method = Scaled().top_derivative
    _, written = integrate(method, (1.0, -0.9), 0.0, 6.0, 1e-2)
    _, called = integrate(lambda *args: method(*args), (1.0, -0.9), 0.0, 6.0, 1e-2)
    assert methods == [Scaled.top_derivative, None]
    assert np.array_equal(written, called)
    # one walk is compiled per (method, n), and no other to look at
    monkeypatch.undo()
    shooting._walker.cache_clear()
    sources = []
    monkeypatch.setattr(shooting, "_walk_source",
                        lambda n, method=None, source=shooting._walk_source:
                        sources.append((n, method)) or source(n, method))
    shooting._walker(ConeParams.top_derivative, 3)
    assert sources == [(3, ConeParams.top_derivative)]


def test_a_method_of_any_name_is_written_out():
    # the walk keys on the function a bound method wraps, not on its name
    class Decaying:
        rate = -0.5

        def rhs(self, x, f, fp):
            return self.rate * fp
    assert "accel(" not in shooting._walk_source(2, Decaying.rhs)
    method = Decaying().rhs
    _, written = integrate(method, (1.0, -1.0), 0.0, 4.0, 1e-2)
    _, called = integrate(lambda *args: method(*args), (1.0, -1.0), 0.0, 4.0, 1e-2)
    assert np.array_equal(written, called)


@pytest.fixture
def fresh_walks():
    # walks compiled while the source is hidden must not outlive the test
    shooting._walker.cache_clear()
    yield
    shooting._walker.cache_clear()


def test_the_walk_needs_no_source(monkeypatch, fresh_walks):
    # without the .py files, as in a bytecode-only install, linecache has no
    # lines, and each model problem takes the call path with the same bits
    shots = [(problem, shoot(problem)) for problem in (FLUID, ThomasFermiProblem(),
                                                        ConeParams(0.5))]
    monkeypatch.setattr(linecache, "getlines", lambda *args: [])
    shooting._walker.cache_clear()
    for method, n in MODELS:
        assert shooting._inline(method, n) is None
    for problem, (slope, (_, states)) in shots:
        called_slope, (_, called_states) = shoot(problem)
        assert called_slope.hex() == slope.hex()
        assert np.array_equal(called_states, states)


def test_the_walk_reads_the_lines_the_method_was_compiled_from(monkeypatch):
    # the lines are read by linecache, not inspect, and lines that no longer
    # compile to the loaded method's names and arguments take the call path
    def hidden(*args):
        raise OSError("could not get source code")
    monkeypatch.setattr(inspect, "getsource", hidden)
    for method, n in MODELS:
        assert "accel(" not in shooting._walk_source(n, method)
    text = "class Edited:\n    def top_derivative(self, x, f, fp):\n        return %s\n"
    namespace = {}
    exec(compile(text % "self.b * f", "<edited>", "exec"), namespace)
    for body, written in (("self.b * f", True), ("self.c * f", False), ("f * fp", False)):
        lines = (text % body).splitlines(True)
        monkeypatch.setitem(linecache.cache, "<edited>", (1, None, lines, "<edited>"))
        assert (shooting._inline(namespace["Edited"].top_derivative, 2) is not None) == written


def test_lines_that_do_not_parse_take_the_call_path(monkeypatch, fresh_walks):
    # lines that no longer parse, as in a source file edited after import, are
    # refused, and the shoot calls the method with the same bits
    slope, (_, states) = shoot(FLUID)
    monkeypatch.setattr(linecache, "getlines", lambda *args: ["def (\n"] * 10 ** 4)
    shooting._walker.cache_clear()
    assert shooting._inline(FluidParams.top_derivative, 2) is None
    called_slope, (_, called_states) = shoot(FLUID)
    assert called_slope.hex() == slope.hex()
    assert np.array_equal(called_states, states)


def _doubled_b3(self, x, f, fp):
    """The film's f'' with b3 doubled."""
    return (self.b2 * f * fp * fp + 2.0 * self.b3 * f) / (1.0 + self.b1 * fp * fp)


def test_a_replaced_method_gets_a_fresh_walk(monkeypatch, fresh_walks):
    # the walk is kept per function, not per class: a shoot after the class's
    # top_derivative is replaced solves the new equation, bit for bit as a
    # shoot on cold walks does
    default, _ = shoot(FLUID)
    monkeypatch.setattr(FluidParams, "top_derivative", _doubled_b3)
    slope, (_, states) = shoot(FLUID)
    shooting._walker.cache_clear()
    cold, (_, cold_states) = shoot(FLUID)
    assert slope.hex() == cold.hex() != default.hex()
    assert np.array_equal(states, cold_states)


def test_a_subclass_that_keeps_the_method_shares_its_walk(monkeypatch):
    class Sub(ConeParams):
        pass
    slope, (_, states) = shoot(ConeParams(0.5))
    walk_source, sources = shooting._walk_source, []
    monkeypatch.setattr(shooting, "_walk_source", lambda n, method=None:
                        sources.append((n, method)) or walk_source(n, method))
    sub_slope, (_, sub_states) = shoot(Sub(0.5))
    assert sources == []
    assert sub_slope.hex() == slope.hex()
    assert np.array_equal(sub_states, states)


def test_the_extension_stages_match_the_scalar_reference(monkeypatch):
    # reading the states forms the three extra stages of every step's
    # continuous extension; the points where they call accel are the scalar
    # reference's bit for bit, on the trails of the five default shoots and
    # of integrate walks with 2 and 3 components
    dense, seen = shooting._dense, []

    def recorded(trail, grid, accel):
        points = []

        def counting(*point):
            points.append(point)
            return accel(*point)
        seen.append((trail, accel, points))
        return dense(trail, grid, counting)
    monkeypatch.setattr(shooting, "_dense", recorded)
    for prob in (FLUID, ThomasFermiProblem(), ConeParams(0.0), ConeParams(0.5),
                 ConeParams(1.0)):
        shoot(prob)[1][1]
    integrate(FLUID.top_derivative, (1.0, -0.7), 0.0, 5.0, 1e-2)
    integrate(ConeParams(0.5).top_derivative, (0.0, 0.88, -1.0), 0.0, 5.0, 1e-2)
    assert len(seen) == 7
    for trail, accel, points in seen:
        reference = [extension_points(accel, row) for row in trail]
        expected = [stages[j] for j in range(3) for stages in reference]
        assert len(points) == 3 * len(trail)
        assert [tuple(map(float.hex, p)) for p in points] == \
            [tuple(map(float.hex, p)) for p in expected]


def _walks(monkeypatch, prob, force=None, abort=()):
    """(slope, walks as (kind, trial slope, tol, outcome)) of shoot(prob),
    its states unread, kind "class" or "g".  The first loose class walk from trial
    slope force reports the wrong class, and the g walks whose indices
    (from 0) are in abort abort at once."""
    walk, walks = shooting._dop853, []

    def recorded(accel, state, x, x1, tol, h, trail=None, events=False):
        kind = "class" if events else "g" if trail is None else "trail"
        count = sum(k == "g" for k, *_ in walks)
        if kind == "g" and count in abort:
            reached, y, outcome = x, state, None
        else:
            reached, y, outcome = walk(accel, state, x, x1, tol, h, trail, events)
        s = state[1]  # the trial slope, f' on the film and on the cone
        if (kind == "class" and tol > STRICT_TOL and s == force
                and not any(w[1] == force and w[2] > STRICT_TOL for w in walks)):
            assert outcome  # an event, far from the root
            outcome = -outcome
        walks.append((kind, s, tol, outcome))
        return reached, y, outcome
    with monkeypatch.context() as patch:
        patch.setattr(shooting, "_dop853", recorded)
        slope, _ = shoot(prob)
    return slope, walks


def test_the_secant_takes_over_at_the_bracket_width(monkeypatch):
    # every class walk runs loose, the two checks of the start bracket at
    # its width 2, and the bisection down to a bracket of width 1e-6; then
    # the two ends' g walks and at most two secant iterates.  The trajectory
    # is walked only when the states are read.
    for prob in (FLUID, ConeParams(0.0), ConeParams(0.5), ConeParams(1.0)):
        _, walks = _walks(monkeypatch, prob)
        kinds = [kind for kind, *_ in walks]
        assert kinds == ["class"] * 23 + ["g"] * (len(walks) - 23)
        assert 3 <= len(walks) - 23 <= 4
        assert [tol for _, _, tol, _ in walks[:2]] == [1e-3, 1e-3]
        assert all(tol > STRICT_TOL for _, _, tol, _ in walks[2:23])
        assert all(tol == STRICT_TOL for _, _, tol, _ in walks[23:])
        ends = sorted(s for _, s, _, _ in walks[23:25])
        assert 0.0 < ends[1] - ends[0] <= 1e-6
        assert all(ends[0] < s < ends[1] for _, s, _, _ in walks[25:])


def test_a_wrong_loose_class_moves_the_bracket_past_its_end(oracle, monkeypatch):
    # the last loose class walk, or the film's first within 1e-2 of its
    # root (s = -0.6875, at bracket width 0.125), reports the wrong class, so
    # the root lies outside the last bracket: both ends' g share a sign, and
    # the bracket moves past the end that is off, doubling its width, until
    # it holds the root again; the secant then finds the same slope
    for prob in (FLUID, ConeParams(0.5)):
        base, _ = oracle(prob)
        _, walks = _walks(monkeypatch, prob)
        loose = [s for kind, s, tol, _ in walks if kind == "class" and tol > STRICT_TOL]
        targets = [loose[-1]]
        if prob is FLUID:
            targets.append(next(s for s in loose if abs(s - base) < 1e-2))
            assert targets[1] == -0.6875
        for target in targets:
            slope, walks = _walks(monkeypatch, prob, target)
            assert abs(slope - base) <= 1e-13 * (1.0 + abs(base))
            g = [s for kind, s, _, _ in walks if kind == "g"]
            lo, hi = sorted(g[:2])
            assert not lo <= base <= hi
            moves = _moves(g)
            assert moves and all((s < lo) == (base < lo) for s in moves)
    # -0.6875 is 0.0092 below the film's root: 13 moves from width 1e-6
    _, walks = _walks(monkeypatch, FLUID, -0.6875)
    assert len(_moves([s for kind, s, _, _ in walks if kind == "g"])) == 13


def test_a_top_end_too_low_when_loose_is_walked_again_strictly(oracle, monkeypatch):
    # the loose check of the film's top end s = 0 reports too low; before
    # that raises, the end is walked strictly, found too high, and the
    # search goes on to the same slope
    base, _ = oracle(FLUID)
    slope, walks = _walks(monkeypatch, FLUID, 0.0)
    assert slope == base
    assert walks[:2] == [("class", 0.0, 1e-3, -1), ("class", 0.0, STRICT_TOL, 1)]


def _moves(g):
    """The trial slopes of g walks that lie outside all earlier ones."""
    return [s for i, s in enumerate(g[2:], 2) if not min(g[:i]) <= s <= max(g[:i])]


def test_an_aborted_mismatch_walk_takes_the_strict_class(oracle, monkeypatch):
    # an end's g walk, or the first secant iterate's, aborts: its slope is
    # walked strictly with events for its class, the next iterate is a
    # midpoint, and the secant still finds the slope
    for prob in (FLUID, ConeParams(0.5)):
        base, _ = oracle(prob)
        for index in (0, 2):
            slope, walks = _walks(monkeypatch, prob, abort=(index,))
            assert abs(slope - base) <= 1e-13 * (1.0 + abs(base))
            g = [w for w in walks if w[0] == "g"]
            aborted = g[index][1]
            assert g[index][3] is None
            after = walks[walks.index(g[index]) + 1]
            assert after[:3] == ("class", aborted, STRICT_TOL)


def test_an_aborted_trajectory_is_a_blow_up():
    # f'' = 9 f: the trajectory follows the e^{3z} growth mode out of range
    # before the far field at 40, from a slope within 4.4e-16 of -3; shoot
    # returns that slope, and reading the states raises, as unpacking does
    slope, trajectory = shoot(FluidParams(0.0, 0.0, 9.0))
    assert abs(slope + 3.0) <= 4.5e-16
    with pytest.raises(BlowUpError, match="^trajectory left the state bound$") as info:
        slope, (xs, states) = shoot(FluidParams(0.0, 0.0, 9.0))
    assert info.value.abscissa == 17.67690127616235
    for _ in range(2):
        with pytest.raises(BlowUpError) as info:
            trajectory[1]
        assert info.value.abscissa == 17.67690127616235


def test_loose_walks_that_abort_are_repeated_strictly(oracle, monkeypatch):
    base, (xs, states) = oracle(FLUID)
    walk, calls = shooting._dop853, []

    def loose_aborts(accel, state, x, x1, tol, h, trail=None, events=False):
        calls.append((tol, state))
        if tol > STRICT_TOL:
            return x, state, None
        return walk(accel, state, x, x1, tol, h, trail, events)
    monkeypatch.setattr(shooting, "_dop853", loose_aborts)
    slope, (_, retried) = shoot(FLUID)
    assert slope == base and np.array_equal(retried, states)
    loose = [i for i, (tol, _) in enumerate(calls) if tol > STRICT_TOL]
    assert len(loose) == 23
    assert all(calls[i + 1] == (STRICT_TOL, calls[i][1]) for i in loose)


@pytest.mark.parametrize("step", [1e-3, 5e-4])
def test_each_walk_starts_at_the_step_of_its_kind(monkeypatch, step):
    # a loose class walk at tolerance tau starts at step (tau / step**4)**(1/4);
    # every strict walk (g and trajectory; these shoots repeat no class walk
    # strictly) starts at exactly step, and every screening walk at its
    # launch step 1e-6, whatever its tolerance.  The trajectory is walked
    # when the states are read.
    walk, starts, strict = shooting._dop853, [], step ** 4

    def recorded(accel, state, x, x1, tol, h, trail=None, events=False):
        kind = "class" if events else "g" if trail is None else "trail"
        starts.append((kind if tol == strict else "loose " + kind, tol, h))
        return walk(accel, state, x, x1, tol, h, trail, events)
    monkeypatch.setattr(shooting, "_dop853", recorded)
    for prob in (FLUID, ConeParams(0.0), ConeParams(0.5), ThomasFermiProblem()):
        starts.clear()
        _, trajectory = shoot(prob, ShootConfig(step=step))
        assert "trail" not in [kind for kind, _, _ in starts]
        trajectory[1]
        kinds = [kind for kind, _, _ in starts]
        assert set(kinds) == {"loose class", "g", "trail"}
        assert kinds.count("loose class") == 23
        for kind, tol, h in starts:
            if isinstance(prob, ThomasFermiProblem):
                assert h == 1e-6
            elif kind == "loose class":
                assert h == step * (tol / strict) ** 0.25
            else:
                assert h == step


# ---------------------------------------------------------------------------
# failure modes and validation


def test_steep_film_below_the_start_bracket_is_found():
    # f'' = 9 f has the slope -3, below the bracket (-2, 0): the walk at -2
    # is too high, so the bracket moves down to (-6, -2)
    slope, _ = shoot(FluidParams(0.0, 0.0, 9.0), ShootConfig(z_max=10.0))
    assert abs(slope + 3.0) <= 1e-14


def test_bracket_with_negative_far_field_top_is_rejected():
    # f'' = -1 bends every walk down through f = 0: every slope is too low
    class SinkingFilm(FluidParams):
        def top_derivative(self, x, f, fp):
            return -1.0
    with pytest.raises(OracleError, match="not positive at the top"):
        shoot(SinkingFilm(*FLUID_B), ShootConfig(z_max=10.0, step=5e-2))


def test_bracket_without_root_is_reported():
    # f'' = 1e7 turns f' positive while f > 0 for every slope above -4472:
    # the bracket widens to (-2046, -1022), past the width cap 1e3, with
    # every bottom end too high
    class SoaringFilm(FluidParams):
        def top_derivative(self, x, f, fp):
            return 1e7
    with pytest.raises(OracleError, match="no far-field root found above -2046$"):
        shoot(SoaringFilm(*FLUID_B), ShootConfig(z_max=8.0, step=2e-2))


def test_a_mismatch_root_past_the_class_root_is_found(monkeypatch):
    # f'' = 0 is f = 1 + s z: the class far field at 40 puts the root at
    # -r / (1 + 40 r), and g = f' + r f at 10 puts it at -r / (1 + 10 r),
    # r = sqrt(b3), 0.063 lower; the bracket moves down to g's root, and the
    # secant meets it
    class FlatFilm(FluidParams):
        def top_derivative(self, x, f, fp):
            return 0.0
    r = math.sqrt(FLUID.b3)
    slope, _ = shoot(FlatFilm(*FLUID_B))
    assert abs(slope + r / (1.0 + 10.0 * r)) <= 1e-15
    # no bracket up to 1e-2 wide holds it
    monkeypatch.setattr(shooting, "_MAX_WIDTH", 1e-2)
    with pytest.raises(OracleError, match="^the far-field mismatch keeps its sign from"):
        shoot(FlatFilm(*FLUID_B))


def test_walk_that_aborts_before_its_class_is_an_oracle_error():
    # past x = 1 every step's error estimate is NaN, so the step collapses
    # on the first walk that has no class by then
    class BrokenFilm(FluidParams):
        def top_derivative(self, x, f, fp):
            return math.nan if x > 1.0 else super().top_derivative(x, f, fp)
    with pytest.raises(OracleError, match="aborted at x = 1 before it had a class"):
        shoot(BrokenFilm(*FLUID_B))


def test_shoot_refuses_tiny_steps_before_any_walk():
    class CountingFilm(FluidParams):
        calls = 0

        def top_derivative(self, x, f, fp):
            CountingFilm.calls += 1
            return super().top_derivative(x, f, fp)
    film = CountingFilm(*FLUID_B)
    with pytest.raises(RangeOverflowError):
        shoot(film, ShootConfig(step=1e-30))
    with pytest.raises(ConfigurationError):
        shoot(film, ShootConfig(step=1e-90))
    assert CountingFilm.calls == 0


def test_shoot_config_validation():
    for kwargs in (dict(z_max=0.0), dict(step=-1e-3)):
        with pytest.raises(ConfigurationError):
            ShootConfig(**kwargs)
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        for key in ("z_max", "step"):
            with pytest.raises(ConfigurationError):
                ShootConfig(**{key: bad})
    cfg = ShootConfig()
    assert cfg.z_max == 40.0 and cfg.step == 1e-3
    assert (shooting._SECANT_WIDTH, shooting._SECANT_TOL) == (1e-6, 1e-13)


def test_shoot_rejects_unknown_problem_and_bad_launch():
    with pytest.raises(ConfigurationError, match="^unknown problem kind: 'fluid'$"):
        shoot("fluid")
    # cfg is a ShootConfig or None
    for bad in ({}, "x", FLUID):
        with pytest.raises(ConfigurationError, match="cfg must be a ShootConfig"):
            shoot(FLUID, cfg=bad)
