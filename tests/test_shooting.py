"""Reference shooting integrator: error-controlled Runge-Kutta behavior in
companion form, slope search, and robustness of the reported slopes."""

import math

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
    # and f''' = -f' from (0, 1, 0) is sin x, through the three-component body
    xs, states = integrate(lambda x, f, fp, fpp: -fp, (0.0, 1.0, 0.0), 0.0, 10.0, 1e-3)
    exact = np.column_stack((np.sin(xs), np.cos(xs), -np.sin(xs)))
    assert np.max(np.abs(states - exact)) <= 1e-11


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
    assert abs(states[-1, 0]) <= 1e-5


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


# the fixed-step RK4 slopes (step 1e-3) the error-controlled stepper replaced
FIXED_STEP_SLOPES = {
    "film": -0.678301619310756,
    "screening": -1.588071265017559,
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


# every bit of the default slopes: the oracle benchmark's five shoots, the
# rest of Table 3's cone rows, and the steep film at z_max = 10.  The
# bisection midpoints are dyadic, so these change only if some walk near the
# root changes its class; a change of stepper or tolerance that keeps every
# class keeps every bit.
SLOPE_BITS = {
    "film": "-0x1.5b4a598f80000p-1",
    "screening": "-0x1.968bd6a280000p+0",
    0.0: "0x1.e52c777a80000p-1",
    0.25: "0x1.d29399a480000p-1",
    1.0 / 3.0: "0x1.ccf5176b80000p-1",
    0.5: "0x1.c2755b7b80000p-1",
    0.75: "0x1.b44dac5280000p-1",
    1.0: "0x1.a7bc15d980000p-1",
    "steep film": "-0x1.7fffffffc0000p+1",
}


def test_default_slopes_keep_every_bit(oracle):
    slopes = {"film": oracle(FLUID)[0], "screening": oracle(ThomasFermiProblem())[0],
              "steep film": shoot(FluidParams(0.0, 0.0, 9.0), ShootConfig(z_max=10.0))[0]}
    slopes.update((lam, oracle(ConeParams(lam))[0]) for lam in CONE_LAMBDAS)
    assert {key: float(s).hex() for key, s in slopes.items()} == SLOPE_BITS


# the film's and cone lam = 0, 1/2 and 1 slopes at their default far fields,
# computed to 30 digits with mpmath; screening is left out, because its
# far-field truncation at 30 alone moves its slope by 2.4e-7
MPMATH_SLOPES = {
    "film": -0.678301619352223238,
    0.0: 0.947604879149179913,
    0.5: 0.879801615516390628,
    1.0: 0.827606852370022642,
}


def test_default_slopes_lie_within_the_bisection_width_of_independent_digits(oracle):
    # off by 4.5e-11, 5.3e-11, 3.2e-11 and 2.9e-11
    problems = {"film": FLUID, 0.0: ConeParams(0.0), 0.5: ConeParams(0.5),
                1.0: ConeParams(1.0)}
    for key, exact in MPMATH_SLOPES.items():
        slope, _ = oracle(problems[key])
        assert abs(slope - exact) <= 1e-10 * (1.0 + abs(exact))


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
    monkeypatch.setattr(shooting, "_TF_LAUNCH", 1e-7)
    lo, _ = shoot(ThomasFermiProblem())
    monkeypatch.setattr(shooting, "_TF_LAUNCH", 1e-5)
    hi, _ = shoot(ThomasFermiProblem())
    assert abs(lo - base) <= 1e-8
    assert abs(hi - base) <= 1e-8


# ---------------------------------------------------------------------------
# bisection walks at a tolerance matched to the bracket

STRICT_TOL = 1e-3 ** 4  # the default step**4


@pytest.mark.parametrize("step", [1e-3, 5e-4])
def test_loose_walks_leave_every_bit_of_the_oracle(oracle, monkeypatch, step):
    # with the loose cap at 0 every walk runs at step**4
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


def _walks(monkeypatch, prob, force=None, abort=False):
    """(slope, classification walks as (trial slope, tol, flipped)) of
    shoot(prob); the first loose walk from trial slope force reports the
    wrong class, and with abort the first final-midpoint walk aborts at once."""
    walk, walks, trajectories = shooting._dop853, [], []

    def recorded(accel, state, x, x1, tol, h, trail=None, events=False):
        if trail is not None:  # the reported trajectory
            trajectories.append(state)
            if abort and len(trajectories) == 1:
                return x, state, None, h
            return walk(accel, state, x, x1, tol, h, trail, events)
        reached, y, outcome, h = walk(accel, state, x, x1, tol, h, trail, events)
        wrong = (tol > STRICT_TOL and state[1] == force
                 and not any(flipped for *_, flipped in walks))
        walks.append((state[1], tol, wrong))
        if wrong:
            far = y[len(state) - 2]  # f (film) or f' (cone)
            return reached, y, -(outcome or math.copysign(1.0, far)), h
        return reached, y, outcome, h
    with monkeypatch.context() as patch:
        patch.setattr(shooting, "_dop853", recorded)
        slope, _ = shoot(prob)
    return slope, walks


def test_a_wrong_loose_class_reruns_the_bisection_strictly(oracle, monkeypatch):
    # the film's first loose walk within 1e-2 of its root (s = -0.6875, at
    # bracket width 0.125), or late, the cone's last loose walk, reports the
    # wrong class; the strict check of the final bracket catches it, and the
    # bisection goes on from the bracket that walk split: its later
    # midpoints are the all-strict run's, then at most one end is checked
    for prob in (FLUID, ConeParams(0.5)):
        base, _ = oracle(prob)
        _, loose = _walks(monkeypatch, prob)
        with monkeypatch.context() as patch:
            patch.setattr(shooting, "_LOOSE_CAP", 0.0)
            _, strict = _walks(monkeypatch, prob)
        strict = [s for s, *_ in strict]
        loose = [s for s, tol, _ in loose if tol > STRICT_TOL]
        if prob is FLUID:
            target = next(s for s in loose if abs(s - base) < 1e-2)
            assert target == -0.6875
        else:
            target = loose[-1]
        slope, walks = _walks(monkeypatch, prob, target)
        assert [s for s, *_, flipped in walks if flipped] == [target] and slope == base
        after = walks[walks.index((target, STRICT_TOL, False)) + 1:]
        later = strict[strict.index(target) + 1:]
        assert [s for s, *_ in after[:len(later)]] == later
        assert len(after) - len(later) <= 1
        assert all(tol == STRICT_TOL for _, tol, _ in after[len(later):])


def test_a_wrong_loose_class_walks_no_trajectory_on_the_bracket_it_leaves(
        oracle, monkeypatch):
    # the film forced wrong at -0.6875: each final midpoint's walk stops at
    # its first event, and only the midpoint of the bracket that holds the
    # root walks on to the far field (10,573 accel calls; 7,076 unforced)
    class CountingFilm(FluidParams):
        calls = 0

        def top_derivative(self, x, f, fp):
            CountingFilm.calls += 1
            return super().top_derivative(x, f, fp)
    slope, walks = _walks(monkeypatch, CountingFilm(*FLUID_B), -0.6875)
    assert slope == oracle(FLUID)[0]
    assert [s for s, *_, flipped in walks if flipped] == [-0.6875]
    assert CountingFilm.calls <= 20_000


def test_the_final_bracket_walks_at_most_one_end_strictly(monkeypatch):
    # the midpoint's strict walk, the head of the reported trajectory, gives
    # the midpoint's class, and only the end across from it is walked again
    for prob in (FLUID, ConeParams(0.0), ConeParams(0.5), ConeParams(1.0)):
        _, walks = _walks(monkeypatch, prob)
        last = max(i for i, (_, tol, _) in enumerate(walks) if tol > STRICT_TOL)
        earlier = [s for s, *_ in walks[:last + 1]]
        ends = walks[last + 1:]
        assert len(ends) <= 1
        assert all(tol == STRICT_TOL and s in earlier for s, tol, _ in ends)


def test_the_midpoint_takes_the_class_of_its_first_event(monkeypatch):
    # f'' = f has the root -1 (f = e^-z), and f'' = 1 past 15 makes f(40)
    # positive near it; the final midpoint of a bracket left below the root
    # by a wrong loose class is too low by its first event, so the end
    # across, the wrong one, is checked, and not the end its far field names
    class BentFilm(FluidParams):
        def top_derivative(self, x, f, fp):
            return 1.0 if x > 15.0 else f
    prob = BentFilm(*FLUID_B)
    base, _ = shoot(prob)
    _, walks = _walks(monkeypatch, prob)
    target = [s for s, tol, _ in walks if tol > STRICT_TOL and s < base][-1]
    slope, walks = _walks(monkeypatch, prob, target)
    assert slope == base
    assert [s for s, *_, flipped in walks if flipped] == [target]


def test_an_aborted_trajectory_checks_both_ends_first(oracle, monkeypatch):
    # f'' = 9 f: both ends keep their class, and the trajectory follows the
    # e^{3z} growth mode out of range before the far field at 40
    with pytest.raises(BlowUpError, match="^trajectory left the state bound$") as info:
        shoot(FluidParams(0.0, 0.0, 9.0))
    assert info.value.abscissa == 12.472608043853416
    # a wrong loose class at -0.6875 and an aborted first trajectory: the
    # check of both ends finds the wrong one, and the bisection resumes
    base, _ = oracle(FLUID)
    slope, walks = _walks(monkeypatch, FLUID, -0.6875, abort=True)
    assert slope == base
    assert [s for s, *_, flipped in walks if flipped] == [-0.6875]
    assert (-0.6875, STRICT_TOL, False) in walks


def test_loose_walks_that_abort_are_repeated_strictly(oracle, monkeypatch):
    base, (xs, states) = oracle(FLUID)
    walk, calls = shooting._dop853, []

    def loose_aborts(accel, state, x, x1, tol, h, trail=None, events=False):
        calls.append((tol, state))
        if tol > STRICT_TOL:
            return x, state, None, h
        return walk(accel, state, x, x1, tol, h, trail, events)
    monkeypatch.setattr(shooting, "_dop853", loose_aborts)
    slope, (_, retried) = shoot(FLUID)
    assert slope == base and np.array_equal(retried, states)
    loose = [i for i, (tol, _) in enumerate(calls) if tol > STRICT_TOL]
    assert len(loose) > 20
    assert all(calls[i + 1] == (STRICT_TOL, calls[i][1]) for i in loose)


def test_the_default_shoots_keep_their_cost(monkeypatch):
    # accel calls and _dop853 walks of the oracle benchmark's five shoots,
    # which read only the slope, and the accel calls that reading the states
    # adds: three per accepted step of the reported trajectory.  Every loose
    # class is checked strictly, so a loose-walk cap of 1e-3 in place of
    # _LOOSE_CAP = 1e-6 keeps every bit of every shoot; only these counts see
    # that mutant.
    walk, walks = shooting._dop853, []

    def counted(*args):
        walks.append(args)
        return walk(*args)
    monkeypatch.setattr(shooting, "_dop853", counted)
    for prob, calls, n, read in ((FLUID, 7_076, 39, 252),
                                 (ThomasFermiProblem(), 22_027, 39, 384),
                                 (ConeParams(0.0), 9_164, 39, 180),
                                 (ConeParams(0.5), 8_953, 39, 177),
                                 (ConeParams(1.0), 8_937, 39, 177)):
        accel, made = prob.top_derivative, []

        def counting(*args):
            made.append(args)
            return accel(*args)
        monkeypatch.setattr(prob, "top_derivative", counting)
        walks.clear()
        _, trajectory = shoot(prob)
        assert (len(made), len(walks)) == (calls, n)
        trajectory[1]
        assert len(made) - calls == read == 3 * len(walks[-1][6])


# ---------------------------------------------------------------------------
# failure modes and validation


def test_steep_film_below_the_start_bracket_is_found():
    # f'' = 9 f has the slope -3, below the bracket (-2, 0): the walk at -2
    # is too high, so the bracket moves down to (-6, -2)
    slope, _ = shoot(FluidParams(0.0, 0.0, 9.0), ShootConfig(z_max=10.0))
    assert abs(slope + 3.0) <= 1e-8


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
    assert shooting._BISECT_TOL == 1e-10


def test_shoot_rejects_unknown_problem_and_bad_launch():
    with pytest.raises(ConfigurationError):
        shoot("fluid")
    # cfg is a ShootConfig or None
    for bad in ({}, "x", FLUID):
        with pytest.raises(ConfigurationError, match="cfg must be a ShootConfig"):
            shoot(FLUID, cfg=bad)
