"""Benchmark problem definitions: residuals, parameters, seeds, pairing
rules, system assembly, and solved-profile invariants."""

import copy
import math
import random
import warnings

import numpy as np
import pytest

import halfline.problems
from halfline import shooting
from halfline.errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    RangeOverflowError,
    UnsupportedOrderError,
)
from halfline.cli import preset_spec
from halfline.core import Expansion
from halfline.problems import (
    ConeParams,
    FluidParams,
    ParameterConsistencyWarning,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    ThomasFermiProblem,
    build_system,
    derived_slope,
    pointwise_residual,
    solve_problem,
)
from halfline.hermite import HermiteBasis
from halfline.laguerre import LaguerreBasis
from halfline.newton import fd_jacobian, newton_solve
from halfline.reference import TABLE3
from halfline.sinc import SincBasis, SincMap

from conftest import (CONE_LAMBDAS, FLUID_B, PRESET_CASES, T3_SLOPE, _case_spec, case_key,
                      preset_id)
from properties import difference_error
from scalar_reference import concatenated_residual, seed_eval, summed_jacobian


def const(c):
    return lambda x, order=0: c if order == 0 else 0.0


def residual_at(problem, approx, x):
    """The problem's residual from approx's derivatives 0..order at x."""
    return problem.residual(x, [approx(x, m) for m in range(problem.order + 1)])


# ---------------------------------------------------------------------------
# parameters


def test_fluid_params_from_pair():
    p = FluidParams.from_b1_b3(0.6, 0.5)
    assert abs(p.b2 - 0.1) <= 1e-12
    assert p.b1 == 0.6 and p.b3 == 0.5


def test_fluid_params_direct_construction_warns_when_inconsistent():
    with pytest.warns(ParameterConsistencyWarning):
        FluidParams(0.6, 0.2, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FluidParams(*FLUID_B)  # consistent triple stays silent


def test_fluid_params_validation():
    for bad in ((-0.1, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, float("nan"))):
        with pytest.raises(ConfigurationError):
            FluidParams(*bad)
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        for slot in range(3):
            b = [0.0, 0.0, 0.0]
            b[slot] = bad
            with pytest.raises(ConfigurationError):
                FluidParams(*b)
    # b = 0 is the boundary, and stays valid
    assert (FluidParams(0.0, 0.0, 0.0).b1, FluidParams(0, 0, 0).b3) == (0.0, 0.0)


def test_cone_params():
    assert ConeParams(0.25).lam == 0.25
    assert ConeParams(0.0).lam == 0.0
    with pytest.raises(ConfigurationError):
        ConeParams(-0.5)
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        with pytest.raises(ConfigurationError):
            ConeParams(bad)
    assert ConeParams(0).lam == 0.0 and ConeParams(np.float64(0.5)).lam == 0.5


# ---------------------------------------------------------------------------
# residuals (hand-checked point values)


def test_fluid_residual_examples():
    params = FluidParams(*FLUID_B)
    assert residual_at(params, const(0.0), 1.3) == 0.0
    # f = e^{-z} with b1 = b2 = 0, b3 = 1: f'' - f = 0 identically
    f = lambda z, m: (-1.0) ** m * math.exp(-z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterConsistencyWarning)
        unit = FluidParams(0.0, 0.0, 1.0)
        half = FluidParams(0.0, 0.0, 0.5)
    for z in (0.3, 1.0, 2.7):
        assert abs(residual_at(unit, f, z)) <= 1e-15
    assert residual_at(half, const(1.0), 2.0) == -0.5


def test_thomas_fermi_residual_examples():
    assert residual_at(ThomasFermiProblem(), const(0.0), 2.0) == 0.0
    quad = lambda x, m: (x * x, 2.0 * x, 2.0)[m]
    assert abs(residual_at(ThomasFermiProblem(), quad, 1.0) - 1.0) <= 1e-15
    assert abs(residual_at(ThomasFermiProblem(), const(1.0), 4.0) - (-0.5)) <= 1e-15
    with pytest.raises(DomainError):
        residual_at(ThomasFermiProblem(), const(1.0), 0.0)
    with pytest.raises(DomainError):
        residual_at(ThomasFermiProblem(), const(1.0), -1.0)


def test_thomas_fermi_residual_signed_power():
    # negative iterates use sign(u)|u|^{3/2}: residual stays real
    r = residual_at(ThomasFermiProblem(), const(-1.0), 4.0)
    assert abs(r - 0.5) <= 1e-15


def test_cone_residual_examples():
    assert residual_at(ConeParams(1.0), const(0.0), 0.7) == 0.0
    lin = lambda e, m: (e, 1.0, 0.0, 0.0)[m]
    assert abs(residual_at(ConeParams(1.0), lin, 0.9) - (-1.0)) <= 1e-15
    quad = lambda e, m: (e * e, 2.0 * e, 2.0, 0.0)[m]
    assert abs(residual_at(ConeParams(0.0), quad, 1.0) - 11.0 / 3.0) <= 1e-15


@pytest.mark.parametrize("problem", [
    FluidParams(*FLUID_B), FluidParams.from_b1_b3(0.9, 0.8), ThomasFermiProblem(),
    ConeParams(0.0), ConeParams(0.5), ConeParams(1.0)], ids=repr)
def test_top_derivative_solves_the_residual(problem):
    # the shooting form and the collocation form are one equation; for these
    # equations max_q |dR/df_q * f_q| is at least the largest term of R
    rng = np.random.default_rng(20)
    for _ in range(200):
        x = rng.uniform(1e-3, 30.0)
        lower = [float(v) for v in rng.uniform(-2.0, 2.0, problem.order)]
        f = lower + [problem.top_derivative(x, *lower)]
        r = problem.residual(x, f)
        scale = max(abs(float(p * v)) for p, v in zip(problem.partials(x, f), f))
        assert abs(r) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# seed profiles


def test_rational_quadratic_seed_identities():
    for lam in (0.47, 0.678301, 1.588071):
        p = SeedProfile(SeedKind.RATIONAL_QUADRATIC, lam)
        assert p(0.0, 0) == 1.0
        assert p(0.0, 1) == -lam
        for x in (0.0, 0.4, 2.0, 9.0):
            q = 1.0 + lam * x + x * x
            assert abs(p(x, 0) - 1.0 / q) <= 1e-15


def test_rational_quadratic_seed_is_finite_where_x_squared_overflows():
    # runs under the suite's error::RuntimeWarning filter: no overflow warns
    p = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47)
    far = (1e154, 1e200, 1e300)
    for m in range(4):
        for x in far:
            # far out p^(m) = (-1)^m (m+1)! / x^(m+2) (1 + O(1/x))
            want = (-1.0) ** m * math.factorial(m + 1) * x ** -(m + 2)
            assert math.isfinite(p(x, m)) and p(x, m) == pytest.approx(want, rel=1e-12, abs=0)
        # points where nothing overflows keep the direct form's bits (a scalar
        # 0.5 takes it whole) next to far ones
        mixed = p(np.array((0.0, 0.5) + far), m)
        assert np.array_equal(mixed, [p(x, m) for x in (0.0, 0.5) + far])
    # where q^4 overflows but x^2 does not, the third derivative keeps its
    # sign: -24 / x^5 at x = 1e39
    assert p(1e39, 3) == pytest.approx(-24.0 / 1e39 ** 5, rel=1e-12, abs=0)


def test_rational_linear_seed_is_finite_where_its_power_overflows():
    # runs under the suite's error::RuntimeWarning filter: no overflow warns
    a = 0.77
    p = SeedProfile(SeedKind.RATIONAL_LINEAR, a)
    far = (1e103, 1e155, 1e300)
    for m in range(4):
        for x in far:
            # far out p^(m) = (-1)^m m! a / x^(m+1) (1 + O(1/x)); 0 past the
            # double range
            want = (-1.0) ** m * math.factorial(m) * a * x ** -(m + 1)
            assert math.isfinite(p(x, m)) and p(x, m) == pytest.approx(want, rel=1e-12, abs=0)
        # points where (a + x)^(m+1) stays finite keep the direct form's bits
        # next to far ones
        near = (0.0, 0.5, 1e38)
        mixed = p(np.array(near + far), m)
        assert np.array_equal(mixed, [p(x, m) for x in near + far])
        direct = (-1.0) ** m * math.factorial(m) * a / (a + np.array(near)) ** (m + 1)
        assert np.array_equal(mixed[:3], direct)


def test_rational_linear_seed_identities():
    a = 0.77
    p = SeedProfile(SeedKind.RATIONAL_LINEAR, a)
    assert p(0.0, 0) == 1.0
    assert p(0.0, 1) == -1.0 / a
    for x in (0.1, 1.0, 6.0):
        for m in range(4):
            want = (-1.0) ** m * math.factorial(m) * a / (a + x) ** (m + 1)
            assert abs(p(x, m) - want) <= 1e-15 * (1.0 + abs(want))


def test_cone_seed_identities():
    for beta in (1.8947, 1.8200, 1.65522):
        p = SeedProfile(SeedKind.CONE_RATIONAL, beta)
        assert p(0.0, 0) == 0.0
        assert p(0.0, 1) == 0.5 * beta  # bit-exact: q(0) = a/a = 1
        assert p(0.0, 2) == -1.0
        for x in (0.3, 1.7, 8.0):
            assert abs(p(x, 0) - beta * beta * x / (2.0 * (beta + x))) <= 1e-15
            assert abs(p(x, 1) - beta**3 / (2.0 * (beta + x) ** 2)) <= 1e-15
            assert abs(p(x, 2) + beta**3 / (beta + x) ** 3) <= 1e-15


def test_seed_derivatives_match_finite_differences():
    seeds = [SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7),
             SeedProfile(SeedKind.RATIONAL_LINEAR, 1.3),
             SeedProfile(SeedKind.CONE_RATIONAL, 1.8)]
    for p in seeds:
        assert difference_error(p, np.array([0.2, 1.0, 4.0]), 1e-6) <= 1e-5


def _preset_nodes(name, lam=None):
    return build_system(preset_spec(name, lam)).collocation_nodes


@pytest.mark.parametrize("seed", [SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.678301),
                                  SeedProfile(SeedKind.RATIONAL_LINEAR, 0.77),
                                  SeedProfile(SeedKind.CONE_RATIONAL, 1.8947)],
                         ids=lambda s: s.kind.value)
def test_seed_tables_are_each_order_alone_bit_for_bit(seed):
    # on the axis, next to it, at two presets' nodes and where a power of the
    # denominator overflows (the u = 1/x form), as one array and point by point
    nodes = np.concatenate([_preset_nodes("table1-hf"), _preset_nodes("table5", 0.5)])
    xs = np.concatenate([[0.0, 1e-300], nodes, [1e39, 1e300]])
    for points in [xs] + list(xs) + [float(x) for x in xs]:
        for M in range(4):
            tables = seed.tables(points, M)
            assert tables.shape == (M + 1,) + np.shape(points)
            for m in range(M + 1):
                want, got = np.asarray(seed_eval(seed, points, m)), seed(points, m)
                assert tables[m].tobytes() == want.tobytes() == np.asarray(got).tobytes()
                assert np.ndim(got) == want.ndim


def test_a_seed_call_warns_where_a_lower_order_overflows():
    # a call for order m forms orders 0..m: where the cone seed's a x / 2
    # overflows, its order 0 is inf, and so every call there warns, though
    # orders 1..3 alone are finite and come out unchanged
    seed, x = SeedProfile(SeedKind.CONE_RATIONAL, 3.0), 1.7e308
    for m in range(4):
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = seed(x, m)
        with pytest.warns(RuntimeWarning, match="overflow"):
            tables = seed.tables(x, m)
        if m:
            assert np.asarray(got).tobytes() == np.asarray(seed_eval(seed, x, m)).tobytes()
        assert tables[m].tobytes() == np.asarray(got).tobytes()
    assert math.isinf(tables[0])


def test_seed_validation():
    with pytest.raises(ConfigurationError):
        SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.0)
    with pytest.raises(ConfigurationError):
        SeedProfile(SeedKind.CONE_RATIONAL, float("inf"))
    with pytest.raises(ConfigurationError):
        SeedProfile("quadratic", 1.0)
    for bad in (math.nan, -math.inf, True, "1.0", None):
        with pytest.raises(ConfigurationError):
            SeedProfile(SeedKind.RATIONAL_LINEAR, bad)
    p = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 1.0)
    # a seed call and a seed tabulation refuse the same points and orders
    for evaluate in (p, p.tables):
        for bad in (-0.5, math.nan, math.inf, np.array([1.0, math.inf]),
                    np.array([0.0, -1e-300]), np.array([0.0, math.nan])):
            with pytest.raises(DomainError):
                evaluate(bad, 1)
        # a bad order is the same typed error every evaluator raises
        for order in (4, -1, True, 1.0, None):
            with pytest.raises(UnsupportedOrderError):
                evaluate(1.0, order)


# ---------------------------------------------------------------------------
# pairing rules


def fluid_spec_parts():
    return FluidParams(*FLUID_B), ConeParams(0.5)


def test_laguerre_is_never_seeded():
    fluid, _ = fluid_spec_parts()
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7))
    ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0))  # unseeded is fine


def test_seeded_families_require_a_seed():
    fluid, _ = fluid_spec_parts()
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, HermiteBasis(8, 1.0))
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, SincBasis(8, 1.0))


def test_cone_seed_kind_is_enforced_both_ways():
    fluid, cone = fluid_spec_parts()
    with pytest.raises(ConfigurationError):
        ProblemSpec(cone, HermiteBasis(8, 1.0),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7))
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, HermiteBasis(8, 1.0),
                    SeedProfile(SeedKind.CONE_RATIONAL, 1.8))
    with pytest.raises(ConfigurationError):
        ProblemSpec(cone, HermiteBasis(8, 1.0),
                    SeedProfile(SeedKind.RATIONAL_LINEAR, 0.7))


def test_sinc_map_is_matched_to_the_problem():
    fluid, cone = fluid_spec_parts()
    with pytest.raises(ConfigurationError):
        ProblemSpec(cone, SincBasis(8, 1.0),  # LogSinh pairing
                    SeedProfile(SeedKind.CONE_RATIONAL, 1.8))
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, SincBasis(8, 1.0, SincMap.LOG),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7))
    ProblemSpec(cone, SincBasis(8, 1.0, SincMap.LOG),
                SeedProfile(SeedKind.CONE_RATIONAL, 1.8))


def test_an_unknown_problem_basis_or_spec_is_refused():
    fluid, _ = fluid_spec_parts()
    with pytest.raises(ConfigurationError, match="^unknown problem kind: 'fluid'$"):
        ProblemSpec("fluid", LaguerreBasis(8, 1.0, 1.0))
    with pytest.raises(ConfigurationError, match="^unknown basis kind: 'mglf'$"):
        ProblemSpec(fluid, "mglf")
    for build in (build_system, solve_problem):
        with pytest.raises(ConfigurationError, match="^build_system needs a ProblemSpec$"):
            build("x")


def test_problem_order():
    fluid, cone = fluid_spec_parts()
    assert ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0)).problem.order == 2
    assert ProblemSpec(ThomasFermiProblem(),
                       LaguerreBasis(8, 1.0, 1.0)).problem.order == 2
    assert ProblemSpec(cone, LaguerreBasis(8, 1.0, 1.0)).problem.order == 3


def test_problem_labels():
    fluid, cone = fluid_spec_parts()
    assert ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0)).label \
        == "fluid film / laguerre"
    assert ProblemSpec(ThomasFermiProblem(), HermiteBasis(8, 0.9),
                       SeedProfile(SeedKind.RATIONAL_QUADRATIC, 1.5)).label \
        == "atomic screening / hermite"
    assert ProblemSpec(cone, SincBasis(8, 1.0, SincMap.LOG),
                       SeedProfile(SeedKind.CONE_RATIONAL, 1.8)).label \
        == "heated cone / sinc"


# ---------------------------------------------------------------------------
# system assembly


def test_system_dimensions():
    fluid, cone = fluid_spec_parts()
    sys1 = build_system(ProblemSpec(fluid, LaguerreBasis(20, 1.0, 0.99)))
    assert sys1.dimension == 20
    assert sys1.boundary_rows == 1
    assert sys1.collocation_nodes.size == 19
    sys2 = build_system(
        ProblemSpec(cone, HermiteBasis(20, 0.00005),
                    SeedProfile(SeedKind.CONE_RATIONAL, 1.8947)))
    assert sys2.dimension == 21
    assert sys2.boundary_rows == 0
    sys3 = build_system(
        ProblemSpec(fluid, SincBasis(17, 1.0),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47)))
    assert sys3.dimension == 35
    assert sys3.boundary_rows == 0


def test_cone_laguerre_system_reserves_two_boundary_rows():
    sys = build_system(ProblemSpec(ConeParams(0.25),
                                   LaguerreBasis(13, 1.0, 1.0)))
    assert sys.dimension == 13
    assert sys.boundary_rows == 2
    assert sys.collocation_nodes.size == 11


def test_square_residual_map():
    fluid, _ = fluid_spec_parts()
    sys = build_system(ProblemSpec(fluid, LaguerreBasis(10, 1.0, 0.99)))
    out = sys.residual_map(sys.initial_guess)
    assert np.asarray(out).shape == (10,)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("case", PRESET_CASES, ids=preset_id)
def test_jacobian_is_bit_equal_to_the_summed_form_along_the_solve(case):
    # every Jacobian Newton forms, at the iterate it just accepted, equals
    # the generator sum over q stacked on the axis rows, from fresh nodal
    # derivatives, bit for bit
    system = build_system(preset_spec(*case))
    checked = []

    def jacobian(c):
        J = system.jacobian(c)
        checked.append(np.array_equal(J, summed_jacobian(system, c)))
        return J

    report = newton_solve(system.residual_map, jacobian, system.initial_guess)
    assert report.converged and checked == [True] * report.iterations


def sweep_spec(family):
    """The benchmark sweep's pairing of one random film with a family, built
    as the sweep builds it: the Hermite seed takes the Laguerre |slope|."""
    rng = random.Random(35)
    fluid = FluidParams.from_b1_b3(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
    laguerre = ProblemSpec(fluid, LaguerreBasis(24, 1.0, 0.99))
    if family == "laguerre":
        return laguerre
    if family == "hermite":
        slope = derived_slope(solve_problem(laguerre)[0], laguerre)
        return ProblemSpec(fluid, HermiteBasis(16, 1.2),
                           SeedProfile(SeedKind.RATIONAL_QUADRATIC, abs(slope)))
    return ProblemSpec(fluid, SincBasis(17, 1.0), SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47))


@pytest.mark.parametrize("case", PRESET_CASES + [("sweep", family) for family
                                                 in ("laguerre", "hermite", "sinc")],
                         ids=lambda case: "-".join(case) if case[0] == "sweep"
                         else preset_id(case))
def test_seeded_residual_is_bit_equal_to_the_concatenated_form_along_the_solve(case):
    # every residual Newton takes, at every trial, from the stacked product
    # s + D @ c, equals the rows from one D_q @ c per order concatenated with
    # the axis block (empty when seeded), bit for bit
    system = build_system(sweep_spec(case[1]) if case[0] == "sweep" else preset_spec(*case))
    checked = []

    def residual(c):
        F = system.residual_map(c)
        want = concatenated_residual(system, c)
        checked.append(F.shape == want.shape and F.tobytes() == want.tobytes())
        return F

    report = newton_solve(residual, system.jacobian, system.initial_guess)
    assert report.converged and len(checked) > report.iterations
    assert checked == [True] * len(checked)


def test_unconverged_solve_raises_with_the_report():
    # map constant 4 stalls the Hermite film solve after one iteration
    spec = ProblemSpec(FluidParams(*FLUID_B), HermiteBasis(16, 4.0),
                       SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.678301))
    with pytest.raises(ConvergenceError) as info:
        solve_problem(spec)
    report = info.value.report
    assert not report.converged
    assert report.final_residual_norm > 1.0
    assert str(info.value).startswith("fluid film / hermite: ")


def test_rounding_floor_converges_on_the_equilibrated_residual():
    # seed 9 stops at max|F| = 4.2e-8, where no step decreases max|F|; the
    # residual relative to its Jacobian rows is 1.7e-15
    spec = ProblemSpec(FluidParams(*FLUID_B), SincBasis(17, 1.0),
                       SeedProfile(SeedKind.RATIONAL_QUADRATIC, 9.0))
    report = solve_problem(spec)[1]
    assert report.converged and report.final_residual_norm > 1e-10


@pytest.mark.parametrize("stage,N", [("build_system", 100000000000),
                                     ("newton_solve", 7)])
def test_out_of_memory_is_a_configuration_error(monkeypatch, stage, N):
    # the allocation is faked: a real one at N = 1e11 would need 745 GiB
    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB")
    monkeypatch.setattr(halfline.problems, stage, no_memory)
    spec = ProblemSpec(ThomasFermiProblem(), LaguerreBasis(N, 1.0, 0.675))
    with pytest.raises(ConfigurationError,
                       match="atomic screening / laguerre: basis dimension %d " % N):
        solve_problem(spec)


# ---------------------------------------------------------------------------
# solved-profile invariants (session-cached solves)


BASE_KEYS = [("fluid", "mglf"), ("fluid", "hf"), ("fluid", "sf"),
             ("tf", "mglf"), ("tf", "hf"), ("tf", "sf"),
             ("cone", "mglf", 0.25), ("cone", "hf", 0.25),
             ("cone", "sf", 0.25)]


@pytest.mark.parametrize("key", BASE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_converged_with_small_nodal_residual(key, solve_case):
    spec, e, report = solve_case(*key)
    assert report.converged
    nodes = spec.basis.nodes()
    if key[1] == "mglf":
        sys = build_system(spec)
        nodes = sys.collocation_nodes
    worst = max(abs(pointwise_residual(spec, e, x)) for x in nodes)
    assert worst <= 1e-8


# Newton's iteration count on each preset case in PRESET_CASES order, as
# tools/snapshot.py prints it: film and screening, then the cone rows of
# table3, table4 and table5
PRESET_ITERATIONS = [4, 4, 5, 4, 4, 4] + [5] + [6] * 5 + [2] * 6 + [3] * 6


def test_every_preset_case_takes_its_pinned_newton_iterations(solve_case):
    counts = [solve_case(*case_key(case))[2].iterations for case in PRESET_CASES]
    assert counts == PRESET_ITERATIONS


@pytest.mark.parametrize("key", BASE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_analytic_jacobian_matches_finite_differences(key, solve_case):
    spec, _, _ = solve_case(*key)
    system = build_system(spec)
    guess = system.initial_guess
    rng = np.random.default_rng(5)
    perturbed = guess + 1e-2 * (1.0 + np.abs(guess)) * rng.standard_normal(guess.size)
    for c in (guess, perturbed):
        J = system.jacobian(c)
        assert J.shape == (system.dimension, system.dimension)
        # step 1e-8: at the default 1e-7 the oracle's own truncation error
        # on the Hermite film operators (entries up to 4e5) is 1.5e-5
        err = np.max(np.abs(J - fd_jacobian(system.residual_map, c, fd_step=1e-8)))
        assert err <= 1e-5 * np.max(np.abs(J))


@pytest.mark.parametrize("key", BASE_KEYS,
                         ids=lambda k: "-".join(map(str, k)))
def test_a_c_changed_in_place_gets_fresh_nodal_derivatives(key):
    spec = _case_spec(key)
    system = build_system(spec)
    c = system.initial_guess.copy()
    system.residual_map(c)
    c *= 1.01                       # same object, new bytes
    assert np.array_equal(system.jacobian(c), build_system(spec).jacobian(c))
    assert np.array_equal(system.residual_map(c), build_system(spec).residual_map(c))


def test_the_nodal_derivatives_are_fresh_on_every_call():
    # the system keeps nothing between calls: each call returns a new array,
    # and writing into one leaves the next call and the residual unchanged
    for key in BASE_KEYS:
        system = build_system(_case_spec(key))
        c = system.initial_guess
        r = system.residual_map(c)
        f = system.nodal_derivatives(c)
        again = system.nodal_derivatives(c.copy())
        assert again is not f and not np.shares_memory(again, f)
        assert np.array_equal(again, f)
        f[...] = math.nan
        assert np.array_equal(system.nodal_derivatives(c), again)
        assert np.array_equal(system.residual_map(c), r)


@pytest.mark.parametrize("key", BASE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_boundary_exactness(key, solve_case):
    spec, e, report = solve_case(*key)
    if key[0] == "cone":
        assert abs(e(0.0, 0)) <= 1e-10
        assert abs(e(0.0, 2) + 1.0) <= 1e-10
    else:
        assert abs(e(0.0, 0) - 1.0) <= 1e-10


@pytest.mark.parametrize("method", ["mglf", "hf", "sf"])
def test_fluid_far_field_decay(method, solve_case):
    spec, e, report = solve_case("fluid", method)
    assert abs(e(30.0, 0)) <= 5e-2


def test_derived_slope_is_axis_derivative_for_seeded_analytic_families(solve_case):
    for key in (("fluid", "mglf"), ("tf", "mglf")):
        spec, e, report = solve_case(*key)
        assert derived_slope(e, spec) == e(0.0, 1)
    spec, e, report = solve_case("fluid", "hf")
    # seed-forced: basis members vanish at the axis
    assert derived_slope(e, spec) == -0.678301
    spec, e, report = solve_case("cone", "hf", 0.25)
    assert derived_slope(e, spec) == 0.5 * spec.seed.parameter


def test_fluid_point_values_from_published_table(solve_case):
    spec, e, _ = solve_case("fluid", "mglf")
    assert abs(e(1.0, 0) - 0.50144) <= 5e-4
    spec, e, _ = solve_case("fluid", "hf")
    assert abs(e(1.0, 0) - 0.50139) <= 1e-3


def test_screening_point_value_from_published_table(solve_case):
    spec, e, _ = solve_case("tf", "hf")
    assert abs(e(1.0, 0) - 0.423811) <= 5e-3


# ---------------------------------------------------------------------------
# discretizations and point tables memoized by value


@pytest.fixture
def discretizations(monkeypatch):
    """An empty memo for the test; the process's own is restored after."""
    cache = halfline.core._Memo()
    monkeypatch.setattr(halfline.core, "_MEMO", cache)
    return cache


def counted(monkeypatch, name):
    """Calls of the node function name (family_nodes) in its own module, which
    the basis's nodes() resolves."""
    calls = []
    module = getattr(halfline, name.split("_")[0])
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda basis: calls.append(basis) or real(basis))
    return calls


@pytest.mark.parametrize("make,nodes", [
    (lambda: LaguerreBasis(13, 0.655, 1.115), "laguerre_nodes"),
    (lambda: HermiteBasis(20, 0.8), "hermite_nodes"),
    (lambda: SincBasis(9, 0.6, SincMap.LOG), "sinc_nodes")])
def test_equal_valued_bases_share_one_discretization(make, nodes, monkeypatch,
                                                     discretizations):
    calls = counted(monkeypatch, nodes)
    seed = None if nodes == "laguerre_nodes" else SeedProfile(SeedKind.CONE_RATIONAL, 1.9)
    first = build_system(ProblemSpec(ConeParams(0.25), make(), seed))
    # another basis object with the same values, another lambda: one build
    second = build_system(ProblemSpec(ConeParams(0.75), make(), seed))
    assert len(calls) == 1 and len(discretizations) == 1
    assert second is not first and second.operators is first.operators     # one shared stack
    # the problem class is part of the key
    if nodes != "sinc_nodes":             # the cone pairs only with the Log map
        seed = None if seed is None else SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.5)
        build_system(ProblemSpec(ThomasFermiProblem(), make(), seed))
        assert len(calls) == 2


def counted_tables(monkeypatch, cls):
    """The point sets cls.tables is called at."""
    calls = []
    real = cls.tables
    monkeypatch.setattr(cls, "tables", lambda basis, xs, M:
                        calls.append(np.array(xs)) or real(basis, xs, M))
    return calls


def point_entries(memo):
    """Keys of the memo's point tables: their last item is an order, not a class."""
    return [k for k in memo if not isinstance(k[-1], type)]


MEMO_FAMILIES = [(lambda: LaguerreBasis(13, 0.655, 1.115), "L"),
                 (lambda: HermiteBasis(20, 0.8), "k"),
                 (lambda: SincBasis(9, 0.6, SincMap.LOG), "h")]


@pytest.mark.parametrize("make,attribute", MEMO_FAMILIES, ids=["laguerre", "hermite", "sinc"])
def test_equal_valued_bases_share_one_point_entry(make, attribute, monkeypatch,
                                                  discretizations):
    basis = make()
    calls = counted_tables(monkeypatch, type(basis))
    c = np.random.default_rng(5).standard_normal(basis.dimension)
    xs = np.array([0.5, 1.0, 2.0])
    first = Expansion(basis, c)(xs, 1)
    # another basis object with the same values, other coefficients: one tabulation
    second = Expansion(make(), 2.0 * c)(xs, 1)
    assert len(calls) == 1 and len(point_entries(discretizations)) == 1
    assert np.array_equal(second, 2.0 * first)
    # the order and the points' bytes are part of the key
    Expansion(basis, c)(xs, 2)
    Expansion(basis, c)(xs[::-1], 1)
    assert len(calls) == 3
    # a changed attribute gets its own entry, equal to an equal-valued fresh basis's
    setattr(basis, attribute, 1.25 * getattr(basis, attribute))
    changed = Expansion(basis, c)(xs, 1)
    assert len(calls) == 4 and len(point_entries(discretizations)) == 4
    fresh = make()
    setattr(fresh, attribute, getattr(basis, attribute))
    assert np.array_equal(Expansion(fresh, c)(xs, 1), changed)
    assert len(calls) == 4 and not np.array_equal(changed, first)


def other_pairing(spec):
    """An equal-valued basis under another problem instance and seed parameter."""
    problem = {FluidParams: FluidParams.from_b1_b3(0.3, 0.9),
               ThomasFermiProblem: ThomasFermiProblem(),
               ConeParams: ConeParams(0.75)}[type(spec.problem)]
    seed = spec.seed and SeedProfile(spec.seed.kind, 2.0 * spec.seed.parameter)
    return ProblemSpec(problem, copy.copy(spec.basis), seed)


@pytest.mark.parametrize("key", BASE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_a_warm_solve_is_bit_identical_to_a_cold_one(key, discretizations):
    spec = _case_spec(key)
    cold, cold_report = solve_problem(spec)
    cold_slope = derived_slope(cold, spec)
    discretizations.clear()
    build_system(other_pairing(spec))      # the entry comes from another pairing
    warm, warm_report = solve_problem(spec)
    assert len(discretizations) == 1
    assert np.array_equal(warm.coefficients, cold.coefficients)
    assert warm_report.history == cold_report.history
    assert derived_slope(warm, spec) == cold_slope


@pytest.mark.parametrize("make", [m for m, _ in MEMO_FAMILIES],
                         ids=["laguerre", "hermite", "sinc"])
def test_warm_evaluations_are_bit_identical_to_cold_ones(make, discretizations):
    basis = make()
    seed = None if isinstance(basis, LaguerreBasis) else \
        SeedProfile(SeedKind.CONE_RATIONAL, 1.9)
    c = np.random.default_rng(9).standard_normal(basis.dimension)
    grid = np.array([[0.0, 1e-3, 0.3], [1.7, 9.0, 80.0]])

    def evaluations(e):
        return ([lambda x=x, q=q: e(x, q) for x in (0.0, 0.7, 3.1) for q in range(4)]
                + [lambda: e(grid, 2), lambda: e.derivatives(grid, 3),
                   lambda: e.derivatives(0.7, 3)[1:]])

    def same(a, b):
        if isinstance(a, list):
            return len(a) == len(b) and all(map(same, a, b))
        return type(a) is type(b) and np.array_equal(a, b)
    e = Expansion(basis, c, seed)
    cold = []
    for evaluate in evaluations(e):
        discretizations.clear()
        discretizations.used = 0
        cold.append(evaluate())
    # warm: every entry comes from another, equal-valued basis object
    for evaluate in evaluations(Expansion(copy.copy(basis), np.zeros(basis.dimension), seed)):
        evaluate()
    held = list(discretizations)       # 3 x 4 scalar keys, 2 at the grid
    assert len(held) == 14
    for _ in range(2):
        assert same([evaluate() for evaluate in evaluations(e)], cold)
        assert list(discretizations) == held       # all hits, in the same order


def test_a_changed_basis_attribute_gets_its_own_discretization(discretizations):
    basis = LaguerreBasis(20, 1.0, 0.99)
    spec = ProblemSpec(FluidParams(*FLUID_B), basis)
    stale = build_system(spec)
    basis.L = 0.5
    system = build_system(spec)
    want = build_system(ProblemSpec(FluidParams(*FLUID_B), LaguerreBasis(20, 1.0, 0.5)))
    assert not np.array_equal(system.collocation_nodes, stale.collocation_nodes)
    assert np.array_equal(system.collocation_nodes, want.collocation_nodes)
    assert all(np.array_equal(a, b) for a, b in zip(system.operators, want.operators))
    assert np.array_equal(system.initial_guess, want.initial_guess)
    assert len(discretizations) == 2


@pytest.mark.parametrize("shape", [(3,), (13, 1)], ids=["short", "column"])
@pytest.mark.parametrize("call", ["residual_map", "jacobian"])
def test_a_malformed_coefficient_vector_is_refused(call, shape):
    system = build_system(preset_spec("table3", 0.5))
    assert system.dimension == 13
    with pytest.raises(ConfigurationError, match="expected 13 coefficients") as info:
        getattr(system, call)(np.zeros(shape))
    assert str(info.value).endswith("got shape %r" % (shape,))


def test_shared_arrays_are_read_only():
    spec = ProblemSpec(ConeParams(0.5), LaguerreBasis(13, 1.0, 1.1))
    system = build_system(spec)
    guess = system.initial_guess.copy()
    for shared in (system.operators[0], system.boundary, system.initial_guess,
                   system.collocation_nodes):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    assert np.array_equal(build_system(spec).initial_guess, guess)


def test_kept_point_tables_are_read_only(discretizations):
    basis = HermiteBasis(6, 0.9)
    e = Expansion(basis, np.ones(basis.dimension))
    xs = np.array([0.5, 1.5, 4.0])
    got = e(xs, 2)
    (tables,), size = discretizations[point_entries(discretizations)[0]]
    assert tables.shape == (3, basis.dimension, 3) and size == tables.nbytes
    with pytest.raises(ValueError):
        tables[2, 0, 0] = 1.0
    # what a caller gets is its own array
    want = got.copy()
    got[0] = 1.0
    assert np.array_equal(e(xs, 2), want)


def test_a_failed_discretization_raises_on_every_call(monkeypatch, discretizations):
    failing = [(ProblemSpec(ConeParams(0.5), LaguerreBasis(2, 1.0, 1.0)),
                ConfigurationError, "no interior collocation nodes"),
               (ProblemSpec(FluidParams(*FLUID_B), SincBasis(800, 1.0),
                            SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47)),
                RangeOverflowError, "nodes leave double range")]
    for spec, error, message in failing:
        for _ in range(2):
            with pytest.raises(error, match=message):
                build_system(spec)
    real = halfline.hermite.hermite_nodes

    def no_memory(basis):
        raise MemoryError("faked")
    monkeypatch.setattr(halfline.hermite, "hermite_nodes", no_memory)
    spec = ProblemSpec(FluidParams(*FLUID_B), HermiteBasis(16, 1.2),
                       SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.678301))
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="does not fit in memory"):
            solve_problem(spec)
    assert not discretizations
    monkeypatch.setattr(halfline.hermite, "hermite_nodes", real)
    assert solve_problem(spec)[1].converged and len(discretizations) == 1


def test_bad_points_and_orders_raise_on_a_warm_key(discretizations):
    e = Expansion(LaguerreBasis(6, 1.0, 0.8), np.ones(6))
    for x in (0.5, np.array([0.5, 1.0])):
        e(x, 1)
    held = list(discretizations)
    # each compares and hashes equal to the warm order 1
    for order in (True, 1.0, np.float64(1.0)):
        with pytest.raises(UnsupportedOrderError):
            e(0.5, order)
        with pytest.raises(UnsupportedOrderError):
            e.derivatives(np.array([0.5, 1.0]), order)
    for bad in (-0.5, -1e-300, math.nan, math.inf):
        with pytest.raises(DomainError):
            e(np.array([0.5, bad]), 1)
        with pytest.raises(DomainError):
            e(bad, 1)
    assert list(discretizations) == held
    # a tabulation that raises is never kept, so it raises on every call
    coarse = Expansion(SincBasis(3, 1e200), np.ones(7))
    for _ in range(2):
        with pytest.raises(RangeOverflowError):
            coarse(1.0, 2)
    assert list(discretizations) == held
    assert math.isfinite(coarse(1.0, 1)) and len(discretizations) == len(held) + 1


def test_the_byte_budget_holds(monkeypatch, discretizations):
    budget = 100000
    monkeypatch.setattr(halfline.core, "_MEMO_BYTES", budget)
    fluid = FluidParams(*FLUID_B)

    def kept():
        held = sum(n for _, n in discretizations.values())
        assert discretizations.used == held
        return [k[1] for k in discretizations], held
    for N in range(8, 30):
        build_system(ProblemSpec(fluid, LaguerreBasis(N, 1.0, 0.99)))
        assert kept()[1] <= budget
    held, _ = kept()
    assert 1 < len(held) < 22 and held[-1] == (("L", 0.99), ("N", 29), ("alpha", 1.0))
    # a hit makes its entry the most recently used: the next eviction spares it
    build_system(ProblemSpec(fluid, LaguerreBasis(held[0][1][1], 1.0, 0.99)))
    build_system(ProblemSpec(fluid, LaguerreBasis(30, 1.0, 0.99)))
    assert held[0] in kept()[0] and held[1] not in kept()[0]
    assert kept()[1] <= budget
    # an entry larger than the whole budget is built but not kept
    before = kept()
    big = build_system(ProblemSpec(fluid, SincBasis(60, 0.3),
                                   SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47)))
    assert big.dimension == 121 and kept() == before


def test_point_entries_share_the_byte_budget(monkeypatch, discretizations):
    budget = 100000
    monkeypatch.setattr(halfline.core, "_MEMO_BYTES", budget)
    e, _ = solve_problem(ProblemSpec(FluidParams(*FLUID_B), LaguerreBasis(20, 1.0, 0.99)))
    (system,) = list(discretizations)

    def kept():
        held = sum(n for _, n in discretizations.values())
        assert discretizations.used == held
        return list(discretizations), held
    # a point entry counts toward used: two orders x 20 members x 50 points
    xs = np.linspace(0.1, 10.0, 50)
    e(xs, 1)
    before = kept()
    assert len(before[0]) == 2 and before[1] == discretizations[system][1] + 16000
    # point entries and discretizations leave least recently used first
    for shift in range(1, 7):
        e(xs + shift, 1)
        assert kept()[1] <= budget
    assert system not in discretizations and len(discretizations) == 6
    e(xs + 1, 1)                             # a hit: the next eviction spares it
    e(xs + 7, 1)
    assert point_entries(discretizations)[0][2] == (xs + 3).tobytes()
    assert (xs + 1).tobytes() in [k[2] for k in discretizations]
    # an evaluation larger than the whole budget is returned but not kept
    before = kept()
    big = e(np.linspace(0.0, 50.0, 3000), 1)
    assert big.shape == (3000,) and kept() == before


# ---------------------------------------------------------------------------
# cold Laguerre cone solves: a closed-form start, never the shooting oracle


@pytest.fixture
def no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a collocation solve called the shooting oracle")
    monkeypatch.setattr(shooting, "shoot", refuse)


@pytest.mark.parametrize("lam", CONE_LAMBDAS)
def test_cold_cone_laguerre_solve_lands_on_the_tabulated_root(lam, no_oracle):
    # the cone system has spurious roots a few times 1e-3 from the physical
    # one, so the 1e-3 bound tells them apart
    spec = ProblemSpec(ConeParams(lam),
                       LaguerreBasis(13, TABLE3.value(lam, "alpha"),
                                     TABLE3.value(lam, "L")))
    e, report = solve_problem(spec)
    assert report.converged
    assert abs(derived_slope(e, spec) - T3_SLOPE[lam]) <= 1e-3


def test_cold_cone_laguerre_solve_converges_beyond_the_table(no_oracle):
    slopes = []
    for lam in (1.2, 1.5, 2.0):
        spec = ProblemSpec(ConeParams(lam), LaguerreBasis(13, 1.0, 1.1))
        e, report = solve_problem(spec)
        assert report.converged
        slopes.append(derived_slope(e, spec))
    # as on the tabulated rows, the wall slope falls as the exponent grows
    assert slopes[0] > slopes[1] > slopes[2] > 0
