"""Benchmark problem definitions: residuals, parameters, seeds, pairing
rules, system assembly, and solved-profile invariants."""

import math
import warnings

import numpy as np
import pytest

from halfline.errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    UnsupportedOrderError,
)
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
    problem_label,
    solve_problem,
)
from halfline.hermite import HermiteBasis
from halfline.laguerre import LaguerreBasis
from halfline.newton import fd_jacobian
from halfline.sinc import SincBasis, SincMap, SincWeight

from conftest import CONE_LAMBDAS, FLUID_B


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


def test_cone_params():
    assert ConeParams(0.25).lam == 0.25
    assert ConeParams(0.0).lam == 0.0
    with pytest.raises(ConfigurationError):
        ConeParams(-0.5)


def test_thomas_fermi_problem_is_a_singleton_value():
    assert ThomasFermiProblem() == ThomasFermiProblem()
    assert hash(ThomasFermiProblem()) == hash(ThomasFermiProblem())


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
    s = 1e-6
    for p in seeds:
        for x in (0.2, 1.0, 4.0):
            for m in (1, 2, 3):
                lower = lambda t: p(t, m - 1)
                fd = (lower(x + s) - lower(x - s)) / (2 * s)
                assert abs(p(x, m) - fd) <= 1e-5


def test_seed_validation():
    with pytest.raises(ConfigurationError):
        SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.0)
    with pytest.raises(ConfigurationError):
        SeedProfile(SeedKind.CONE_RATIONAL, float("inf"))
    with pytest.raises(ConfigurationError):
        SeedProfile("quadratic", 1.0)
    p = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 1.0)
    with pytest.raises(DomainError):
        p(-0.5, 0)
    with pytest.raises(DomainError):
        p(np.array([1.0, math.inf]), 0)
    # a bad order is the same typed error every evaluator raises
    with pytest.raises(UnsupportedOrderError):
        p(1.0, 4)


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


def test_sinc_map_is_matched_to_the_problem():
    fluid, cone = fluid_spec_parts()
    with pytest.raises(ConfigurationError):
        ProblemSpec(cone, SincBasis(8, 1.0),  # LogSinh pairing
                    SeedProfile(SeedKind.CONE_RATIONAL, 1.8))
    with pytest.raises(ConfigurationError):
        ProblemSpec(fluid, SincBasis(8, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7))
    ProblemSpec(cone, SincBasis(8, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3),
                SeedProfile(SeedKind.CONE_RATIONAL, 1.8))


def test_max_order_property():
    fluid, cone = fluid_spec_parts()
    assert ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0)).max_order == 2
    assert ProblemSpec(ThomasFermiProblem(),
                       LaguerreBasis(8, 1.0, 1.0)).max_order == 2
    assert ProblemSpec(cone, LaguerreBasis(8, 1.0, 1.0)).max_order == 3


def test_problem_labels():
    fluid, cone = fluid_spec_parts()
    assert problem_label(ProblemSpec(fluid, LaguerreBasis(8, 1.0, 1.0))) \
        == "fluid film / laguerre"
    assert problem_label(
        ProblemSpec(ThomasFermiProblem(), HermiteBasis(8, 0.9),
                    SeedProfile(SeedKind.RATIONAL_QUADRATIC, 1.5))) \
        == "atomic screening / hermite"
    assert problem_label(
        ProblemSpec(cone, SincBasis(8, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3),
                    SeedProfile(SeedKind.CONE_RATIONAL, 1.8))) \
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
    nodes = np.asarray(spec.basis.nodes().nodes)
    if key[1] == "mglf":
        sys = build_system(spec)
        nodes = sys.collocation_nodes
    worst = max(abs(pointwise_residual(spec, e, x)) for x in nodes)
    assert worst <= 1e-8


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
        assert derived_slope(e, spec) == pytest.approx(e(0.0, 1), abs=1e-12)
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
