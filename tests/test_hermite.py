"""Normalized Hermite functions on the line and their log-mapped family."""

import math
import warnings

import numpy as np
import pytest

import halfline.hermite
from halfline import (ConfigurationError, FluidParams, HermiteBasis,
                      NodeComputationError, ProblemSpec, SeedKind, SeedProfile,
                      solve_problem)
from halfline.hermite import hermite_line_nodes, hermite_matrix, mapped_trapezoid_rule
from properties import difference_error, hermite_gram_error
from scalar_reference import hermite_fn_eval


def test_low_order_closed_forms():
    # normalized: H_n(t) e^{-t^2/2}/sqrt(2^n n!)
    for t in (-2.0, 0.0, 0.3, 1.7):
        g = math.exp(-t * t / 2.0)
        assert abs(hermite_fn_eval(0, t) - g) <= 1e-14
        assert abs(hermite_fn_eval(1, t) - math.sqrt(2.0) * t * g) <= 1e-13
        want2 = (4.0 * t * t - 2.0) / math.sqrt(8.0) * g
        assert abs(hermite_fn_eval(2, t) - want2) <= 1e-13


def test_decay_property():
    for n in range(21):
        for t in (-16.0, -13.0, -12.0, 12.0, 13.0, 16.0):
            assert abs(hermite_fn_eval(n, t)) <= 1e-6


def test_line_derivative_identity():
    # d/dt Hfn_n = sqrt(2n) Hfn_{n-1} - t Hfn_n
    for n in range(1, 9):
        for t in (-1.3, 0.2, 2.4):
            lhs = hermite_fn_eval(n, t, 1)
            rhs = (math.sqrt(2.0 * n) * hermite_fn_eval(n - 1, t)
                   - t * hermite_fn_eval(n, t))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_transformed_orthogonality():
    assert hermite_gram_error(HermiteBasis(8, 0.9)) <= 1e-6


def test_mapped_members_match_line_functions():
    # member n at x equals the line function at t = ln(x)/k
    basis = HermiteBasis(6, 1.2)
    xs = (0.3, 1.0, 2.6)
    got = basis.tables(xs, 0)[0]
    assert np.array_equal(got, hermite_matrix(basis, xs, 0))
    for n in range(7):
        for col, x in enumerate(xs):
            t = math.log(x) / 1.2
            assert abs(got[n, col] - hermite_fn_eval(n, t)) <= 1e-13


def test_member_derivatives_match_central_differences():
    basis = HermiteBasis(8, 0.9)
    x = np.array([0.2, 0.8, 2.5, 6.0, 10.0])
    # Orders 2 and 3 are checked as central differences of the
    # next-lower (independently verified) order: near x = 0.2 the
    # higher derivatives reach ~1e8, which puts direct stencils
    # outside 1e-5 at any step size.  All 9 members at once.
    assert difference_error(lambda t, m: basis.tables(t, m)[m], x, 1e-6) <= 1e-5


@pytest.mark.parametrize("k", [0.5, 0.9, 1.0])
def test_axis_limit_is_zero(k):
    basis = HermiteBasis(8, k)
    for m in range(4):
        near, axis = basis.tables([1e-6, 0.0], m)[m].T
        assert np.max(np.abs(near)) <= 1e-8
        assert np.all(axis == 0.0)


def test_axis_limit_at_largest_preset_map_constant():
    # The 1e-8 spot check above is a k <= 1 property: at k = 1.2 the
    # third derivative of member 8 is ~0.18 at x = 1e-6 (analytic value,
    # not roundoff).  The limit itself still holds for every k > 0 —
    # exp(-(ln x)^2 / (2 k^2)) beats any power of 1/x — so here we
    # assert the decay trend along x -> 0 and exact zero at x = 0.
    basis = HermiteBasis(8, 1.2)
    for m in range(4):
        vals = np.abs(basis.tables([1e-4, 1e-8, 1e-12, 1e-16, 0.0], m)[m])
        for seq in vals[:, :4]:             # one member along x -> 0
            assert all(a > b for a, b in zip(seq, seq[1:]) if a > 0)
            assert seq[-1] <= 1e-10
        assert np.all(vals[:, 4] == 0.0)


def test_far_field_gives_zeros_without_overflow():
    # the Gaussian factor is 0 beyond |ln x| = 38.6 k, while 2/(k x^3) would
    # overflow from x ~ 1e103 and divide by zero below x ~ 1e-109
    basis = HermiteBasis(16, 1.2)
    far = [1e-110, 1e103, 1e200, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(4):
            assert np.array_equal(basis.tables(far, m)[m], np.zeros((17, 4)))
            mixed = basis.tables([0.5, 1e200, 3.0], m)[m]
            assert np.array_equal(mixed[:, [0, 2]], basis.tables([0.5, 3.0], m)[m])


def test_far_field_at_large_k_is_finite_without_overflow():
    # at large k the Gaussian factor is still nonzero where k x^2 and k x^3
    # overflow: those map derivatives are 0 there, and an order not asked
    # for forms none
    far = [1e103, 1e155, 1e200, 1e300]
    near = [0.5, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (6.0, 8.0, 20.0):
            basis = HermiteBasis(16, k)
            whole = basis.tables(near + far, 3)
            assert np.isfinite(whole).all()
            # below 1e-100 at every order past the value
            assert np.abs(whole[1:, :, 2:]).max() <= 1e-100
            for m in range(4):
                tables = basis.tables(near + far, m)
                assert np.array_equal(tables, whole[: m + 1])
                # the points where nothing overflows keep their bits beside far ones
                assert np.array_equal(tables[:, :, :2], basis.tables(near, m))


def test_tiny_map_constant_gives_zeros_away_from_one():
    # at k = 1.5e-154, t = ln(x)/k squares past the largest double for x = 100
    # and x = 1e-300: the Gaussian factor, and so every entry, is 0
    assert np.array_equal(HermiteBasis(5, 1.5e-154).tables([100.0, 1e-300], 2),
                          np.zeros((3, 6, 2)))


def test_nodes_are_exponentials_of_line_nodes():
    basis = HermiteBasis(10, 0.9)
    t = np.asarray(hermite_line_nodes(10))
    x = basis.nodes()
    assert x.shape == t.shape
    assert np.max(np.abs(x - np.exp(0.9 * t))) <= 1e-12 * np.max(x)


def test_large_map_constants_raise_a_typed_error_without_warning():
    # exp(k t) passes the largest double at the outer line nodes; that is a
    # configuration error, with no overflow warning on the way
    spec = ProblemSpec(FluidParams(0.6, 0.1, 0.5), HermiteBasis(40, 90.0),
                       SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7))
    calls = (HermiteBasis(40, 300.0).nodes,
             lambda: mapped_trapezoid_rule(HermiteBasis(4, 100.0)),
             lambda: solve_problem(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ConfigurationError, match="nodes must be finite"):
                call()


@pytest.mark.parametrize("derivative,message", [
    (1.0, "Hermite nodes failed to polish below 1e-09"),
    (0.0, "Hermite node polish hit a zero derivative")])
def test_node_polish_failures_are_typed(monkeypatch, derivative, message):
    # every G_{N+1} reads 1 and its derivative the given constant: the value
    # never reaches 1e-9 in five steps, or the first step divides by zero
    def tables(nmax, t, max_order):
        return [np.ones((nmax + 1,) + t.shape),
                np.full((nmax + 1,) + t.shape, derivative)][:max_order + 1]
    monkeypatch.setattr(halfline.hermite, "_line_tables", tables)
    with pytest.raises(NodeComputationError, match=message):
        hermite_line_nodes(4)


def test_dimension_and_validation():
    basis = HermiteBasis(10, 0.9)
    assert basis.dimension == 11  # indices 0..N
    with pytest.raises(ConfigurationError):
        HermiteBasis(0, 0.9)
    with pytest.raises(ConfigurationError):
        HermiteBasis(5, 0.0)
    with pytest.raises(ConfigurationError):
        HermiteBasis(5, -1.0)
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        with pytest.raises(ConfigurationError):
            HermiteBasis(5, bad)
    for bad in (True, 2.5, "5", None):
        with pytest.raises(ConfigurationError):
            HermiteBasis(bad, 0.9)
        with pytest.raises(ConfigurationError):
            hermite_fn_eval(bad, 0.3)
    for bad in (True, 2.5, "5", None, -1):
        with pytest.raises(ConfigurationError):
            hermite_line_nodes(bad)
    assert list(hermite_line_nodes(0)) == [0.0]
    for bad in (1.5, True, -1, 11):
        with pytest.raises(ConfigurationError):
            basis.member(bad, 0.3)
    assert basis.member(np.int64(10), 0.3) == basis.member(10, 0.3)
