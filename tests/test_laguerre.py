"""Scaled generalized-Laguerre functions: recurrence, nodes, quadrature."""

import math
import warnings

import numpy as np
import pytest

import halfline.laguerre
from halfline import ConfigurationError, LaguerreBasis, NodeComputationError
from halfline.laguerre import mglf_matrix
from properties import direct_difference_error, laguerre_gram_error
from scalar_reference import laguerre_eval


def test_low_order_closed_forms():
    # L_0^a = 1, L_1^a(y) = 1 + a - y
    for alpha in (0.0, 1.0, 0.5):
        for y in (0.0, 0.7, 3.2):
            assert laguerre_eval(0, alpha, y) == 1.0
            assert abs(laguerre_eval(1, alpha, y) - (1.0 + alpha - y)) <= 1e-14


def test_recurrence_against_l2_closed_form():
    # n L_n^a = (2n-1+a-y) L_{n-1}^a - (n+a-1) L_{n-2}^a gives
    # L_2^1(y) = (y^2 - 6y + 6)/2
    for y in (0.3, 1.0, 4.5):
        want = (y * y - 6.0 * y + 6.0) / 2.0
        assert abs(laguerre_eval(2, 1.0, y) - want) <= 1e-13 * (1 + abs(want))


def test_sturm_liouville_residual():
    # x L'' + (alpha + 1 - x) L' + n L = 0
    rng = np.random.default_rng(5)
    xs = rng.uniform(1e-12, 40.0, 50)
    for alpha in (0.0, 1.0):
        for n in range(11):
            for x in xs:
                L = laguerre_eval(n, alpha, x)
                L1 = laguerre_eval(n, alpha, x, 1)
                L2 = laguerre_eval(n, alpha, x, 2)
                res = x * L2 + (alpha + 1.0 - x) * L1 + n * L
                assert abs(res) <= 1e-7 * (1.0 + abs(L))


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_nodes_low_order_closed_forms(L):
    # roots of L_1^1(y) = 2 - y and L_2^1(y) = (y^2-6y+6)/2, scaled by L
    b1 = LaguerreBasis(1, 1.0, L)
    got1 = b1.nodes()
    assert np.max(np.abs(got1 - np.array([2.0 * L]))) <= 1e-12
    b2 = LaguerreBasis(2, 1.0, L)
    got2 = np.sort(b2.nodes())
    want2 = L * np.array([3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)])
    assert np.max(np.abs(got2 - want2)) <= 1e-11


def test_node_polish_criterion():
    # every returned node y = x/L satisfies |e^{-y/2} L_N^1(y)| <= 1e-9
    for N, L in ((7, 0.675), (13, 1.2985), (20, 0.99)):
        basis = LaguerreBasis(N, 1.0, L)
        for x in basis.nodes():
            y = x / L
            damped = math.exp(-y / 2.0) * laguerre_eval(N, 1.0, y)
            assert abs(damped) <= 1e-9


@pytest.mark.parametrize("N, alpha", [(365, 1.0), (370, 0.04)])
def test_node_polish_overflow_is_typed_without_a_warning(N, alpha):
    # the recurrence overflows at the outermost eigenvalue estimate (y ~ 1420),
    # so its value is not finite; under the suite's error::RuntimeWarning
    # filter a leaked overflow warning would fail this test first
    with pytest.raises(NodeComputationError, match="met a non-finite value"):
        LaguerreBasis(N, alpha, 1.0).nodes()
    assert LaguerreBasis(360, 1.0, 1.0).nodes().size == 360


@pytest.mark.parametrize("L, order", [(1.5e-154, 2), (2.9e-103, 3)])
def test_tables_are_zero_where_the_damping_underflows(L, order):
    # at x = 1 the damping exp(-x/2L) is 0 while 1/L^order times a polynomial
    # value would overflow: only points of positive damping are tabulated, so
    # every entry is an exact 0, with no warning
    assert np.array_equal(LaguerreBasis(5, 1.0, L).tables([1.0], order),
                          np.zeros((order + 1, 5, 1)))


@pytest.mark.parametrize("derivative,message", [
    (1.0, "Laguerre nodes failed to polish below 1e-09"),
    (0.0, "Laguerre node polish hit a zero derivative")])
def test_node_polish_failures_are_typed(monkeypatch, derivative, message):
    # every L_N^alpha reads 1, every L_{N-1}^{alpha+1} reads the given
    # constant: the damped value stays above 1e-9 for all five steps, or the
    # first step divides by zero
    def table(nmax, alpha, y):
        return np.full((nmax + 1,) + np.shape(y), 1.0 if nmax == 3 else derivative)
    monkeypatch.setattr(halfline.laguerre, "laguerre_table", table)
    with pytest.raises(NodeComputationError, match=message):
        LaguerreBasis(3, 1.0, 1.0).nodes()


def test_node_interlacing():
    for N in range(2, 16):
        a = np.sort(LaguerreBasis(N, 1.0, 1.0).nodes())
        b = np.sort(LaguerreBasis(N + 1, 1.0, 1.0).nodes())
        # strict interlacing: b_0 < a_0 < b_1 < a_1 < ... < a_{N-1} < b_N
        for i in range(N):
            assert b[i] < a[i] < b[i + 1]


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_discrete_orthogonality(L):
    N = 12
    basis = LaguerreBasis(N, 1.0, L)
    nodes, weights = basis.quadrature()
    assert np.array_equal(nodes, basis.nodes()) and np.all(weights > 0)
    assert laguerre_gram_error(basis) <= 1e-8


def test_member_derivatives_match_central_differences():
    # all 9 members at once, each order directly from order 0
    basis = LaguerreBasis(9, 1.0, 0.8)
    x = np.array([0.1, 0.9, 4.0, 12.0, 20.0])
    assert direct_difference_error(lambda t, m: basis.tables(t, m)[m], x) <= 1e-5


def test_member_is_weighted_laguerre():
    # member j is e^{-x/2L} L_j^1(x/L)
    basis = LaguerreBasis(6, 1.0, 0.7)
    xs = (0.0, 0.4, 2.1)
    got = basis.tables(xs, 0)[0]
    assert got.shape == (6, 3)
    assert np.array_equal(got, mglf_matrix(basis, xs, 0))
    for j in range(6):
        for col, x in enumerate(xs):
            want = math.exp(-x / 1.4) * laguerre_eval(j, 1.0, x / 0.7)
            assert abs(got[j, col] - want) <= 1e-13 * (1 + abs(want))


@pytest.mark.parametrize("x", [1e29, 1e30, 1e100, 1e300])
def test_far_field_is_exact_zero(x):
    # exp(-y/2) is 0 from y ~ 1490, while L_11(y) ~ y^11 overflows from
    # y ~ 1e28: their product was inf * 0 = NaN
    basis = LaguerreBasis(12, 1.0, 0.99)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(4):
            assert np.array_equal(basis.tables([x], m)[m], np.zeros((12, 1)))
            mixed = basis.tables([0.5, x, 3.0], m)[m]
            assert np.array_equal(mixed[:, [0, 2]], basis.tables([0.5, 3.0], m)[m])


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        LaguerreBasis(0)
    with pytest.raises(ConfigurationError):
        LaguerreBasis(5, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        LaguerreBasis(5, 1.0, -2.0)
    with pytest.raises(ConfigurationError):
        LaguerreBasis(5, -1.0, 1.0)  # alpha must exceed -1
    LaguerreBasis(5, -0.5, 1.0)  # any alpha > -1 is a valid node parameter
    # alpha and L are finite reals; a bool, string or None is no real
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        for args in ((5, bad, 1.0), (5, 1.0, bad)):
            with pytest.raises(ConfigurationError):
                LaguerreBasis(*args)
        with pytest.raises(ConfigurationError):
            laguerre_eval(3, bad, 1.0)
    # N, the degree and the member index are integers, and a bool is none
    basis = LaguerreBasis(5)
    for bad in (True, 2.5, "5", None):
        with pytest.raises(ConfigurationError):
            LaguerreBasis(bad)
        with pytest.raises(ConfigurationError):
            laguerre_eval(bad, 1.0, 0.3)
    for bad in (1.5, True, -1, 5):
        with pytest.raises(ConfigurationError):
            basis.member(bad, 0.3)
    # the boundaries stay valid, and numpy scalars are scalars
    just_above = np.nextafter(-1.0, 0.0)
    assert LaguerreBasis(5, just_above).alpha == just_above
    assert math.isfinite(laguerre_eval(3, just_above, 0.7))
    basis = LaguerreBasis(np.int64(5), np.float32(0.5), np.int32(2))
    assert (basis.N, basis.alpha, basis.L) == (5, 0.5, 2.0)
    assert basis.member(np.int64(4), 0.3) == basis.member(4, 0.3)


def test_quadrature_only_for_alpha_one():
    with pytest.raises(ConfigurationError, match="only for alpha = 1"):
        LaguerreBasis(4, 0.0, 1.0).quadrature()


@pytest.mark.parametrize("L", [1e300, 1e-300])
def test_quadrature_at_extreme_scales_is_a_typed_error(L):
    # L^3 leaves the double range; under the suite's error::RuntimeWarning
    # filter a warning would fail this test before the weight check runs
    with pytest.raises(NodeComputationError, match="positive and finite"):
        LaguerreBasis(12, 1.0, L).quadrature()
