"""Weighted composite translate family: interpolation, derivative
matrices, chain-rule evaluation, weights, maps, and validation."""

import math

import numpy as np
import pytest

from halfline.errors import (
    ConfigurationError,
    DomainError,
    RangeOverflowError,
    UnsupportedOrderError,
)
from halfline.sinc import (
    DeltaMatrix,
    SincBasis,
    SincMap,
    SincWeight,
    composite_matrix,
    delta_matrix,
    sinc,
    sinc_derivatives,
    sinc_nodes,
    _log_chain,
    _rational_x_derivs,
)

PAIRS = (
    (SincMap.LOG_SINH, SincWeight.RATIONAL_X),
    (SincMap.LOG, SincWeight.RATIONAL_X3),
)


def weight_value(weight_kind, x):
    if weight_kind is SincWeight.RATIONAL_X:
        return _rational_x_derivs(np.array([x]))[0, 0]
    return _log_chain(np.array([x]), 0)[0][0][0]        # A[0][0] = W


# ---------------------------------------------------------------------------
# cardinal function


def test_sinc_point_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(1.0)) <= 1e-16
    assert abs(sinc(0.5) - 2.0 / math.pi) <= 1e-15


def test_sinc_derivatives_across_the_series_switch():
    # |y| <= 0.05 takes the tabulated series, the rest the closed forms
    y = np.array([[-7.3, -0.0501, -0.05, -1e-9], [0.0, 0.02, 0.0500001, 2.5]])
    vals = sinc_derivatives(y, 3)
    assert all(v.shape == y.shape for v in vals)
    want = np.vectorize(sinc)(y)
    assert np.max(np.abs(vals[0] - want)) <= 1e-15
    s = 1e-5
    for m in (1, 2, 3):
        lower = lambda t: sinc_derivatives(t, m - 1)[m - 1]
        fd = (lower(y + s) - lower(y - s)) / (2 * s)
        assert np.max(np.abs(vals[m] - fd)) <= 1e-8


# ---------------------------------------------------------------------------
# nodes


def test_logsinh_node_closed_forms():
    grid = sinc_nodes(SincBasis(3, 1.0))
    xs = np.asarray(grid.nodes)
    assert abs(xs[3] - math.log(1.0 + math.sqrt(2.0))) <= 1e-15
    assert abs(xs[4] - math.log(math.e + math.sqrt(1.0 + math.e**2))) <= 1e-14
    # general formula arcsinh(e^{j h})
    for j in range(-3, 4):
        assert abs(xs[j + 3] - math.asinh(math.exp(j))) <= 1e-13
    assert np.all(np.diff(xs) > 0) and np.all(xs > 0)


def test_log_nodes_are_exponentials():
    basis = SincBasis(4, 0.6, SincMap.LOG, SincWeight.RATIONAL_X3)
    xs = np.asarray(basis.nodes().nodes)
    want = np.exp(0.6 * np.arange(-4, 5))
    assert np.allclose(xs, want, rtol=1e-15, atol=0.0)
    assert xs[4] == 1.0


def test_extreme_mesh_nodes_stay_finite():
    # |j h| = 150: e^{150} is representable; everything stays finite.
    basis = SincBasis(30, 5.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    xs = np.asarray(basis.nodes().nodes)
    assert np.all(np.isfinite(xs))
    for order in range(4):
        vals = basis.matrix(xs[[0, 30, 60]], order)
        assert np.all(np.isfinite(vals[[0, 30, 60], [0, 1, 2]]))
    big = SincBasis(30, 5.0)  # LogSinh pairing
    xs = np.asarray(big.nodes().nodes)
    assert np.all(np.isfinite(xs))
    assert math.isfinite(big.matrix(xs[60:], 3)[60, 0])
    # down to the smallest subnormal the Log-map members stay finite: the
    # weight's zero and the map's pole never meet as 0 * inf.  Orders 0-2
    # vanish with x; order 3 tends to 6 S(ln x), which decays like 1/ln x.
    cone = SincBasis(4, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    tiny = np.array([1e-150, 1e-200, 1e-300, 5e-324])
    for order in range(4):
        vals = cone.matrix(tiny, order)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= (1e-100 if order < 3 else 0.1)


def test_mesh_beyond_double_range_is_rejected():
    basis = SincBasis(150, 5.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    with pytest.raises(RangeOverflowError):
        basis.nodes()


# ---------------------------------------------------------------------------
# interpolation property


@pytest.mark.parametrize("map_kind,weight_kind", PAIRS)
@pytest.mark.parametrize("N,h", [(4, 1.0), (7, 0.7), (10, 0.5)])
def test_interpolation_property(map_kind, weight_kind, N, h):
    basis = SincBasis(N, h, map_kind, weight_kind)
    xs = np.asarray(basis.nodes().nodes)
    got = basis.matrix(xs, 0)               # got[k + N, j + N]: translate k at node j
    want = np.diag([weight_value(weight_kind, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_composite_point_examples():
    x0 = math.log(1.0 + math.sqrt(2.0))
    basis = SincBasis(4, 1.0)
    at_x0 = basis.matrix([x0], 0)[:, 0]     # row k + 4 holds translate k
    assert abs(at_x0[4] - x0 / (x0**2 + 1.0)) <= 1e-13
    assert abs(at_x0[5]) <= 1e-14
    cone = SincBasis(4, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    assert abs(cone.matrix([1.0], 0)[4, 0] - 0.5) <= 1e-15


# ---------------------------------------------------------------------------
# nodal derivative matrices


def test_delta_matrix_closed_form_entries():
    basis = SincBasis(4, 1.0)
    d0 = delta_matrix(basis, 0)
    assert np.array_equal(d0.entries, np.eye(9))
    d1 = delta_matrix(basis, 1)
    assert d1.entries[4, 5] == -1.0
    assert d1.entries[4, 4] == 0.0
    d2 = delta_matrix(basis, 2)
    assert np.allclose(np.diag(d2.entries), -math.pi**2 / 3.0, rtol=1e-15)
    d3 = delta_matrix(basis, 3)
    assert d3.entries[4, 5] == math.pi**2 - 6.0
    assert d3.entries[4, 4] == 0.0
    assert d3.order == 3 and d3.h == 1.0


def test_delta_matrix_h_scaling():
    basis = SincBasis(3, 0.5)
    for m, power in ((1, 1), (2, 2), (3, 3)):
        unit = delta_matrix(SincBasis(3, 1.0), m).entries
        scaled = delta_matrix(basis, m).entries
        assert np.allclose(scaled, unit / 0.5**power, rtol=1e-15)


@pytest.mark.parametrize("h", [0.7, 1.0])
def test_delta_matrix_matches_finite_differences(h):
    # fourth-order centered stencils at the stated steps: second-order
    # ones leave ~7e-7 truncation, outside the 1e-6 relative budget
    basis = SincBasis(6, h)
    for m in (1, 2, 3):
        ent = delta_matrix(basis, m).entries
        s = 1e-3 if m <= 2 else 1e-2
        for k in range(-6, 7):
            g = lambda phi: sinc((phi - k * h) / h)
            for j in range(-6, 7):
                p = j * h
                if m == 1:
                    fd = (-g(p + 2 * s) + 8 * g(p + s)
                          - 8 * g(p - s) + g(p - 2 * s)) / (12 * s)
                elif m == 2:
                    fd = (-g(p + 2 * s) + 16 * g(p + s) - 30 * g(p)
                          + 16 * g(p - s) - g(p - 2 * s)) / (12 * s**2)
                else:
                    fd = (-g(p + 3 * s) + 8 * g(p + 2 * s) - 13 * g(p + s)
                          + 13 * g(p - s) - 8 * g(p - 2 * s)
                          + g(p - 3 * s)) / (8 * s**3)
                got = ent[k + 6, j + 6]
                assert abs(got - fd) <= 1e-6 * abs(fd) + 1e-8


def test_delta_matrix_symmetries_exact():
    basis = SincBasis(5, 0.8)
    d1 = delta_matrix(basis, 1).entries
    d2 = delta_matrix(basis, 2).entries
    d3 = delta_matrix(basis, 3).entries
    assert np.array_equal(d1.T, -d1)
    assert np.array_equal(d2.T, d2)
    assert np.array_equal(d3.T, -d3)


def test_delta_matrix_entries_are_immutable():
    ent = delta_matrix(SincBasis(3, 1.0), 2).entries
    with pytest.raises(ValueError):
        ent[0, 0] = 7.0


# ---------------------------------------------------------------------------
# derivative consistency at arbitrary points


@pytest.mark.parametrize("map_kind,weight_kind", PAIRS)
def test_member_derivatives_match_central_differences(map_kind, weight_kind):
    basis = SincBasis(4, 0.9, map_kind, weight_kind)
    x = np.array([0.3, 0.9, 2.1, 5.0, 8.0])
    s = 1e-6
    # orders 2 and 3 difference the next-lower analytic order, as in
    # the Hermite suite, to stay inside 1e-5 absolute
    for m in (1, 2, 3):
        lower = lambda t: basis.matrix(t, m - 1)   # all 9 translates at once
        fd = (lower(x + s) - lower(x - s)) / (2 * s)
        assert np.max(np.abs(basis.matrix(x, m) - fd)) <= 1e-5


# ---------------------------------------------------------------------------
# weights and axis behavior


def test_weight_vanishes_at_axis():
    assert weight_value(SincWeight.RATIONAL_X, 1e-4) <= 1e-3
    assert weight_value(SincWeight.RATIONAL_X3, 1e-4) <= 1e-3


def test_weight_far_field():
    # x/(1+x^2) decays at infinity; x^3/(1+x^3) tends to ONE — far-field
    # decay of those members comes from the sinc factor, not the weight.
    assert weight_value(SincWeight.RATIONAL_X, 1e4) <= 1e-3
    assert abs(weight_value(SincWeight.RATIONAL_X3, 1e4) - 1.0) <= 1e-3


def test_member_far_field_decay_comes_from_sinc_factor():
    cone = SincBasis(4, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    at_1e4, at_1e8 = np.abs(cone.matrix([1e4, 1e8], 0)).T
    assert np.all(at_1e4 <= 0.2)
    assert np.all(at_1e8 <= 1e-1)


def test_axis_values_are_zero():
    for map_kind, weight_kind in PAIRS:
        basis = SincBasis(3, 1.0, map_kind, weight_kind)
        for order in range(4):
            assert np.all(basis.matrix([0.0], order) == 0.0)


def test_logsinh_cutoff_below_1e10():
    basis = SincBasis(3, 1.0)
    for order in range(4):
        assert np.all(basis.matrix([1e-12], order) == 0.0)
    # just above the cutoff evaluation proceeds and stays tiny
    assert abs(basis.matrix([1e-9], 0)[3, 0]) <= 1e-8


# ---------------------------------------------------------------------------
# validation


def test_pairing_validation():
    with pytest.raises(ConfigurationError):
        SincBasis(4, 1.0, SincMap.LOG_SINH, SincWeight.RATIONAL_X3)
    with pytest.raises(ConfigurationError):
        SincBasis(4, 1.0, SincMap.LOG, SincWeight.RATIONAL_X)


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        SincBasis(0, 1.0)
    with pytest.raises(ConfigurationError):
        SincBasis(4, 0.0)
    with pytest.raises(ConfigurationError):
        SincBasis(4, -1.0)


def test_member_view_matches_translate_view():
    # member slot i is row i of the translate matrix, translate k = i - 4
    basis = SincBasis(4, 1.0)
    assert basis.dimension == 9
    x = 0.7
    rows = composite_matrix(basis, [x], 1)[:, 0]
    for i in range(9):
        assert basis.member(i, x, 1) == rows[i]
    with pytest.raises(ConfigurationError):
        basis.member(9, x, 0)
    with pytest.raises(ConfigurationError):
        basis.member(-1, x, 0)


def test_domain_and_order_validation():
    basis = SincBasis(4, 1.0)
    with pytest.raises(DomainError):
        basis.matrix([1.0, -1.0], 0)
    with pytest.raises(DomainError):
        basis.matrix([float("inf")], 0)
    with pytest.raises(DomainError):
        basis.member(0, float("nan"), 0)
    with pytest.raises(UnsupportedOrderError):
        basis.matrix([1.0], 4)
