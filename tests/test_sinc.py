"""Weighted composite translate family: interpolation, derivative
matrices, chain-rule evaluation, weights, maps, and validation."""

import enum
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from halfline.errors import (
    ConfigurationError,
    DomainError,
    RangeOverflowError,
    UnsupportedOrderError,
)
from halfline.sinc import (
    SincBasis,
    SincMap,
    chain_tables,
    delta_matrix,
    sinc_derivatives,
    sinc_nodes,
    _log_chain,
    _rational_x_derivs,
)
from properties import delta_stencil_pairs, difference_error


class SincWeight(enum.Enum):
    """The boundary weight each map implies, as these tests name it."""
    RATIONAL_X = "rational-x"       # x / (1 + x^2)
    RATIONAL_X3 = "rational-x3"     # x^3 / (1 + x^3)


PAIRS = (
    (SincMap.LOG_SINH, SincWeight.RATIONAL_X),
    (SincMap.LOG, SincWeight.RATIONAL_X3),
)


def weight_value(weight_kind, x):
    if weight_kind is SincWeight.RATIONAL_X:
        return _rational_x_derivs(np.array([x]))[0, 0]
    return _log_chain(np.array([x]), 0)[0][0][0]        # A[0][0] = W


def sinc(y):
    return sinc_derivatives(y, 0)[0]


# ---------------------------------------------------------------------------
# cardinal function


def test_sinc_point_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(1.0)) <= 1e-16
    assert abs(sinc(0.5) - 2.0 / math.pi) <= 1e-15


def test_sinc_derivatives_across_the_series_switch():
    # |y| <= 0.4 takes the tabulated series, the rest the closed forms
    y = np.array([[-7.3, -0.4001, -0.4, -0.0501, -1e-9],
                  [0.0, 0.02, 0.0500001, 0.4000001, 2.5]])
    vals = sinc_derivatives(y, 3)
    assert all(v.shape == y.shape for v in vals)
    assert np.max(np.abs(vals[0] - np.sinc(y))) <= 1e-15
    assert difference_error(lambda t, m: sinc_derivatives(t, m)[m], y, 1e-5) <= 1e-8


def test_sinc_derivatives_keep_every_digit_near_the_switch():
    # against the Taylor series summed in 50-digit decimals, every order d
    # on [-1, 1] is within 1e-15 pi^d.  The quotient forms cancel inside
    # |y| = 0.4 (order 3 is 5.5e-12 off at 0.055), and the series, truncated
    # after (pi y)^20, loses digits beyond it (order 3 is 1.9e-12 off at 0.6)
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582")
    y = np.linspace(-1.0, 1.0, 801)
    vals = sinc_derivatives(y, 3)
    with localcontext() as ctx:
        ctx.prec = 50
        for d in range(4):
            # sinc^(d)(y) = sum over 2m >= d of c_m y^(2m - d),
            # c_m = (-1)^m pi^(2m) (2m)! / ((2m - d)! (2m + 1)!)
            coef = [(-1) ** m * pi ** (2 * m) * math.factorial(2 * m)
                    / (math.factorial(2 * m - d) * math.factorial(2 * m + 1))
                    for m in range((d + 1) // 2, 41)]
            ref = []
            for t in map(Decimal, y):
                s = Decimal(0)
                for c in reversed(coef):
                    s = s * t * t + c
                ref.append(float(s * t if d % 2 else s))
            assert np.max(np.abs(vals[d] - ref)) <= 1e-15 * math.pi ** d


# ---------------------------------------------------------------------------
# nodes


def test_logsinh_node_closed_forms():
    xs = sinc_nodes(SincBasis(3, 1.0))
    assert abs(xs[3] - math.log(1.0 + math.sqrt(2.0))) <= 1e-15
    assert abs(xs[4] - math.log(math.e + math.sqrt(1.0 + math.e**2))) <= 1e-14
    # general formula arcsinh(e^{j h})
    for j in range(-3, 4):
        assert abs(xs[j + 3] - math.asinh(math.exp(j))) <= 1e-13
    assert np.all(np.diff(xs) > 0) and np.all(xs > 0)


def test_log_nodes_are_exponentials():
    basis = SincBasis(4, 0.6, SincMap.LOG)
    xs = basis.nodes()
    want = np.exp(0.6 * np.arange(-4, 5))
    assert np.allclose(xs, want, rtol=1e-15, atol=0.0)
    assert xs[4] == 1.0


def test_extreme_mesh_nodes_stay_finite():
    # |j h| = 150: e^{150} is representable; everything stays finite.
    basis = SincBasis(30, 5.0, SincMap.LOG)
    xs = basis.nodes()
    assert np.all(np.isfinite(xs))
    for order in range(4):
        vals = basis.tables(xs[[0, 30, 60]], order)[order]
        assert np.all(np.isfinite(vals[[0, 30, 60], [0, 1, 2]]))
    big = SincBasis(30, 5.0)  # LogSinh pairing
    xs = big.nodes()
    assert np.all(np.isfinite(xs))
    assert math.isfinite(big.tables(xs[60:], 3)[3][60, 0])
    # far out on the LogSinh map the mapped variable is as large as x itself;
    # no power of it may overflow (the filter turns a RuntimeWarning into a
    # failure), and the members decay to zero or a subnormal, up to the
    # largest doubles
    far = np.array([1e80, 1e160, 1e300, 1.7e308])
    for order in range(4):
        vals = SincBasis(17, 1.0).tables(far, order)[order]
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1e-150
    # nor may the translate argument (Phi - k h) / h once Phi / h passes
    # the largest double.
    for order in range(4):
        assert np.all(np.isfinite(SincBasis(17, 0.3).tables([9e307], order)[order]))
    for order in range(2):
        assert np.all(np.isfinite(SincBasis(3, 1e-300).tables([1e300], order)[order]))
    # Orders 2 and 3 divide by h^2 and h^3, which underflow to zero on the
    # 1e-300 mesh: a typed error on both maps and both evaluation paths.
    # h^3 = 1e-306 is still a normal double, and stays finite.
    for map_kind in SincMap:
        fine = SincBasis(3, 1e-300, map_kind)
        for order in (2, 3):
            for x in (1.0, 1e300):
                with pytest.raises(RangeOverflowError):
                    fine.tables([x], order)
            with pytest.raises(RangeOverflowError):
                delta_matrix(fine, order)
        coarse = SincBasis(3, 1e-102, map_kind)
        assert np.all(np.isfinite(coarse.tables([1e-5, 1.0, 1e300], 3)[3]))
        assert np.all(np.isfinite(delta_matrix(coarse, 3)))
        # h^order beyond the largest double is refused the same way
        with pytest.raises(RangeOverflowError):
            SincBasis(3, 1e200, map_kind).tables([1.0], 2)
        with pytest.raises(RangeOverflowError):
            delta_matrix(SincBasis(3, 1e110, map_kind), 3)
        assert np.all(np.isfinite(SincBasis(3, 1e200, map_kind).tables([1.0], 1)[1]))
    # down to the smallest subnormal the Log-map members stay finite: the
    # weight's zero and the map's pole never meet as 0 * inf.  Orders 0-2
    # vanish with x; order 3 tends to 6 S(ln x), which decays like 1/ln x.
    cone = SincBasis(4, 1.0, SincMap.LOG)
    tiny = np.array([1e-150, 1e-200, 1e-300, 5e-324])
    for order in range(4):
        vals = cone.tables(tiny, order)[order]
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= (1e-100 if order < 3 else 0.1)


def test_mesh_beyond_double_range_is_rejected():
    basis = SincBasis(150, 5.0, SincMap.LOG)
    with pytest.raises(RangeOverflowError):
        basis.nodes()


# ---------------------------------------------------------------------------
# interpolation property


@pytest.mark.parametrize("map_kind,weight_kind", PAIRS)
@pytest.mark.parametrize("N,h", [(4, 1.0), (7, 0.7), (10, 0.5)])
def test_interpolation_property(map_kind, weight_kind, N, h):
    basis = SincBasis(N, h, map_kind)
    xs = basis.nodes()
    got = basis.tables(xs, 0)[0]               # got[k + N, j + N]: translate k at node j
    want = np.diag([weight_value(weight_kind, x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_composite_point_examples():
    x0 = math.log(1.0 + math.sqrt(2.0))
    basis = SincBasis(4, 1.0)
    at_x0 = basis.tables([x0], 0)[0][:, 0]     # row k + 4 holds translate k
    assert abs(at_x0[4] - x0 / (x0**2 + 1.0)) <= 1e-13
    assert abs(at_x0[5]) <= 1e-14
    cone = SincBasis(4, 1.0, SincMap.LOG)
    assert abs(cone.tables([1.0], 0)[0][4, 0] - 0.5) <= 1e-15


# ---------------------------------------------------------------------------
# nodal derivative matrices


def test_delta_matrix_closed_form_entries():
    basis = SincBasis(4, 1.0)
    d0 = delta_matrix(basis, 0)
    assert np.array_equal(d0, np.eye(9))
    d1 = delta_matrix(basis, 1)
    assert d1[4, 5] == -1.0
    assert d1[4, 4] == 0.0
    d2 = delta_matrix(basis, 2)
    assert np.allclose(np.diag(d2), -math.pi**2 / 3.0, rtol=1e-15)
    d3 = delta_matrix(basis, 3)
    assert d3[4, 5] == math.pi**2 - 6.0
    assert d3[4, 4] == 0.0


def test_delta_matrix_h_scaling():
    basis = SincBasis(3, 0.5)
    for m, power in ((1, 1), (2, 2), (3, 3)):
        unit = delta_matrix(SincBasis(3, 1.0), m)
        scaled = delta_matrix(basis, m)
        assert np.allclose(scaled, unit / 0.5**power, rtol=1e-15)


@pytest.mark.parametrize("h", [0.7, 1.0])
def test_delta_matrix_matches_finite_differences(h):
    # fourth-order centred stencils: second-order ones leave ~7e-7
    # truncation, outside the 1e-6 relative budget
    for m in (1, 2, 3):
        ent, fd = delta_stencil_pairs(SincBasis(6, h), m)
        assert np.all(np.abs(ent - fd) <= 1e-6 * np.abs(fd) + 1e-8)


def test_delta_matrix_symmetries_exact():
    basis = SincBasis(5, 0.8)
    d1 = delta_matrix(basis, 1)
    d2 = delta_matrix(basis, 2)
    d3 = delta_matrix(basis, 3)
    assert np.array_equal(d1.T, -d1)
    assert np.array_equal(d2.T, d2)
    assert np.array_equal(d3.T, -d3)


def test_delta_matrix_entries_are_immutable():
    for m in range(4):
        ent = delta_matrix(SincBasis(3, 1.0), m)
        with pytest.raises(ValueError):
            ent[0, 0] = 7.0


@pytest.mark.parametrize("basis", [SincBasis(17, 1.0), SincBasis(60, 0.3),
                                   SincBasis(30, 0.3, SincMap.LOG),
                                   SincBasis(9, 0.6, SincMap.LOG)], ids=repr)
def test_nodal_tables_match_the_delta_matrices(basis):
    # the collocation operators are the tables at the nodes; the classical
    # route D_m = sum_q diag(A[m][q]) delta^(q)^T must give the same matrices
    nodes = sinc_nodes(basis)
    tables = basis.tables(nodes, 3)
    live, _, A = chain_tables(basis, nodes, 3)
    assert live.all()
    deltas = [delta_matrix(basis, q) for q in range(4)]
    for m in range(4):
        want = sum(A[m][q][:, np.newaxis] * deltas[q].T for q in range(m + 1))
        assert np.max(np.abs(tables[m].T - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# derivative consistency at arbitrary points


@pytest.mark.parametrize("map_kind,weight_kind", PAIRS)
def test_member_derivatives_match_central_differences(map_kind, weight_kind):
    basis = SincBasis(4, 0.9, map_kind)
    x = np.array([0.3, 0.9, 2.1, 5.0, 8.0])
    # orders 2 and 3 difference the next-lower analytic order, as in
    # the Hermite suite, to stay inside 1e-5 absolute; all 9 translates at once
    assert difference_error(lambda t, m: basis.tables(t, m)[m], x, 1e-6) <= 1e-5


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
    cone = SincBasis(4, 1.0, SincMap.LOG)
    at_1e4, at_1e8 = np.abs(cone.tables([1e4, 1e8], 0)[0]).T
    assert np.all(at_1e4 <= 0.2)
    assert np.all(at_1e8 <= 1e-1)


def test_axis_values_are_zero():
    for map_kind, weight_kind in PAIRS:
        basis = SincBasis(3, 1.0, map_kind)
        for order in range(4):
            assert np.all(basis.tables([0.0], order)[order] == 0.0)


def test_logsinh_tables_are_live_near_the_axis():
    # every x > 0 is tabulated: no order jumps across 1e-10, and an entry
    # formed as the weight's zero times the map's pole is refused, typed and
    # without a warning (the suite's filter makes one a failure)
    basis = SincBasis(3, 1.0)
    for order in range(4):
        below, above = basis.tables(1e-10 * np.array([1.0 - 1e-9, 1.0 + 1e-9]), order)[order].T
        assert np.max(np.abs(above - below)) <= 1e-6 * np.max(np.abs(above))
    with pytest.raises(RangeOverflowError):
        basis.tables([1e-200], 2)


# ---------------------------------------------------------------------------
# validation


def test_pairing_validation():
    # the map alone picks the weight: there is no weight argument, and a
    # map given other than as a SincMap is refused
    with pytest.raises(TypeError):
        SincBasis(4, 1.0, SincMap.LOG, SincWeight.RATIONAL_X3)
    for bad in ("log", None):
        with pytest.raises(ConfigurationError):
            SincBasis(4, 1.0, bad)
    assert repr(SincBasis(4, 1.0, SincMap.LOG)) == "SincBasis(N=4, h=1, log)"


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        SincBasis(0, 1.0)
    with pytest.raises(ConfigurationError):
        SincBasis(4, 0.0)
    with pytest.raises(ConfigurationError):
        SincBasis(4, -1.0)
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        with pytest.raises(ConfigurationError):
            SincBasis(3, bad)
    for bad in (True, 2.5, "5", None):
        with pytest.raises(ConfigurationError):
            SincBasis(bad, 1.0)
    for bad in (1.5, True):
        with pytest.raises(ConfigurationError):
            SincBasis(4, 1.0).member(bad, 0.7)


def test_member_view_matches_translate_view():
    # member slot i is row i of the translate matrix, translate k = i - 4
    basis = SincBasis(4, 1.0)
    assert basis.dimension == 9
    x = 0.7
    rows = basis.tables([x], 1)[1][:, 0]
    for i in range(9):
        assert basis.member(i, x, 1) == rows[i]
    with pytest.raises(ConfigurationError):
        basis.member(9, x, 0)
    with pytest.raises(ConfigurationError):
        basis.member(-1, x, 0)


def test_domain_and_order_validation():
    basis = SincBasis(4, 1.0)
    with pytest.raises(DomainError):
        basis.tables([1.0, -1.0], 0)
    with pytest.raises(DomainError):
        basis.tables([float("inf")], 0)
    with pytest.raises(DomainError):
        basis.member(0, float("nan"), 0)
    with pytest.raises(UnsupportedOrderError):
        basis.tables([1.0], 4)
