"""Expansion evaluation, node checks, inner-product rules, and projection."""

import math
import re

import numpy as np
import pytest

import halfline
from halfline import (
    ConfigurationError,
    DomainError,
    Expansion,
    HermiteBasis,
    LaguerreBasis,
    NodeComputationError,
    RangeOverflowError,
    SeedKind,
    SeedProfile,
    SincBasis,
    SincMap,
    UnsupportedOrderError,
    eval_expansion,
    project,
)
from halfline.hermite import hermite_line_nodes, mapped_trapezoid_rule
from properties import difference_error

FAMILIES = [
    LaguerreBasis(6, 1.0, 0.8),
    HermiteBasis(5, 0.9),
    SincBasis(3, 1.0),
]


@pytest.mark.parametrize("basis", FAMILIES, ids=lambda b: type(b).__name__)
def test_linearity_of_evaluation(basis):
    rng = np.random.default_rng(42)
    xs = (0.3, 1.1, 4.7)
    for _ in range(100):
        a = rng.standard_normal(basis.dimension)
        b = rng.standard_normal(basis.dimension)
        ea, eb = Expansion(basis, a), Expansion(basis, b)
        eab = Expansion(basis, a + b)
        for x in xs:
            lhs = eab(x)
            rhs = ea(x) + eb(x)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_projection_idempotence_laguerre():
    basis = LaguerreBasis(8, 1.0, 1.0)
    rule = basis.quadrature()
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.dimension)
    e = Expansion(basis, coeffs)
    back = project(lambda x: e(x), basis, rule)
    assert np.max(np.abs(back.coefficients - coeffs)) <= 1e-8


def test_projection_idempotence_hermite():
    basis = HermiteBasis(6, 0.9)
    rule = mapped_trapezoid_rule(basis)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(basis.dimension)
    e = Expansion(basis, coeffs)
    back = project(lambda x: e(x), basis, rule)
    assert np.max(np.abs(back.coefficients - coeffs)) <= 1e-8


@pytest.mark.parametrize("basis", FAMILIES, ids=lambda b: type(b).__name__)
def test_first_derivative_matches_central_difference(basis):
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.dimension)
    e = Expansion(basis, coeffs)
    assert difference_error(e, np.array([0.4, 1.3, 2.9, 6.1]), 1e-6, orders=(1,)) <= 1e-5


@pytest.mark.parametrize("basis, order", [(LaguerreBasis(5, 1.0, 1e-160), 2),
                                          (LaguerreBasis(5, 1.0, 1e-110), 3),
                                          (HermiteBasis(5, 1e-200), 2)], ids=repr)
def test_scale_whose_power_leaves_the_double_range_is_refused(basis, order):
    # the order-th derivatives carry 1/L^order or 1/k^order: below the smallest
    # normal double that power overflows (a Python OverflowError for Laguerre,
    # an overflow warning for Hermite), so the tabulation refuses it by type;
    # one order lower stays finite
    with pytest.raises(RangeOverflowError, match=r"\^%d leaves the double range" % order):
        basis.tables([1.0], order)
    assert np.all(np.isfinite(basis.tables([1.0], order - 1)))


def test_large_scales_are_not_refused():
    # the rule is one-sided: 1/L^3 underflows harmlessly
    for basis in (LaguerreBasis(5, 1.0, 1e300), HermiteBasis(5, 1e300)):
        assert np.all(np.isfinite(basis.tables([1.0], 3)))


@pytest.mark.parametrize("basis, x, order, bad", [
    (LaguerreBasis(5, 1.0, 1.5e-154), 1e-152, 2, 2),
    (HermiteBasis(5, 1.5e-154), 1.0, 2, 2),
    (HermiteBasis(5, 2.9e-103), 1.0, 3, 3),
    (HermiteBasis(16, 20.0), 1e-110, 3, 3),
    (HermiteBasis(16, 20.0), 1e-160, 2, 2),
    (HermiteBasis(16, 20.0), 1e-300, 3, 2)], ids=repr)
def test_a_table_entry_that_leaves_the_double_range_is_refused(basis, x, order, bad):
    # just above the power refusal, 1/L^order or 1/k^order times a line or
    # polynomial value still overflows, and near the axis at large k the map
    # derivatives 1/(k x^q) do; the first order holding an inf or a NaN is
    # named, and under the suite's error::RuntimeWarning filter a leaked
    # warning would fail this test first
    message = re.escape(repr(basis)) + ": order %d leaves the double range" % bad
    with pytest.raises(RangeOverflowError, match=message):
        basis.tables([x], order)


def test_a_failed_eigen_solve_is_typed(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for family, nodes in (("Laguerre", LaguerreBasis(5).nodes),
                          ("Hermite", lambda: hermite_line_nodes(5))):
        with pytest.raises(NodeComputationError,
                           match="eigen-solve for %s nodes failed: Eigenvalues" % family):
            nodes()


def test_expansion_with_seed_adds_profile():
    basis = HermiteBasis(4, 0.9)
    seed = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7)
    zero = Expansion(basis, np.zeros(basis.dimension), seed)
    for x in (0.0, 0.5, 2.0):
        for m in (0, 1, 2):
            assert zero(x, m) == seed(x, m)


def test_expansion_validation():
    basis = LaguerreBasis(4, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Expansion(basis, np.zeros(3))
    with pytest.raises(ConfigurationError):
        Expansion(basis, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        Expansion(basis, np.zeros((2, 2)))


def test_evaluation_point_and_order_checks():
    basis = LaguerreBasis(4, 1.0, 1.0)
    e = Expansion(basis, np.ones(4))
    with pytest.raises(DomainError):
        e(-0.5)
    with pytest.raises(DomainError):
        e(math.inf)
    with pytest.raises(UnsupportedOrderError):
        e(1.0, 4)
    with pytest.raises(UnsupportedOrderError):
        e(1.0, -1)
    with pytest.raises(UnsupportedOrderError):
        eval_expansion(e, 1.0, 1.5)
    with pytest.raises(UnsupportedOrderError):
        e(1.0, True)
    with pytest.raises(UnsupportedOrderError):
        basis.tables([1.0], True)


def test_collocation_grid_validation():
    # empty, repeated, decreasing, non-finite: as a rule's nodes, and from
    # the node routines of bases whose nodes collide or overflow
    basis = LaguerreBasis(1, 1.0, 1.0)
    for nodes in ([], [1.0, 1.0], [2.0, 1.0], [0.5, np.inf], [[0.5, 1.5]]):
        with pytest.raises(ConfigurationError, match="^grid "):
            project(lambda x: 1.0, basis, (nodes, np.ones(np.shape(nodes))))
    for bad in (SincBasis(3, 1e-300), HermiteBasis(5, 1e-300),
                SincBasis(3, 1e-300, SincMap.LOG), LaguerreBasis(12, 1.0, 1e307)):
        with pytest.raises(ConfigurationError, match="^grid nodes must be"):
            bad.nodes()
    for good in FAMILIES:
        nodes = good.nodes()
        assert type(nodes) is np.ndarray and nodes.shape == (good.dimension,)
        assert np.all(np.diff(nodes) > 0) and np.all(nodes > 0)
        with pytest.raises(ValueError):
            nodes[0] = 9.0  # node arrays are read-only


def test_inner_product_rule_validation():
    basis = LaguerreBasis(1, 1.0, 1.0)
    for rule in (([1.0, 2.0], [1.0]), ([0.0, 1.0], [1.0, 1.0]),
                 ([2.0, 1.0], [1.0, 1.0]), ([1.0, 2.0], [1.0, np.nan])):
        with pytest.raises(ConfigurationError):
            project(lambda x: 1.0, basis, rule)
    # a rule that is not a (nodes, weights) pair, and f values that are not
    # finite reals
    for rule in (5, ([1.0], [1.0], [1.0]), (["a"], [1.0])):
        with pytest.raises(ConfigurationError, match="pair"):
            project(lambda x: 1.0, basis, rule)
    for f in (lambda x: "1.0", lambda x: math.nan, lambda x: None, lambda x: [x, x]):
        with pytest.raises(ConfigurationError, match="finite real"):
            project(f, basis, basis.quadrature())
    for rule in (basis.quadrature(), mapped_trapezoid_rule(HermiteBasis(3))):
        nodes, weights = rule
        assert nodes.shape == weights.shape
        assert not (nodes.flags.writeable or weights.flags.writeable)


def test_projection_needs_enough_nodes():
    basis = LaguerreBasis(8, 1.0, 1.0)
    small = ([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        project(lambda x: 1.0, basis, small)


def test_single_member_expansion_matches_member():
    for basis in FAMILIES:
        for i in (0, basis.dimension - 1):
            c = np.zeros(basis.dimension)
            c[i] = 1.0
            e = Expansion(basis, c)
            for m in (0, 1, 2, 3):
                row = basis.tables([0.7, 2.2], m)[m][i]
                assert e(0.7, m) == row[0] and e(2.2, m) == row[1]
                assert basis.member(i, 2.2, m) == row[1]


@pytest.mark.parametrize("basis", FAMILIES + [
    SincBasis(3, 1.0, halfline.SincMap.LOG)],
    ids=lambda b: repr(b))
def test_array_evaluation(basis):
    rng = np.random.default_rng(8)
    seed = None if isinstance(basis, LaguerreBasis) else \
        SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7)
    e = Expansion(basis, rng.standard_normal(basis.dimension), seed)
    xs = np.array([[0.0, 0.3, 1.1], [2.5, 4.7, 9.0]])
    for m in range(4):
        scalar = e(1.1, m)
        assert type(scalar) is float
        got = e(xs, m)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        want = np.array([[e(x, m) for x in row] for row in xs])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        assert e([1.1], m).shape == (1,)
        assert basis.tables(xs.ravel(), m)[m].shape == (basis.dimension, xs.size)
        if not isinstance(basis, LaguerreBasis):
            # the basis part vanishes at the axis to every order
            assert np.all(basis.tables([0.0], m)[m] == 0.0)
        for bad in (-1e-300, -2.0, math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                e(np.array([0.5, bad, 1.0]), m)
            with pytest.raises(DomainError):
                basis.tables([bad], m)


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("basis", FAMILIES + [
    LaguerreBasis(24, 1.0, 0.99), HermiteBasis(16, 1.2), SincBasis(17, 1.0),
    SincBasis(4, 0.7, SincMap.LOG)], ids=lambda b: repr(b))
def test_multi_order_tabulation_is_bit_identical(basis, seeded):
    # the axis, points on and off the nodes, and the far field
    xs = np.concatenate([[0.0, 1e-12, 1e-3], basis.nodes(),
                         np.linspace(0.05, 12.0, 17), [80.0, 700.0, 1e6]])
    rng = np.random.default_rng(7)
    seed = SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.6) if seeded else None
    e = Expansion(basis, rng.standard_normal(basis.dimension), seed=seed)
    for m in range(4):
        stack = basis.tables(xs, m)
        assert stack.shape == (m + 1, basis.dimension, xs.size)
        values = e.derivatives(xs, m)
        scalars = e.derivatives(1.3, m)
        for q in range(m + 1):
            assert np.array_equal(stack[q], basis.tables(xs, q)[q])
            assert np.array_equal(values[q], e(xs, q))
            assert scalars[q] == e(1.3, q)


def test_every_exported_name_resolves():
    for name in halfline.__all__:
        assert getattr(halfline, name, None) is not None, name
