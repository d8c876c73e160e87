"""Damped Newton solver: Jacobians, convergence behavior, determinism,
and failure modes.  The behaviour tests give the solver the
forward-difference Jacobian of their test map."""

import math
import re

import numpy as np
import pytest

from halfline.errors import (
    ConfigurationError,
    NumericEvaluationError,
    SingularJacobianError,
)
from halfline import newton
from halfline.newton import SolveReport, fd_jacobian, newton_solve
from properties import newton_contraction


def fd_of(F):
    return lambda v: fd_jacobian(F, v)


# ---------------------------------------------------------------------------
# finite-difference Jacobian


def test_jacobian_of_linear_map():
    F = lambda v: np.array([v[0] + 2.0 * v[1], 3.0 * v[0]])
    J = fd_jacobian(F, np.array([0.7, -1.3]))
    assert np.allclose(J, [[1.0, 2.0], [3.0, 0.0]], atol=1e-6)


def test_jacobian_of_identity():
    F = lambda v: v.copy()
    J = fd_jacobian(F, np.array([2.0, -5.0, 0.25]))
    assert np.allclose(J, np.eye(3), atol=1e-6)


def test_jacobian_of_scalar_square():
    F = lambda v: np.array([v[0] ** 2])
    J = fd_jacobian(F, np.array([3.0]))
    assert abs(J[0, 0] - 6.0) <= 1e-6


def test_jacobian_rejects_non_square_system():
    F = lambda v: np.array([v[0], v[0] + 1.0, v[0] - 1.0])
    with pytest.raises(ConfigurationError):
        fd_jacobian(F, np.array([1.0]))


def test_jacobian_custom_step_scales_with_component():
    calls = []
    def F(v):
        calls.append(v.copy())
        return np.array([v[0]])
    fd_jacobian(F, np.array([9.0]), fd_step=1e-6)
    # base point plus one perturbed point with step 1e-6 * (1 + 9)
    assert len(calls) == 2
    assert abs((calls[1][0] - 9.0) - 1e-5) <= 1e-12


# ---------------------------------------------------------------------------
# convergence on the scalar test problem


def test_scalar_quadratic_root():
    F = lambda v: np.array([v[0] ** 2 - 4.0])
    report = newton_solve(F, fd_of(F), np.array([3.0]))
    assert report.converged
    assert abs(report.solution[0] - 2.0) <= 1e-10
    assert report.iterations <= 8
    assert report.history[0] == 5.0
    assert report.final_residual_norm <= 1e-10


def test_scalar_quadratic_convergence_is_quadratic():
    # for F = x^2 - 4 the residuals obey |F_{n+1}| -> |F_n|^2 / 16, and fall
    assert newton_contraction() <= 0.1


def test_linear_system_needs_one_accepted_step():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([3.0, 5.0])
    F = lambda v: A @ v - b
    report = newton_solve(F, fd_of(F), np.zeros(2))
    assert report.converged
    # Newton is exact on affine maps: the first accepted step lands on
    # the solution (any later iteration only polishes roundoff)
    assert report.history[1] <= 1e-8
    want = np.linalg.solve(A, b)
    assert np.max(np.abs(report.solution - want)) <= 1e-12


def test_start_at_the_root_returns_immediately():
    F = lambda v: np.array([v[0] - 2.0])
    report = newton_solve(F, fd_of(F), np.array([2.0]))
    assert report.converged and report.iterations == 0
    assert report.history == [0.0]


def test_max_iter_budget_is_honored(monkeypatch):
    # F = x^3 from 1.0 contracts by only (2/3)^3 per step, so three
    # iterations cannot reach 1e-10
    F = lambda v: np.array([v[0] ** 3])
    monkeypatch.setattr(newton, "_MAX_ITER", 3)
    report = newton_solve(F, fd_of(F), np.array([1.0]))
    assert not report.converged
    assert report.iterations == 3
    assert len(report.history) == 4


def test_stall_away_from_a_root_is_unconverged():
    # |x| + 1e-4 has no root: no halving of the first step decreases it
    report = newton_solve(lambda v: np.array([abs(v[0]) + 1e-4]),
                          lambda v: np.array([[1.0 if v[0] >= 0 else -1.0]]),
                          np.array([0.0]))
    assert report.converged is False and report.iterations == 1
    assert report.final_residual_norm == 1e-4


def test_stall_at_the_rounding_floor_ends_its_halving_at_the_iterate():
    # 1e6 (x^2 - 2) stops at sqrt(2) with max|F| = 4.4e-10 from rounding
    # alone; the next full step rounds back to x, so no trial is evaluated
    calls = []

    def F(v):
        calls.append(1)
        return np.array([1e6 * (v[0] ** 2 - 2.0)])
    report = newton_solve(F, lambda v: np.array([[2e6 * v[0]]]), np.array([1.0]))
    assert report.converged and report.iterations == 6
    assert report.solution[0] == math.sqrt(2.0)
    assert report.history[-2] == report.history[-1] == 4.440892098500626e-10
    # the start and five accepted trials; the stalled iteration calls none
    assert len(calls) == 7


def test_accepted_residuals_decrease_monotonically():
    F = lambda v: np.array([np.tanh(v[0]) - 0.3, v[1] ** 3 + v[1] - 1.5])
    h = newton_solve(F, fd_of(F), np.array([2.0, 1.0])).history
    assert all(b <= a for a, b in zip(h, h[1:]))


def test_exact_jacobian_costs_one_residual_call_per_trial():
    calls = []
    def F(v):
        calls.append(1)
        return np.array([v[0] ** 2 - 4.0, np.sin(v[1])])
    J = lambda v: np.array([[2.0 * v[0], 0.0], [0.0, np.cos(v[1])]])
    report = newton_solve(F, J, np.array([3.0, 0.5]))
    assert report.converged and abs(report.solution[0] - 2.0) <= 1e-12
    # the start plus one accepted trial per iteration (no halving needed)
    assert len(calls) == report.iterations + 1


def test_a_rejected_full_step_is_halved():
    # arctan from 1.5: the full Newton step overshoots to -1.69, where
    # |F| = 1.04 exceeds 0.98 at the start; the half step is accepted (a
    # quartered one would leave |F| = 0.612 instead)
    report = newton_solve(lambda v: np.arctan(v),
                          lambda v: np.array([[1.0 / (1.0 + v[0] ** 2)]]),
                          np.array([1.5]))
    assert report.converged
    assert report.history[1] == abs(math.atan(1.5 - 0.5 * math.atan(1.5) * 3.25))
    assert report.history[1] == 0.09673691081185895


# ---------------------------------------------------------------------------
# determinism and equivariance


def test_bitwise_determinism():
    F = lambda v: np.array([v[0] ** 2 + v[1] - 3.0, v[0] + v[1] ** 2 - 5.0])
    r1 = newton_solve(F, fd_of(F), np.array([1.0, 2.0]))
    r2 = newton_solve(F, fd_of(F), np.array([1.0, 2.0]))
    assert np.array_equal(r1.solution, r2.solution)
    assert r1.history == r2.history
    assert r1.iterations == r2.iterations


def test_permutation_equivariance():
    def F(v):
        return np.array([v[0] ** 2 + v[1] - 3.0, v[0] + v[1] ** 2 - 5.0])

    def G(w):  # F with unknowns and equations both swapped
        return np.array([w[1] + w[0] ** 2 - 5.0, w[1] ** 2 + w[0] - 3.0])

    rf = newton_solve(F, fd_of(F), np.array([1.0, 2.0]))
    rg = newton_solve(G, fd_of(G), np.array([2.0, 1.0]))
    assert rf.converged and rg.converged
    assert np.max(np.abs(rf.solution - rg.solution[::-1])) <= 1e-12


# ---------------------------------------------------------------------------
# failure modes


def test_singular_jacobian_is_reported():
    F = lambda v: np.array([v[0] + v[1] - 1.0, 2.0 * v[0] + 2.0 * v[1] - 2.0])
    with pytest.raises(SingularJacobianError) as info:
        newton_solve(F, fd_of(F), np.array([0.0, 0.0]))
    assert info.value.condition == math.inf


def test_ill_conditioned_jacobian_aborts_with_its_condition():
    # J = [[1, 1], [1, 1 + d]]: kappa_1 of the row-equilibrated matrix is
    # about 4 / d, so d = 1e-15 crosses the 1e-14 abort and d = 1e-9 does not
    x0 = np.array([0.3, -0.2])
    for d, aborts in ((1e-15, True), (1e-9, False)):
        jac = np.array([[1.0, 1.0], [1.0, 1.0 + d]])
        F = lambda v, jac=jac: jac @ v - np.array([2.0, 2.0 + d])
        if aborts:
            with pytest.raises(SingularJacobianError) as info:
                newton_solve(F, lambda v, jac=jac: jac, x0)
            assert info.value.condition > 1e14
            assert np.array_equal(info.value.iterate, x0)
        else:
            report = newton_solve(F, lambda v, jac=jac: jac, x0)
            assert report.converged
            # forward error within kappa_1 * eps of the exact root (1, 1)
            assert np.max(np.abs(report.solution - 1.0)) <= 1e-6


def test_dead_row_with_live_residual_is_reported():
    F = lambda v: np.array([v[0] - 1.0, 5.0])
    with pytest.raises(SingularJacobianError):
        newton_solve(F, fd_of(F), np.array([0.0, 0.0]))


def test_dead_row_with_satisfied_residual_is_tolerated():
    # a satisfied residual does not excuse an all-zero row: it aborts like any
    # exactly singular Jacobian, at the start, with the iterate and kappa_1 = inf
    F = lambda v: np.array([v[0] - 2.0, 0.0])
    x0 = np.array([0.0, 0.0])
    with pytest.raises(SingularJacobianError, match="Jacobian row 1 vanishes") as info:
        newton_solve(F, fd_of(F), x0)
    assert info.value.condition == math.inf
    assert np.array_equal(info.value.iterate, x0)


def test_non_finite_jacobian_is_reported():
    F = lambda v: np.array([v[0] - 1.0, v[1] - 2.0])
    J = lambda v: np.array([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(NumericEvaluationError) as info:
        newton_solve(F, J, np.zeros(2))
    assert info.value.component == 1


def test_jacobian_shape_is_checked():
    F = lambda v: np.array([v[0] - 1.0, v[1] - 2.0])
    for J in (lambda v: np.eye(3), lambda v: np.ones(2), lambda v: np.ones((2, 1))):
        with pytest.raises(ConfigurationError):
            newton_solve(F, J, np.zeros(2))


def test_non_finite_residual_is_reported():
    F = lambda v: np.array([np.sqrt(v[0]) - 2.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericEvaluationError):
            newton_solve(F, fd_of(F), np.array([-1.0]))


def test_non_finite_residual_names_its_first_bad_component():
    J = lambda v: np.eye(4)
    for bad in (math.nan, math.inf, -math.inf):
        F = lambda v, bad=bad: np.array([v[0] - 1.0, 2.0, bad, math.nan])
        with pytest.raises(NumericEvaluationError, match="initial guess") as info:
            newton_solve(F, J, np.zeros(4))
        assert info.value.component == 2
    # finite at the start, NaN from component 1 on at the first trial
    F = lambda v: np.array([v[0] - 1.0] + ([v[1], v[2]] if v[0] == 0.0 else [math.nan] * 2))
    with pytest.raises(NumericEvaluationError, match="line search") as info:
        newton_solve(F, lambda v: np.eye(3), np.zeros(3))
    assert info.value.component == 1


def test_residual_of_the_wrong_size_is_refused_before_its_norm():
    # an empty residual or a non-finite one of the wrong size is a
    # configuration error, not a failed reduction or a numeric one
    for r in (np.array([]), np.array([math.nan, math.nan])):
        with pytest.raises(ConfigurationError, match="not square"):
            newton_solve(lambda v, r=r: r, lambda v: np.eye(1), np.array([1.0]))
    # so is one of the right size but more than one dimension, from either
    # caller; a 0-d residual for one unknown is accepted
    for shape in ((2, 1), (1, 2)):
        F = lambda v, shape=shape: np.ones(shape)
        with pytest.raises(ConfigurationError, match=re.escape("shape %s" % (shape,))):
            newton_solve(F, lambda v: np.eye(2), np.ones(2))
        with pytest.raises(ConfigurationError, match=re.escape("shape %s" % (shape,))):
            fd_jacobian(F, np.ones(2))
    assert newton_solve(lambda v: v[0] - 2.0, lambda v: np.eye(1), np.ones(1)).converged


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    for bad in (0.0, -1e-7, math.nan, math.inf, True, "1e-7", None):
        with pytest.raises(ConfigurationError):
            fd_jacobian(lambda v: v.copy(), np.array([1.0]), bad)
    assert newton._TOL_RESIDUAL == 1e-10 and newton._TOL_STEP == 1e-12
    assert newton._MAX_ITER == 200
    assert newton._MAX_HALVINGS == 30


def test_start_point_validation():
    F = lambda v: v.copy()
    with pytest.raises(ConfigurationError):
        newton_solve(F, fd_of(F), np.array([]))
    with pytest.raises(ConfigurationError):
        newton_solve(F, fd_of(F), np.array([[1.0, 2.0]]))
    with pytest.raises(ConfigurationError):
        newton_solve(F, fd_of(F), np.array([np.nan]))
    with pytest.raises(ConfigurationError):
        newton_solve(lambda v: np.array([v[0], v[0]]), np.ones, np.array([1.0]))


def test_report_solution_is_read_only():
    F = lambda v: np.array([v[0] - 1.0])
    report = newton_solve(F, fd_of(F), np.array([0.0]))
    with pytest.raises(ValueError):
        report.solution[0] = 9.0
    assert isinstance(report, SolveReport)
