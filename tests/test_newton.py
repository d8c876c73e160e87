"""Damped Newton solver: Jacobians, convergence behavior, determinism,
and failure modes.  The behaviour tests give the solver the
forward-difference Jacobian of their test map."""

import numpy as np
import pytest

from halfline.errors import (
    ConfigurationError,
    NumericEvaluationError,
    SingularJacobianError,
)
from halfline.newton import NewtonConfig, SolveReport, fd_jacobian, newton_solve


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
    # for F = x^2 - 4 the residuals obey |F_{n+1}| -> |F_n|^2 / 16
    F = lambda v: np.array([v[0] ** 2 - 4.0])
    h = newton_solve(F, fd_of(F), np.array([3.0])).history
    checked = 0
    for a, b in zip(h, h[1:]):
        if 1e-8 < a < 1.0:
            assert b <= 0.1 * a * a
            checked += 1
    assert checked >= 2
    assert all(b < a for a, b in zip(h, h[1:]) if a > 0)


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


def test_max_iter_budget_is_honored():
    # F = x^3 from 1.0 contracts by only (2/3)^3 per step, so three
    # iterations cannot reach 1e-10
    F = lambda v: np.array([v[0] ** 3])
    cfg = NewtonConfig(max_iter=3)
    report = newton_solve(F, fd_of(F), np.array([1.0]), cfg)
    assert not report.converged
    assert report.iterations == 3
    assert len(report.history) == 4


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
    with pytest.raises(SingularJacobianError):
        newton_solve(F, fd_of(F), np.array([0.0, 0.0]))


def test_dead_row_with_live_residual_is_reported():
    F = lambda v: np.array([v[0] - 1.0, 5.0])
    with pytest.raises(SingularJacobianError):
        newton_solve(F, fd_of(F), np.array([0.0, 0.0]))


def test_dead_row_with_satisfied_residual_is_tolerated():
    F = lambda v: np.array([v[0] - 2.0, 0.0])
    report = newton_solve(F, fd_of(F), np.array([0.0, 0.0]))
    assert report.converged
    assert abs(report.solution[0] - 2.0) <= 1e-10


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


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    for kwargs in (dict(tol_residual=0.0), dict(tol_step=-1.0),
                   dict(max_iter=0),
                   dict(max_iter=2.5), dict(max_halvings=-1)):
        with pytest.raises(ConfigurationError):
            NewtonConfig(**kwargs)
    cfg = NewtonConfig()
    assert cfg.tol_residual == 1e-10 and cfg.tol_step == 1e-12
    assert cfg.max_iter == 200
    assert cfg.max_halvings == 30


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
