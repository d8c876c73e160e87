"""Damped Newton iteration for square nonlinear systems.

The caller supplies the Jacobian with the residual map; fd_jacobian, a
forward-difference approximation, is kept as the oracle tests check
Jacobians against.  The linear solve is dense LU with partial pivoting
after row equilibration (the collocation systems mix rows whose natural
scales differ by many orders of magnitude).  Damping is plain step halving
on the residual max-norm.
"""

import numpy as np

from .errors import (ConfigurationError, NumericEvaluationError,
                     SingularJacobianError)

_COND_LIMIT = 1e14


class NewtonConfig:
    """Solver knobs.

    tol_residual -- stop when max|F| drops to this
    tol_step     -- stop when the accepted (damped) step is this small
    max_iter     -- Newton iteration budget
    max_halvings -- line-search depth; each halving must still decrease max|F|
    """

    def __init__(self, tol_residual=1e-10, tol_step=1e-12, max_iter=200,
                 max_halvings=30):
        if not (tol_residual > 0 and tol_step > 0):
            raise ConfigurationError("tolerances must be positive")
        if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
            raise ConfigurationError("max_iter must be an integer >= 1")
        if not (isinstance(max_halvings, (int, np.integer)) and max_halvings >= 0):
            raise ConfigurationError("max_halvings must be an integer >= 0")
        self.tol_residual = float(tol_residual)
        self.tol_step = float(tol_step)
        self.max_iter = int(max_iter)
        self.max_halvings = int(max_halvings)


class SolveReport:
    """Outcome of one newton_solve call."""

    def __init__(self, solution, iterations, final_residual_norm, converged, history):
        self.solution = np.asarray(solution, dtype=float).copy()
        self.solution.setflags(write=False)
        self.iterations = int(iterations)
        self.final_residual_norm = float(final_residual_norm)
        self.converged = bool(converged)
        self.history = list(history)

    def __repr__(self):
        tag = "converged" if self.converged else "stopped"
        return "SolveReport(%s, %d iterations, max|F| = %.3e)" % (
            tag, self.iterations, self.final_residual_norm)


def _eval(F, x, what):
    r = np.asarray(F(np.asarray(x, dtype=float)), dtype=float)
    bad = ~np.isfinite(r)
    if bad.any():
        comp = int(np.nonzero(bad)[0][0])
        raise NumericEvaluationError(
            "%s produced a non-finite value" % what, component=comp)
    return r


def _eval_jacobian(J, x):
    m = np.array(J(x), dtype=float)        # a copy: dead rows get patched
    if m.shape != (x.size, x.size):
        raise ConfigurationError(
            "Jacobian has shape %s, expected (%d, %d)" % (m.shape, x.size, x.size))
    bad = ~np.isfinite(m)
    if bad.any():
        raise NumericEvaluationError(
            "Jacobian produced a non-finite value", component=int(np.nonzero(bad)[0][0]))
    return m


def fd_jacobian(F, x, fd_step=1e-7):
    """Forward-difference Jacobian: column i = (F(x + s_i e_i) - F(x)) / s_i.

    The step s_i = fd_step * (1 + |x_i|) keeps relative accuracy for large
    components without collapsing for small ones.
    """
    x = np.asarray(x, dtype=float)
    f0 = _eval(F, x, "residual at base point")
    if f0.size != x.size:
        raise ConfigurationError(
            "system is not square: %d equations for %d unknowns" % (f0.size, x.size))
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        s = fd_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += s
        fi = _eval(F, xp, "residual at perturbed component %d" % i)
        J[:, i] = (fi - f0) / s
    return J


def newton_solve(F, J, x0, cfg=None):
    """Damped Newton iteration for F(x) = 0 from x0; returns a SolveReport.

    J(x) returns the square Jacobian of F at x; a non-finite entry raises
    NumericEvaluationError (component = its row) and a wrong shape
    ConfigurationError, as for the residual.

    Accepted steps strictly decrease max|F|.  The Newton step solves the
    row-equilibrated system; an equilibrated condition estimate beyond 1e14
    aborts with the current iterate attached.  Rows that are identically
    zero in the Jacobian while their residual entry is already below the
    residual tolerance are replaced by trivial identity equations (they
    carry no information and would otherwise poison the factorization).
    """
    if cfg is None:
        cfg = NewtonConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError("x0 must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("x0 must be finite")
    f = _eval(F, x, "residual at initial guess")
    if f.size != x.size:
        raise ConfigurationError(
            "system is not square: %d equations for %d unknowns" % (f.size, x.size))
    rnorm = float(np.max(np.abs(f)))
    history = [rnorm]
    if rnorm <= cfg.tol_residual:
        return SolveReport(x, 0, rnorm, True, history)
    for it in range(1, cfg.max_iter + 1):
        jac = _eval_jacobian(J, x)
        # row equilibration in the max norm
        scale = np.max(np.abs(jac), axis=1)
        dead = scale == 0.0
        if dead.any():
            idx = np.nonzero(dead)[0]
            if np.all(np.abs(f[idx]) <= cfg.tol_residual):
                for i in idx:
                    jac[i, i] = 1.0
                    f = f.copy()
                    f[i] = 0.0
                scale = np.max(np.abs(jac), axis=1)
            else:
                comp = int(idx[np.argmax(np.abs(f[idx]))])
                raise SingularJacobianError(
                    "Jacobian row %d vanishes while its residual does not" % comp,
                    iterate=x.copy())
        Jeq = jac / scale[:, np.newaxis]
        feq = f / scale
        cond = float(np.linalg.cond(Jeq))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularJacobianError(
                "equilibrated Jacobian condition %.3e exceeds %.1e" % (cond, _COND_LIMIT),
                iterate=x.copy(), condition=cond)
        try:
            step = np.linalg.solve(Jeq, -feq)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "linear solve failed: %s" % exc, iterate=x.copy(), condition=cond)
        # halving line search: accept the first damped step that decreases max|F|
        lam = 1.0
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            trial = x + lam * step
            ft = _eval(F, trial, "residual during line search")
            tnorm = float(np.max(np.abs(ft)))
            if tnorm < rnorm:
                x, f, rnorm = trial, ft, tnorm
                accepted = True
                break
            lam *= 0.5
        step_size = float(np.max(np.abs(lam * step)))
        if not accepted:
            # stalled at the residual floor; tiny proposed steps mean done
            converged = float(np.max(np.abs(step))) * lam * 2.0 <= cfg.tol_step
            history.append(rnorm)
            return SolveReport(x, it, rnorm, converged or rnorm <= cfg.tol_residual, history)
        history.append(rnorm)
        if rnorm <= cfg.tol_residual or step_size <= cfg.tol_step:
            return SolveReport(x, it, rnorm, True, history)
    return SolveReport(x, cfg.max_iter, rnorm, rnorm <= cfg.tol_residual, history)
