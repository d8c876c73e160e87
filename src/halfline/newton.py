"""Damped Newton iteration for square nonlinear systems.

The caller supplies the Jacobian with the residual map; fd_jacobian, a
forward-difference approximation, is kept as the oracle tests check
Jacobians against.  One iteration forms each of its arrays once: the
Jacobian J, its row maxima s (the equilibration: the collocation systems
mix rows whose natural scales differ by many orders of magnitude),
Jeq = J / s and F / s, the inverse of Jeq, which gives both the step and
the exact condition number kappa_1 = |Jeq|_1 |Jeq^-1|_1 (the largest is
1.4e8 over the 24 presets and 1.2e3 over the benchmark sweep), and then one
residual F with its max|F| per trial of the damping, plain step halving on
max|F|.  The accepted trial's F and max|F| carry into the next iteration.
One rule aborts: kappa_1 beyond 1e14, or an all-zero row of J, raises
SingularJacobianError, whatever the residual.

No caller changes the settings, so they are constants.  The loop stops when
max|F| <= 1e-10, an accepted step is <= 1e-12, no step halved up to 30 times
decreases max|F| (the halving ends at a trial that rounds to the iterate, as
every later trial does too), or 200 iterations are spent.  Converged means
max|F| or max_i |F_i|/s_i is <= 1e-10, s_i = max_j |J_ij| in the last
Jacobian formed.
"""

import math

import numpy as np

from .core import _real
from .errors import (ConfigurationError, NumericEvaluationError,
                     SingularJacobianError)

_COND_LIMIT = 1e14
_TOL_RESIDUAL = 1e-10
_TOL_STEP = 1e-12
_MAX_ITER = 200
_MAX_HALVINGS = 30


class SolveReport:
    """Outcome of one newton_solve call; the iteration count and max|F| are read off history."""

    def __init__(self, solution, converged, history):
        self.solution = np.asarray(solution, dtype=float).copy()
        self.solution.setflags(write=False)
        self.converged = bool(converged)
        self.history = list(history)
        self.iterations = len(self.history) - 1
        self.final_residual_norm = self.history[-1]

    def __repr__(self):
        tag = "converged" if self.converged else "stopped"
        return "SolveReport(%s, %d iterations, max|F| = %.3e)" % (
            tag, self.iterations, self.final_residual_norm)


def _eval(F, x, what):
    """(F(x), max|F(x)|); a residual of the wrong size or shape or a non-finite entry raises."""
    r = np.asarray(F(np.asarray(x, dtype=float)), dtype=float)
    if r.size != x.size:
        raise ConfigurationError(
            "system is not square: %d equations for %d unknowns" % (r.size, x.size))
    if r.ndim > 1:
        raise ConfigurationError("residual has shape %s, expected (%d,)" % (r.shape, x.size))
    rnorm = float(np.maximum.reduce(np.abs(r)))
    if not math.isfinite(rnorm):
        comp = int(np.nonzero(~np.isfinite(r))[0][0])
        raise NumericEvaluationError(
            "%s produced a non-finite value" % what, component=comp)
    return r, rnorm


def fd_jacobian(F, x, fd_step=1e-7):
    """Forward-difference Jacobian: column i = (F(x + s_i e_i) - F(x)) / s_i.

    The step s_i = fd_step * (1 + |x_i|) keeps relative accuracy for large
    components without collapsing for small ones.
    """
    fd_step = _real("fd_step", fd_step, 0.0)
    x = np.asarray(x, dtype=float)
    f0 = _eval(F, x, "residual at base point")[0]
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        s = fd_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += s
        fi = _eval(F, xp, "residual at perturbed component %d" % i)[0]
        J[:, i] = (fi - f0) / s
    return J


def newton_solve(F, J, x0):
    """Damped Newton iteration for F(x) = 0 from x0; returns a SolveReport.

    J(x) returns the square Jacobian of F at x; a non-finite entry raises
    NumericEvaluationError (component = its row) and a wrong shape
    ConfigurationError, as for the residual.

    Accepted steps strictly decrease max|F|.  The report is converged iff
    max|F| <= 1e-10 or the equilibrated residual max_i |F_i| / s_i <= 1e-10,
    s_i being the largest |entry| of row i of the last Jacobian formed: a
    rounding floor in badly scaled rows passes, a stall away from a root
    fails.  The Newton step solves the row-equilibrated system.  An
    equilibrated kappa_1 beyond 1e14, or an all-zero row of J whatever its
    residual ("Jacobian row i vanishes", the first such i; condition inf, as
    for any exactly singular matrix), raises SingularJacobianError with the
    current iterate and the condition attached.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError("x0 must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("x0 must be finite")
    f, rnorm = _eval(F, x, "residual at initial guess")
    history = [rnorm]
    if rnorm <= _TOL_RESIDUAL:
        return SolveReport(x, True, history)
    for _ in range(_MAX_ITER):
        jac = np.asarray(J(x), dtype=float)
        if jac.shape != (x.size, x.size):
            raise ConfigurationError(
                "Jacobian has shape %s, expected (%d, %d)" % (jac.shape, x.size, x.size))
        # row equilibration in the max norm; a NaN or inf makes its row's max non-finite
        scale = np.maximum.reduce(np.abs(jac), axis=1)
        if not math.isfinite(np.maximum.reduce(scale)):
            raise NumericEvaluationError("Jacobian produced a non-finite value",
                                         component=int(np.nonzero(~np.isfinite(scale))[0][0]))
        if not np.minimum.reduce(scale):
            raise SingularJacobianError("Jacobian row %d vanishes" % int(np.argmin(scale)),
                                        iterate=x.copy(), condition=np.inf)
        Jeq = jac / scale[:, np.newaxis]
        feq = f / scale
        try:
            inv = np.linalg.inv(Jeq)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "linear solve failed: %s" % exc, iterate=x.copy(), condition=np.inf)
        # |A|_1 as np.linalg.norm(A, 1) reduces it: the largest column sum of |A|
        cond = float(np.maximum.reduce(np.add.reduce(np.abs(Jeq), 0))
                     * np.maximum.reduce(np.add.reduce(np.abs(inv), 0)))
        if not math.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularJacobianError(
                "equilibrated Jacobian condition %.3e exceeds %.1e" % (cond, _COND_LIMIT),
                iterate=x.copy(), condition=cond)
        correction = inv @ feq      # the Newton step is -correction
        # halving line search: accept the first damped step that decreases
        # max|F|; a trial that rounds to x ends it, as every later one does too
        lam = 1.0
        accepted = False
        here = x.tobytes()
        for _ in range(_MAX_HALVINGS + 1):
            trial = x - lam * correction
            if trial.tobytes() == here:
                break
            ft, tnorm = _eval(F, trial, "residual during line search")
            if tnorm < rnorm:
                x, f, rnorm = trial, ft, tnorm
                accepted = True
                break
            lam *= 0.5
        history.append(rnorm)
        if (not accepted or rnorm <= _TOL_RESIDUAL
                or lam * float(np.maximum.reduce(np.abs(correction))) <= _TOL_STEP):
            break
    converged = (rnorm <= _TOL_RESIDUAL
                 or float(np.maximum.reduce(np.abs(f) / scale)) <= _TOL_RESIDUAL)
    return SolveReport(x, converged, history)
