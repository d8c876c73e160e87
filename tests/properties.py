"""Property measurements shared by the unit suites and acceptance criterion 10.

Each function measures one rule of a basis family or of the solver on the
caller's basis, evaluator and points, and returns the worst error it saw; the
caller holds the bound.  None is a test, so pytest collects nothing here.
"""

import math

import numpy as np

from halfline.hermite import mapped_trapezoid_rule
from halfline.newton import fd_jacobian, newton_solve
from halfline.sinc import delta_matrix


def laguerre_gram_error(basis):
    """Worst |<phi_m, phi_n> - Gamma(n+2)/(L^2 n!) delta_mn| under the basis's Radau
    rule, relative to Gamma(n+2)/(L^2 n!)."""
    nodes, weights = basis.quadrature()
    phi = basis.tables(nodes, 0)[0]
    gram = phi @ (weights[:, None] * phi.T)
    L = basis.L
    scale = np.array([math.gamma(n + 2) / (L * L * math.factorial(n))
                      for n in range(basis.N)])
    return float(np.max(np.abs(gram - np.diag(scale)) / scale))


def hermite_gram_error(basis):
    """Worst |<G_m, G_n> - sqrt(pi) delta_mn| under the mapped trapezoid rule, whose
    weights absorb the 1/(k x) measure of the map."""
    nodes, w = mapped_trapezoid_rule(basis)
    phi = basis.tables(nodes, 0)[0]
    gram = phi @ (w[:, None] * phi.T)
    return float(np.max(np.abs(gram - math.sqrt(math.pi) * np.eye(basis.dimension))))


def _sinc(t):
    return 1.0 if t == 0.0 else math.sin(math.pi * t) / (math.pi * t)


# fourth-order centred stencils: order -> (step s, denominator / s^order,
# {offset in steps: weight}); second-order ones leave ~7e-7 truncation
_STENCILS = {1: (1e-3, 12, {2: -1, 1: 8, -1: -8, -2: 1}),
             2: (1e-3, 12, {2: -1, 1: 16, 0: -30, -1: 16, -2: -1}),
             3: (1e-2, 8, {3: -1, 2: 8, 1: -13, -1: 13, -2: -8, -3: 1})}


def delta_stencil_pairs(basis, m):
    """(entries, differences): delta^(m)[k + N, j + N] and the stencil of order m applied
    to translate k, sinc((phi - k h) / h), at phi = j h, for k and j in -N..N."""
    s, den, weights = _STENCILS[m]
    N, h = basis.N, basis.h
    fd = [[sum(w * _sinc((j * h + o * s - k * h) / h) for o, w in weights.items())
           / (den * s**m) for j in range(-N, N + 1)] for k in range(-N, N + 1)]
    return delta_matrix(basis, m), np.array(fd)


def difference_error(f, x, s, orders=(1, 2, 3)):
    """Worst |f(x, m) - (f(x + s, m - 1) - f(x - s, m - 1)) / 2s| over the orders m, for
    an evaluator f(points, order): each order against the one below it."""
    return max(float(np.max(np.abs(f(x, m) - (f(x + s, m - 1) - f(x - s, m - 1)) / (2 * s))))
               for m in orders)


def direct_difference_error(f, x):
    """Worst error of orders 1-3 of f(points, order) against differences of order 0:
    central ones at steps 1e-6 and 1e-4, and for order 3 the five-point stencil
    Richardson-extrapolated from steps 2e-3 and 1e-3 (a plain third difference of
    the Laguerre members cannot reach 1e-5 in double precision)."""
    def third(s):
        return (f(x + 2 * s, 0) - 2 * f(x + s, 0) + 2 * f(x - s, 0)
                - f(x - 2 * s, 0)) / (2 * s**3)
    fds = ((f(x + 1e-6, 0) - f(x - 1e-6, 0)) / 2e-6,
           (f(x + 1e-4, 0) - 2 * f(x, 0) + f(x - 1e-4, 0)) / 1e-8,
           (4 * third(1e-3) - third(2e-3)) / 3)
    return max(float(np.max(np.abs(f(x, m) - fd))) for m, fd in enumerate(fds, 1))


def newton_contraction():
    """Worst |F_{k+1}| / |F_k|^2 of Newton on x^2 - 4 from 3, with forward-difference
    Jacobians, over the steps from 1e-8 < |F_k| < 1 (the limit is 1/16); inf if
    fewer than two steps start there or a nonzero residual fails to fall."""
    F = lambda v: np.array([v[0] ** 2 - 4.0])
    h = newton_solve(F, lambda v: fd_jacobian(F, v), np.array([3.0])).history
    ratios = [b / (a * a) for a, b in zip(h, h[1:]) if 1e-8 < a < 1.0]
    if len(ratios) < 2 or any(b >= a for a, b in zip(h, h[1:]) if a > 0):
        return math.inf
    return max(ratios)
