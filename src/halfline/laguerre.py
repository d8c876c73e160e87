"""Generalized Laguerre polynomials and the decaying trial family built on them.

The trial family on [0, inf) is

    phi_j(x) = exp(-x / 2L) * L_j^1(x / L),    L > 0,  j = 0..N-1,

i.e. generalized Laguerre polynomials with parameter 1, scaled by L and
damped by a half-exponential so every member decays at infinity.
Collocation nodes are the N roots of L_N^alpha(x / L), a read-only array;
at alpha = 1 the companion quadrature weights make the nodal inner product
reproduce the family's orthogonality constants Gamma(n+2) / (L^2 n!)
exactly for degrees < N, and quadrature() returns the rule as the pair
(nodes, weights).

The alpha parameter moves only the nodes; the trial members themselves are
always the parameter-1 family.
"""

import math

import numpy as np

from .core import (_as_points, _check_index, _check_order, _check_power, _count,
                   _finite_tables, _node_array, _readonly, _real, _tridiagonal_roots)
from .errors import ConfigurationError, NodeComputationError


def laguerre_table(nmax, alpha, y):
    """Stacked values L_0^alpha(y) .. L_nmax^alpha(y) by the upward three-term
    recurrence, shape (nmax+1,) + the broadcast shape of alpha and y.

    An array of alphas runs the recurrence for all of them in one pass.
    """
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty((nmax + 1,) + np.broadcast_shapes(alpha.shape, y.shape))
    n = np.arange(nmax + 1).reshape((-1,) + (1,) * alpha.ndim)
    a, b = 2 * n - 1 + alpha, n + alpha - 1     # each row's recurrence coefficients
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 1.0 + alpha - y
    for m in range(2, nmax + 1):
        out[m] = ((a[m] - y) * out[m - 1] - b[m] * out[m - 2]) / m
    return out


class LaguerreBasis:
    """Descriptor for the decaying Laguerre trial family.

    N      -- number of members, indices 0..N-1
    alpha  -- node-placement parameter of L_N^alpha (> -1)
    L      -- length scale (> 0)
    """

    label = "laguerre"
    seeded = False      # the axis conditions are rows of its systems
    slope_step = None

    def __init__(self, N, alpha=1.0, L=1.0):
        self.N = _count("N", N, 1)
        self.alpha = _real("alpha", alpha, -1.0)
        self.L = _real("scale L", L, 0.0)

    @property
    def dimension(self):
        return self.N

    def tables(self, xs, max_order):
        """Values phi_j^(m)(x_i) for m = 0..max_order, shape (max_order+1, N, len(xs)).

        Leibniz over the damping factor and the shifted polynomial part
        d^q/dx^q L_j^1(x/L) = (-1/L)^q L_{j-q}^(1+q)(x/L), from one recurrence
        table tables[n, q] = L_n^(1+q)(x/L) for every shift q <= max_order, at
        the points of positive damping (0 elsewhere); overflow raises RangeOverflowError.
        """
        M = _check_order(max_order)
        _check_power("L", self.L, M, bounded=False)
        xs = _as_points(xs).reshape(-1)
        with np.errstate(over="ignore"):               # y = inf past the largest double
            y = xs / self.L
        damp = np.exp(-0.5 * y)
        live = damp > 0.0
        N, y = self.N, y[live]
        part = np.zeros((M + 1, N, y.size))
        with np.errstate(over="ignore", invalid="ignore"):     # refused below
            tables = laguerre_table(N - 1, 1.0 + np.arange(M + 1)[:, np.newaxis], y)
            for m in range(M + 1):
                for q in range(min(m, N - 1), -1, -1):
                    c = math.comb(m, q) * (-0.5 / self.L) ** (m - q) * (-1.0 / self.L) ** q
                    part[m, q:] += c * tables[:N - q, q]
        out = np.zeros((M + 1, N, xs.size))
        out[:, :, live] = part * damp[live]
        return _finite_tables(self, out)

    # perfbench looks this up; drop it when the harness next changes
    def member(self, i, x, order=0):
        return float(self.tables([x], order)[order, _check_index(i, self.N), 0])

    def nodes(self):
        return laguerre_nodes(self)

    def quadrature(self):
        """The rule (nodes, weights), read-only arrays: Radau-type weights paired
        with the basis's parameter-1 node set.

        w_j = x_j * Gamma(N+2) / (L^3 * N! * [(N+1) * phi_{N+1}(x_j)]^2)

        These make the nodal inner product reproduce the continuous constants
        <phi_m, phi_n> = Gamma(n+2)/(L^2 n!) * delta_mn for all m, n < N.
        Only alpha = 1 is supported: the weight formula belongs to the phi
        family, which fixes the parameter.  Weights that leave the double range
        (L^3 overflows or underflows) raise NodeComputationError.
        """
        if self.alpha != 1.0:
            raise ConfigurationError("quadrature weights are defined only for "
                                     "alpha = 1, got alpha=%g" % self.alpha)
        x, N, L = self.nodes(), self.N, np.float64(self.L)
        # Gamma(N+2)/N! = N+1
        phi_next = np.exp(-0.5 * x / L) * laguerre_table(N + 1, 1.0, x / L)[N + 1]
        with np.errstate(all="ignore"):
            w = x * (N + 1.0) / (L ** 3 * ((N + 1.0) * phi_next) ** 2)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise NodeComputationError("quadrature weights must be positive and finite")
        return x, _readonly(w)

    def __repr__(self):
        return "LaguerreBasis(N=%d, alpha=%g, L=%g)" % (self.N, self.alpha, self.L)


# perfbench looks this up; drop it when the harness next changes
def mglf_matrix(basis, xs, order=0):
    return basis.tables(xs, order)[order]


def laguerre_nodes(basis):
    """The N roots of L_N^alpha(x / L), ascending, Newton-polished.

    Roots come from the symmetric tridiagonal (Jacobi) matrix of the
    recurrence -- diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha)) --
    then each eigenvalue gets Newton polish steps using the exact derivative
    -L_{N-1}^{alpha+1}.  The acceptance check is on the exponentially damped
    member value e^(-y/2) L_N^alpha(y) <= 1e-9: the raw polynomial's
    floating-point noise grows like e^(+y/2) near the far roots, so for
    moderate N the raw value cannot be driven to a small absolute level at
    any argument, while the damped value (the quantity the basis actually
    uses) can, at every N in scope.  The derivative carries the same
    damping, which cancels from the step.
    """
    N, alpha = basis.N, basis.alpha
    k = np.arange(1, N)
    y = _tridiagonal_roots(
        2.0 * np.arange(N) + alpha + 1.0, np.sqrt(k * (k + alpha)),
        lambda y: np.exp(-0.5 * y) * laguerre_table(N, alpha, y)[N],
        lambda y: -np.exp(-0.5 * y) * laguerre_table(N - 1, alpha + 1, y)[N - 1],
        "Laguerre")
    with np.errstate(over="ignore"):        # inf past the double range, refused
        return _node_array(basis.L * y)
