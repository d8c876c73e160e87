"""Normalized Hermite functions and their log-mapped transplant onto [0, inf).

The line family is

    G_0(t) = exp(-t^2 / 2),   G_1(t) = sqrt(2) t exp(-t^2 / 2),
    G_{n+1}(t) = t sqrt(2/(n+1)) G_n(t) - sqrt(n/(n+1)) G_{n-1}(t),

orthogonal on R with constant sqrt(pi).  The half-line member is
G_n(ln(x) / k); near x = 0 the Gaussian factor crushes every derivative to
zero, so the mapped family carries no boundary information at the origin.
"""

import math

import numpy as np

from .core import (_as_points, _check_index, _check_order, _check_power, _count,
                   _finite_tables, _node_array, _readonly, _real, _tridiagonal_roots)


def _line_tables(nmax, t, max_order):
    """Values and t-derivatives of G_0..G_nmax over an array t.

    Returns a list D with D[m][n] = G_n^(m)(t), each of shape
    (nmax+1,) + t.shape, for m = 0..max_order.  The derivative recurrence
    G_n' = sqrt(2n) G_{n-1} - t G_n differentiates into one extra -G term
    per order.
    """
    t = np.asarray(t, dtype=float)
    g = np.empty((nmax + 1,) + t.shape)
    g[0] = np.exp(-0.5 * t * t)
    if nmax >= 1:
        g[1] = math.sqrt(2.0) * t * g[0]
    for n in range(1, nmax):
        g[n + 1] = t * math.sqrt(2.0 / (n + 1)) * g[n] - math.sqrt(n / (n + 1.0)) * g[n - 1]
    D = [g]
    root = np.sqrt(2.0 * np.arange(nmax + 1)).reshape((-1,) + (1,) * t.ndim)
    for m in range(1, max_order + 1):
        prev = D[m - 1]
        shifted = np.zeros_like(prev)
        shifted[1:] = prev[:-1]
        cur = root * shifted - t * prev
        if m >= 2:
            cur -= (m - 1) * D[m - 2]
        D.append(cur)
    return D


class HermiteBasis:
    """Descriptor for the log-mapped Hermite family.

    N -- top index; members 0..N, dimension N+1
    k -- map constant in t = ln(x) / k  (k > 0)
    """

    label = "hermite"

    def __init__(self, N, k=1.0):
        self.N = _count("N", N, 1)
        self.k = _real("map constant k", k, 0.0)

    @property
    def dimension(self):
        return self.N + 1

    def tables(self, xs, max_order):
        """Derivatives 0..max_order of every member: shape (max_order+1, N+1, len(xs)).

        One set of line tables at t = ln(x)/k is chained with the map
        derivatives 1/(k x), -1/(k x^2) and 2/(k x^3), each formed only for an
        order asked for.  At x = 0 every order is the limit 0: the Gaussian
        factor decays faster than any power of the map derivatives grows.  Where
        it underflows (|ln x| beyond about 38.6 k) every line table is 0 and the
        map derivatives are formed at x = 1; far out at large k, where k x^2 or
        k x^3 overflows, they are 0.  An entry that is not finite (near the axis
        at large k) raises RangeOverflowError.
        """
        M = _check_order(max_order)
        _check_power("k", self.k, M, bounded=False)
        xs = _as_points(xs).reshape(-1)
        out = np.zeros((M + 1, self.N + 1, xs.size))
        live = xs > 0.0
        x, k = xs[live], self.k
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):    # refused below
            D = _line_tables(self.N, np.log(x) / k, M)
            x = np.where(D[0][0] > 0.0, x, 1.0)
            p, kx = [], k
            for c in (1.0, -1.0, 2.0)[:M]:
                kx = kx * x             # inf far out, where c / kx is then 0
                p.append(c / kx)
            p1, p2, p3 = p + [None] * (3 - M)
            out[0][:, live] = D[0]
            if M >= 1:
                out[1][:, live] = D[1] * p1
            if M >= 2:
                out[2][:, live] = D[2] * p1 * p1 + D[1] * p2
            if M >= 3:
                out[3][:, live] = D[3] * p1 ** 3 + 3.0 * D[2] * p1 * p2 + D[1] * p3
        return _finite_tables(self, out)

    # perfbench looks this up; drop it when the harness next changes
    def member(self, i, x, order=0):
        return float(self.tables([x], order)[order, _check_index(i, self.N + 1), 0])

    def nodes(self):
        return hermite_nodes(self)

    def __repr__(self):
        return "HermiteBasis(N=%d, k=%g)" % (self.N, self.k)


# perfbench looks this up; drop it when the harness next changes
def hermite_matrix(basis, xs, order=0):
    return basis.tables(xs, order)[order]


def hermite_line_nodes(N):
    """Roots of G_{N+1} (equivalently the Hermite polynomial H_{N+1}), ascending."""
    N = _count("N", N, 0)
    return _tridiagonal_roots(
        np.zeros(N + 1), np.sqrt(0.5 * np.arange(1, N + 1)),
        lambda t: _line_tables(N + 1, t, 0)[0][N + 1],
        lambda t: _line_tables(N + 1, t, 1)[1][N + 1], "Hermite")


def hermite_nodes(basis):
    """The N+1 half-line collocation points exp(k * t_j), ascending."""
    t = hermite_line_nodes(basis.N)
    with np.errstate(over="ignore"):        # inf past the double range, refused
        return _node_array(np.exp(basis.k * t))


def mapped_trapezoid_rule(basis):
    """The rule (nodes, weights), read-only arrays: the trapezoid rule in
    t = ln(x)/k over [-8, 8] at step 0.05, folded to x-space.

    The t measure dx/(k x) is absorbed into the weights, so plain nodal
    sums approximate integral u(x) v(x) / (k x) dx.  Used by property tests
    (orthogonality, projection); the solver path never needs it.
    """
    t = -8.0 + 0.05 * np.arange(321)
    w = np.full(321, 0.05)
    w[0] = w[-1] = 0.025
    with np.errstate(over="ignore"):        # inf past the double range, refused
        return _node_array(np.exp(basis.k * t)), _readonly(w)
