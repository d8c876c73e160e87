"""Cardinal sine translates composed with half-line maps, and their calculus.

A translate on the mesh is S(k, h)(phi) = sinc((phi - k h) / h).  Half-line
members precompose with a map phi = Phi(x) carrying (0, inf) onto R and are
multiplied by an algebraic boundary weight W(x):

    member_k(x) = W(x) * S(k, h)(Phi(x)).

Each map admits one weight, so the map alone names the family:

    LogSinh map  Phi = ln(sinh x)   with weight W = x / (1 + x^2)
    Log map      Phi = ln(eta)      with weight W = eta^3 / (1 + eta^3)

SincBasis.tables gives the derivatives of every member at any points x >= 0,
the collocation operators included, from chain_tables, the one route from
points to the map and its chain-rule coefficient tables.  The classical
differentiation matrices of the translates in the mapped variable
(delta_matrix), combined with those tables at the nodes, give the same nodal
derivatives; they are kept as the reference the tests check against.  The
chain-rule tables use reciprocal-power branch forms so that extreme points
(|j h| of order hundreds) underflow gracefully to zero instead of
producing inf/inf.
"""

import enum
import math

import numpy as np

from .core import (_as_points, _check_index, _check_order, _check_power, _count,
                   _finite_tables, _node_array, _readonly, _real)
from .errors import ConfigurationError, RangeOverflowError

_TAYLOR_RADIUS = 0.4      # switch point between closed forms and series
_NODE_EXP_LIMIT = 700.0   # |j h| beyond which nodes leave double range


# _SERIES[d, k]: coefficient of y^k in the Taylor series of sinc^(d) about
# 0, from sinc(y) = sum_m (-1)^m (pi y)^(2m) / (2m+1)!, truncated after m = 10
_SERIES = np.array([[(-1.0) ** ((k + d) // 2) * math.pi ** (k + d)
                     / ((k + d + 1) * math.factorial(k))
                     if (k + d) % 2 == 0 and k + d <= 20 else 0.0
                     for k in range(21)] for d in range(4)])


def sinc_derivatives(y, max_order=3):
    """Tuple (sinc(y), sinc'(y), ..., up to max_order) over an array y.

    Closed quotient forms away from zero; the series inside |y| <= 0.4,
    where the quotients lose digits to cancellation (order 3 by 5e-12 at
    0.055) and the truncated series still holds each order to 1e-15 pi^d.
    Each form runs on its own points only.
    """
    max_order = _check_order(max_order)
    y = np.asarray(y, dtype=float)
    vals = tuple(np.empty(y.shape) for _ in range(max_order + 1))
    near = np.abs(y) <= _TAYLOR_RADIUS
    # every order's series is formed, so no row's bits depend on max_order
    for v, series in zip(vals, _SERIES @ (y[near] ** np.arange(21)[:, np.newaxis])):
        v[near] = series
    far = ~near
    y = y[far]
    # pi y overflows from |y| = 5.7e307; beyond |y| = 1e300 every value is
    # below 1e-299 in size, and the sines of the clipped argument keep it so
    py = math.pi * np.clip(y, -1e300, 1e300)
    sp = np.sin(py)
    s = sp / py
    vals[0][far] = s
    if max_order == 0:
        return vals
    cp = np.cos(py)
    # (y sinc)^(m) = y sinc^(m) + m sinc^(m-1) = pi^(m-1) sin^(m)(pi y): each
    # order divides by y once and no power of y is formed, so no term
    # overflows however large |y| is
    tops = (cp, -math.pi * sp, -math.pi ** 2 * cp)
    for m in range(1, max_order + 1):
        s = (tops[m - 1] - m * s) / y
        vals[m][far] = s
    return vals


class SincMap(enum.Enum):
    LOG_SINH = "logsinh"    # weight x / (1 + x^2)
    LOG = "log"             # weight x^3 / (1 + x^3)


class SincBasis:
    """Descriptor for the weighted composite translate family.

    N           -- translate indices -N..N, dimension 2N+1
    h           -- mesh size in the mapped variable
    map_kind    -- SincMap.LOG_SINH or SincMap.LOG; the weight follows it
    """

    label = "sinc"
    seeded = True       # every member vanishes at the axis to every order
    slope_step = 1e-3   # its axis limit is logarithmic: f'(0) is read by differences

    def __init__(self, N, h, map_kind=SincMap.LOG_SINH):
        self.N = _count("N", N, 1)
        self.h = _real("mesh size h", h, 0.0)
        if not isinstance(map_kind, SincMap):
            raise ConfigurationError("map_kind must be a SincMap, got %r" % (map_kind,))
        self.map_kind = map_kind

    @property
    def dimension(self):
        return 2 * self.N + 1

    def tables(self, xs, max_order):
        """Derivatives 0..max_order of every member: shape (max_order+1, 2N+1, len(xs)).

        Row i holds translate k = i - N.  The m-th derivative of member k is
        sum_q A[m][q](x) S^(q)((Phi(x) - k h)/h) / h^q, with Phi and A from
        chain_tables.  At x = 0 every order gives the continuous-extension
        limit 0 (the boundary weight's algebraic zero wins against the map
        divergence).  An entry that is not finite raises RangeOverflowError:
        under LogSinh, where the weight's zero meets the map's pole, orders
        1, 2 and 3 below about x = 1e-308, 1e-154 and 1e-102.
        """
        M = _check_order(max_order)
        h = self.h
        _check_power("h", h, M)
        k = np.arange(-self.N, self.N + 1)[:, np.newaxis]
        # once |Phi| / h passes the largest double the argument rounds to +-inf,
        # where sinc_derivatives takes the limits: a value below 1e-299 in
        # size, derivatives 0.  Clipping Phi instead would change finite
        # values on very fine meshes (h = 1e-300).
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # refused below
            live, phi, A = chain_tables(self, xs, M)
            out = np.zeros((M + 1, self.dimension, live.size))
            s = sinc_derivatives((phi - k * h) / h, M)
            for m in range(M + 1):
                out[m][:, live] = sum(A[m][q] * s[q] / h ** q for q in range(m + 1))
        return _finite_tables(self, out)

    # perfbench looks this up; drop it when the harness next changes
    def member(self, i, x, order=0):
        return float(self.tables([x], order)[order, _check_index(i, self.dimension), 0])

    def nodes(self):
        return sinc_nodes(self)

    def __repr__(self):
        return "SincBasis(N=%d, h=%g, %s)" % (self.N, self.h, self.map_kind.value)


def delta_matrix(basis, order):
    """Read-only delta^(order) on the 2N+1 mesh points: [k, j] = S(k,h)^(order)(j h).

    order 0: identity
    order 1: (1/h)   (-1)^(j-k) / (j-k)              off-diagonal, 0 diagonal
    order 2: (1/h^2) (-2 (-1)^(j-k) / (j-k)^2)       off-diagonal, -pi^2/(3 h^2) diagonal
    order 3: (1/h^3) (-1)^(j-k) (6/(j-k)^3 - pi^2/(j-k)) off-diagonal, 0 diagonal

    Only this order is formed.  With chain_tables it gives nodal derivatives
    by the classical route, the tests' reference for SincBasis.tables.
    """
    order = _check_order(order)
    n = basis.dimension
    h = basis.h
    _check_power("h", h, order)
    if order == 0:
        return _readonly(np.eye(n))
    idx = np.arange(n)
    d = idx[np.newaxis, :] - idx[:, np.newaxis]        # d[k, j] = j - k
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    dd = np.where(d == 0, 1, d).astype(float)          # dummy 1 on the diagonal
    if order == 1:
        ent = sign / (h * dd)
    elif order == 2:
        ent = -2.0 * sign / (h * h * dd * dd)
    else:
        ent = sign * (6.0 / dd ** 3 - math.pi ** 2 / dd) / h ** 3
    np.fill_diagonal(ent, -math.pi ** 2 / (3.0 * h * h) if order == 2 else 0.0)
    return _readonly(ent)


def _asinh_exp(t):
    """ln(e^t + sqrt(1 + e^(2t))) = asinh(e^t) over an array t, stable for any |t| <= 700."""
    out = np.empty(t.shape)
    pos = t > 0
    out[pos] = t[pos] + np.log(1.0 + np.sqrt(1.0 + np.exp(-2.0 * t[pos])))
    u = np.exp(t[~pos])
    out[~pos] = np.log1p(u + u * u / (1.0 + np.sqrt(1.0 + u * u)))
    return out


def sinc_nodes(basis):
    """Inverse images of the mesh points j h under the configured map, ascending."""
    js = np.arange(-basis.N, basis.N + 1)
    ts = js * basis.h
    if np.any(np.abs(ts) > _NODE_EXP_LIMIT):
        raise RangeOverflowError(
            "|j h| up to %g exceeds %g; nodes leave double range"
            % (np.abs(ts).max(), _NODE_EXP_LIMIT))
    if basis.map_kind is SincMap.LOG_SINH:
        nodes = _asinh_exp(ts)
    else:
        nodes = np.exp(ts)
    return _node_array(nodes)


# ---------------------------------------------------------------------------
# chain-rule tables (over 1-D arrays of x > 0)


def _logsinh_derivs(x):
    """(Phi, Phi', Phi'', Phi''') for Phi = ln(sinh x)."""
    phi = np.empty(x.shape)
    near = x < 20.0
    phi[near] = np.log(np.sinh(x[near]))
    far = x[~near]
    # e^{-far} squared underflows to 0 where e^{-2 far} would first overflow
    phi[~near] = far - math.log(2.0) + np.log1p(-np.exp(-far) ** 2)
    p1 = 1.0 / np.tanh(x)
    csch2 = np.zeros(x.shape)                  # underflows to 0 from x = 350
    near = x < 350.0
    csch2[near] = 1.0 / np.sinh(x[near]) ** 2
    return phi, p1, -csch2, 2.0 * p1 * csch2


def _rational_x_derivs(x):
    """W = x/(1+x^2) and derivatives through order 3, overflow-safe; rows 0..3.

    Reciprocal powers d = 1/x for x > 1, each form on its own points, so
    the far field underflows to zero.
    """
    out = np.empty((4,) + x.shape)
    near = x <= 1.0
    t = x[near]
    q = 1.0 + t * t
    out[:, near] = (t / q,
                    (1.0 - t * t) / q ** 2,
                    (2.0 * t ** 3 - 6.0 * t) / q ** 3,
                    (-6.0 * t ** 4 + 36.0 * t * t - 6.0) / q ** 4)
    d = 1.0 / x[~near]
    q = 1.0 + d * d
    out[:, ~near] = (d / q,
                     (d ** 4 - d * d) / q ** 2,
                     (2.0 * d ** 3 - 6.0 * d ** 5) / q ** 3,
                     (-6.0 * d ** 8 + 36.0 * d ** 6 - 6.0 * d ** 4) / q ** 4)
    return out


def _logsinh_chain(x, max_order):
    """Phi = ln(sinh x) at x, and the tables A[m][q] of W = x/(1+x^2) under it."""
    phi, p1, p2, p3 = _logsinh_derivs(x)
    W = _rational_x_derivs(x)
    A = [[W[0]]]
    if max_order >= 1:
        A.append([W[1], W[0] * p1])
    if max_order >= 2:
        A.append([W[2], 2.0 * W[1] * p1 + W[0] * p2, W[0] * p1 * p1])
    if max_order >= 3:
        A.append([W[3],
                  3.0 * W[2] * p1 + 3.0 * W[1] * p2 + W[0] * p3,
                  3.0 * W[1] * p1 * p1 + 3.0 * W[0] * p1 * p2,
                  W[0] * p1 ** 3])
    return phi, A


def _log_chain(eta, max_order):
    """Tables A[m][q] of W = eta^3/(1+eta^3) under Phi = ln(eta), at eta > 0.

    Every entry is written through p = 1/(1 + eta^3) and powers of eta
    (eta <= 1) or of d = 1/eta (eta > 1), so no entry multiplies an
    underflowed weight by an overflowed map derivative: all are finite for
    every representable eta, and far-field entries underflow to exact zeros.
    """
    small = eta <= 1.0
    e = eta[small]
    d = 1.0 / eta[~small]
    r = d ** 3

    def table(on_small, on_big):
        out = np.empty(eta.shape)
        out[small] = on_small
        out[~small] = on_big
        return out

    p = table(1.0 / (1.0 + e ** 3), r / (1.0 + r))
    ps = p[small]
    etap = table(e * ps, d * d / (1.0 + r))              # eta p
    A = [[table(e ** 3 * ps, 1.0 / (1.0 + r))]]
    if max_order >= 1:
        W1 = table(3.0 * e * e * ps ** 2, 3.0 * d ** 4 / (1.0 + r) ** 2)
        eta2p = table(e * e * ps, d / (1.0 + r))         # eta^2 p = W Phi'
        A.append([W1, eta2p])
    if max_order >= 2:
        W2 = table((6.0 * e - 12.0 * e ** 4) * ps ** 3,
                   (6.0 * d ** 8 - 12.0 * d ** 5) / (1.0 + r) ** 3)
        A.append([W2, etap * (6.0 * p - 1.0), etap])
    if max_order >= 3:
        W3 = table((6.0 - 96.0 * e ** 3 + 60.0 * e ** 6) * ps ** 4,
                   (6.0 * d ** 12 - 96.0 * d ** 9 + 60.0 * d ** 6) / (1.0 + r) ** 4)
        A31 = 18.0 * p ** 3 - 36.0 * etap ** 3 - 9.0 * p * p + 2.0 * p
        A.append([W3, A31, 9.0 * p * p - 3.0 * p, p])
    return A


def chain_tables(basis, xs, max_order):
    """(live, Phi, A): the mask of the points xs > 0 (at the axis every order is
    the limit 0), and on them the map Phi and the chain-rule arrays A[m][q]
    of the weight W it implies, (W S(Phi))^(m) = sum_q A[m][q] S^(q)(Phi).

    SincBasis.tables reads them.  At the basis's own nodes x_j, all live, an
    expansion u(x) = sum_k c_k W(x) S(k,h)(Phi(x)) has the derivatives

        u^(m)(x_j) = sum_{q=0}^{m} A[m][q][j] * (delta^(q)^T c)[j]

    with delta^(q) = delta_matrix(basis, q): the classical route, kept as
    the tests' reference for the nodal tables.
    """
    max_order = _check_order(max_order)
    xs = _as_points(xs).reshape(-1)
    live = xs > 0.0
    x = xs[live]
    if basis.map_kind is SincMap.LOG_SINH:
        return (live, *_logsinh_chain(x, max_order))
    return live, np.log(x), _log_chain(x, max_order)
