"""Cardinal sine translates composed with half-line maps, and their calculus.

A translate on the mesh is S(k, h)(phi) = sinc((phi - k h) / h).  Half-line
members precompose with a map phi = Phi(x) carrying (0, inf) onto R and are
multiplied by an algebraic boundary weight W(x):

    member_k(x) = W(x) * S(k, h)(Phi(x)).

Two pairings are supported:

    LogSinh map  Phi = ln(sinh x)   with weight W = x / (1 + x^2)
    Log map      Phi = ln(eta)      with weight W = eta^3 / (1 + eta^3)

Nodal derivatives of full expansions use the classical differentiation
matrices delta^(0)..delta^(3) of the translates in the mapped variable,
combined with chain-rule coefficient tables evaluated once per node.  The
tables use reciprocal-power branch forms so that extreme nodes (|j h| of
order hundreds) underflow gracefully to zero instead of producing inf/inf.
"""

import enum
import math

import numpy as np

from .core import CollocationGrid, _as_points, _check_index, _check_order
from .errors import ConfigurationError, RangeOverflowError

_LOGSINH_CUTOFF = 1e-10   # below this x the weight zero dominates every order
_TAYLOR_RADIUS = 0.05     # switch point between closed forms and series
_NODE_EXP_LIMIT = 700.0   # |j h| beyond which nodes leave double range


def sinc(x):
    """sin(pi x) / (pi x) with the removable singularity filled.

    |x| < 1e-8 uses the two-term series 1 - (pi x)^2 / 6, which agrees with
    the quotient to full precision there.
    """
    x = float(x)
    if abs(x) < 1e-8:
        return 1.0 - (math.pi * x) ** 2 / 6.0
    return math.sin(math.pi * x) / (math.pi * x)


# _SERIES[d, k]: coefficient of y^k in the Taylor series of sinc^(d) about
# 0, from sinc(y) = sum_m (-1)^m (pi y)^(2m) / (2m+1)!, truncated after m = 10
_SERIES = np.array([[(-1.0) ** ((k + d) // 2) * math.pi ** (k + d)
                     / ((k + d + 1) * math.factorial(k))
                     if (k + d) % 2 == 0 and k + d <= 20 else 0.0
                     for k in range(21)] for d in range(4)])


def _sinc_derivs_series(y, max_order):
    """Derivatives 0..max_order of sinc at small |y|, rows of (max_order+1, len(y))."""
    return _SERIES[:max_order + 1] @ (y ** np.arange(21)[:, np.newaxis])


def sinc_derivatives(y, max_order=3):
    """Tuple (sinc(y), sinc'(y), ..., up to max_order) over an array y.

    Closed quotient forms away from zero; the series inside |y| <= 0.05
    where the quotients lose digits to cancellation.  Each form runs on
    its own points only.
    """
    max_order = _check_order(max_order)
    y = np.asarray(y, dtype=float)
    vals = tuple(np.empty(y.shape) for _ in range(max_order + 1))
    near = np.abs(y) <= _TAYLOR_RADIUS
    for v, series in zip(vals, _sinc_derivs_series(y[near], max_order)):
        v[near] = series
    far = ~near
    y = y[far]
    py = math.pi * y
    sp = np.sin(py)
    vals[0][far] = sp / py
    if max_order == 0:
        return vals
    cp = np.cos(py)
    y2 = y * y                          # products: array powers are far slower
    y3 = y2 * y
    vals[1][far] = cp / y - sp / (math.pi * y2)
    if max_order >= 2:
        vals[2][far] = -math.pi * sp / y - 2.0 * cp / y2 + 2.0 * sp / (math.pi * y3)
    if max_order >= 3:
        vals[3][far] = (-math.pi ** 2 * cp / y + 3.0 * math.pi * sp / y2
                        + 6.0 * cp / y3 - 6.0 * sp / (math.pi * y2 * y2))
    return vals


class SincMap(enum.Enum):
    LOG_SINH = "logsinh"
    LOG = "log"


class SincWeight(enum.Enum):
    RATIONAL_X = "rational-x"
    RATIONAL_X3 = "rational-x3"


_VALID_PAIRS = {
    (SincMap.LOG_SINH, SincWeight.RATIONAL_X),
    (SincMap.LOG, SincWeight.RATIONAL_X3),
}


class SincBasis:
    """Descriptor for the weighted composite translate family.

    N           -- translate indices -N..N, dimension 2N+1
    h           -- mesh size in the mapped variable
    map_kind    -- SincMap.LOG_SINH or SincMap.LOG
    weight_kind -- SincWeight.RATIONAL_X or SincWeight.RATIONAL_X3
    """

    def __init__(self, N, h, map_kind=SincMap.LOG_SINH, weight_kind=SincWeight.RATIONAL_X):
        if not isinstance(N, (int, np.integer)) or N < 1:
            raise ConfigurationError("N must be an integer >= 1, got %r" % (N,))
        if not (h > 0):
            raise ConfigurationError("mesh size h must be positive, got %r" % (h,))
        if (map_kind, weight_kind) not in _VALID_PAIRS:
            raise ConfigurationError(
                "map %s pairs with %s only" % (map_kind, _partner(map_kind)))
        self.N = int(N)
        self.h = float(h)
        self.map_kind = map_kind
        self.weight_kind = weight_kind

    @property
    def dimension(self):
        return 2 * self.N + 1

    def matrix(self, xs, order=0):
        return composite_matrix(self, xs, order)

    def member(self, i, x, order=0):
        return float(self.matrix([x], order)[_check_index(i, self.dimension), 0])

    def nodes(self):
        return sinc_nodes(self)

    def __repr__(self):
        return "SincBasis(N=%d, h=%g, %s, %s)" % (
            self.N, self.h, self.map_kind.value, self.weight_kind.value)


def _partner(map_kind):
    return SincWeight.RATIONAL_X if map_kind is SincMap.LOG_SINH else SincWeight.RATIONAL_X3


class DeltaMatrix:
    """Nodal derivative matrix of the translates: entries[k, j] = S(k,h)^(order)(j h)."""

    def __init__(self, order, h, entries):
        self.order = order
        self.h = h
        entries = np.asarray(entries, dtype=float).copy()
        entries.setflags(write=False)
        self.entries = entries


def delta_matrix(basis, order):
    """Differentiation matrix delta^(order) on the 2N+1 mesh points.

    order 0: identity
    order 1: (1/h)   (-1)^(j-k) / (j-k)              off-diagonal, 0 diagonal
    order 2: (1/h^2) (-2 (-1)^(j-k) / (j-k)^2)       off-diagonal, -pi^2/(3 h^2) diagonal
    order 3: (1/h^3) (-1)^(j-k) (6/(j-k)^3 - pi^2/(j-k)) off-diagonal, 0 diagonal
    """
    m = _check_order(order)
    n = basis.dimension
    h = basis.h
    idx = np.arange(n)
    d = idx[np.newaxis, :] - idx[:, np.newaxis]        # d[k, j] = j - k
    if m == 0:
        return DeltaMatrix(0, h, np.eye(n))
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    dd = np.where(d == 0, 1, d).astype(float)          # dummy 1 on the diagonal
    if m == 1:
        ent = sign / (h * dd)
        np.fill_diagonal(ent, 0.0)
    elif m == 2:
        ent = -2.0 * sign / (h * h * dd * dd)
        np.fill_diagonal(ent, -math.pi ** 2 / (3.0 * h * h))
    else:
        ent = sign * (6.0 / dd ** 3 - math.pi ** 2 / dd) / h ** 3
        np.fill_diagonal(ent, 0.0)
    return DeltaMatrix(m, h, ent)


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
    return CollocationGrid(nodes)


# ---------------------------------------------------------------------------
# map derivatives (over 1-D arrays of x > 0)


def _logsinh_derivs(x):
    """(Phi, Phi', Phi'', Phi''') for Phi = ln(sinh x)."""
    phi = np.empty(x.shape)
    near = x < 20.0
    phi[near] = np.log(np.sinh(x[near]))
    far = x[~near]
    phi[~near] = far - math.log(2.0) + np.log1p(-np.exp(-2.0 * far))
    p1 = 1.0 / np.tanh(x)
    csch2 = np.zeros(x.shape)                  # underflows to 0 from x = 350
    near = x < 350.0
    csch2[near] = 1.0 / np.sinh(x[near]) ** 2
    return phi, p1, -csch2, 2.0 * p1 * csch2


def _log_derivs(x):
    """(Phi, Phi', Phi'', Phi''') for Phi = ln x."""
    p1 = 1.0 / x
    return np.log(x), p1, -p1 * p1, 2.0 * p1 ** 3


# ---------------------------------------------------------------------------
# weight derivatives (branch forms: reciprocal powers for the far field)


def _branches(x, inner, outer):
    """Rows inner(x) where x <= 1 and outer(1/x) elsewhere, each on its own subset."""
    out = np.empty((4,) + x.shape)
    near = x <= 1.0
    out[:, near] = inner(x[near])
    out[:, ~near] = outer(1.0 / x[~near])
    return out


def _rational_x_derivs(x):
    """W = x/(1+x^2) and derivatives through order 3, overflow-safe; rows 0..3."""
    def inner(x):
        q = 1.0 + x * x
        return (x / q,
                (1.0 - x * x) / q ** 2,
                (2.0 * x ** 3 - 6.0 * x) / q ** 3,
                (-6.0 * x ** 4 + 36.0 * x * x - 6.0) / q ** 4)

    def outer(d):
        q = 1.0 + d * d
        return (d / q,
                (d ** 4 - d * d) / q ** 2,
                (2.0 * d ** 3 - 6.0 * d ** 5) / q ** 3,
                (-6.0 * d ** 8 + 36.0 * d ** 6 - 6.0 * d ** 4) / q ** 4)
    return _branches(x, inner, outer)


def _rational_x3_derivs(x):
    """W = x^3/(1+x^3) and derivatives through order 3, overflow-safe; rows 0..3."""
    def inner(x):
        q = 1.0 + x ** 3
        return (x ** 3 / q,
                3.0 * x * x / q ** 2,
                (6.0 * x - 12.0 * x ** 4) / q ** 3,
                (6.0 - 96.0 * x ** 3 + 60.0 * x ** 6) / q ** 4)

    def outer(d):
        q = 1.0 + d ** 3
        return (1.0 / q,
                3.0 * d ** 4 / q ** 2,
                (6.0 * d ** 8 - 12.0 * d ** 5) / q ** 3,
                (6.0 * d ** 12 - 96.0 * d ** 9 + 60.0 * d ** 6) / q ** 4)
    return _branches(x, inner, outer)


def composite_matrix(basis, xs, order=0):
    """Members W(x) S(k,h)(Phi(x)), or their derivatives, at each x: shape (2N+1, len(xs)).

    Row i holds translate k = i - N.  At x = 0 every order gives the
    continuous-extension limit 0 (the boundary weight's algebraic zero wins
    against the map divergence); under the LogSinh map so does every x
    below 1e-10.
    """
    m = _check_order(order)
    xs = _as_points(xs).reshape(-1)
    out = np.zeros((basis.dimension, xs.size))
    logsinh = basis.map_kind is SincMap.LOG_SINH
    live = xs >= _LOGSINH_CUTOFF if logsinh else xs > 0.0
    x = xs[live]
    if logsinh:
        phi, p1, p2, p3 = _logsinh_derivs(x)
        W = _rational_x_derivs(x)
    else:
        phi, p1, p2, p3 = _log_derivs(x)
        W = _rational_x3_derivs(x)
    h = basis.h
    k = np.arange(-basis.N, basis.N + 1)[:, np.newaxis]
    s = sinc_derivatives((phi - k * h) / h, m)
    # phi-composite derivatives F = S(k,h)(Phi(x))
    F = [s[0]]
    if m >= 1:
        F.append(s[1] / h * p1)
    if m >= 2:
        F.append(s[2] / h ** 2 * p1 * p1 + s[1] / h * p2)
    if m >= 3:
        F.append(s[3] / h ** 3 * p1 ** 3 + 3.0 * s[2] / h ** 2 * p1 * p2 + s[1] / h * p3)
    out[:, live] = sum(math.comb(m, i) * W[i] * F[m - i] for i in range(m + 1))
    return out


def chain_tables(basis, max_order):
    """Chain-rule coefficient arrays A[m][q] over the basis's own nodes.

    An expansion u(x) = sum_k c_k W(x) S(k,h)(Phi(x)) has nodal derivatives

        u^(m)(x_j) = sum_{q=0}^{m} A[m][q][j] * (delta^(q)^T c)[j],

    where delta^(q) carries the mesh derivatives of the bare translates.
    Computing the matrix-vector products first and scaling by these tables
    afterwards avoids the cancellation that plagues member-by-member sums
    at nodes where the coefficients straddle many orders of magnitude.

    For the Log map the entries are expressed through p = 1/(1 + eta^3) and
    negative powers of eta, so far-field nodes underflow to exact zeros.
    """
    max_order = _check_order(max_order)
    n = basis.dimension
    js = np.arange(-basis.N, basis.N + 1)
    if basis.map_kind is SincMap.LOG:
        u = js * basis.h                       # u = ln(eta_j)
        small = u <= 0.0
        eta_s = np.exp(u[small])               # eta on the small branch only
        big = ~small
        r = np.exp(-3.0 * u[big])              # eta^-3, underflows gracefully
        p = np.empty(n)                        # p = 1/(1 + eta^3)
        p[small] = 1.0 / (1.0 + eta_s ** 3)
        p[big] = r / (1.0 + r)
        etap = np.empty(n)                     # eta p
        etap[small] = eta_s * p[small]
        etap[big] = np.exp(-2.0 * u[big]) / (1.0 + r)
        eta2p = np.empty(n)                    # eta^2 p
        eta2p[small] = eta_s ** 2 * p[small]
        eta2p[big] = np.exp(-u[big]) / (1.0 + r)
        A = [[None] * (m + 1) for m in range(max_order + 1)]
        W0 = np.empty(n)
        W0[small] = eta_s ** 3 * p[small]
        W0[big] = 1.0 / (1.0 + r)
        A[0][0] = W0
        if max_order >= 1:
            W1 = np.empty(n)
            W1[small] = 3.0 * eta_s ** 2 * p[small] ** 2
            W1[big] = 3.0 * np.exp(-4.0 * u[big]) / (1.0 + r) ** 2
            A[1] = [W1, eta2p]                             # [W', W Phi']
        if max_order >= 2:
            W2 = np.empty(n)
            W2[small] = (6.0 * eta_s - 12.0 * eta_s ** 4) * p[small] ** 3
            W2[big] = (6.0 * np.exp(-8.0 * u[big])
                       - 12.0 * np.exp(-5.0 * u[big])) / (1.0 + r) ** 3
            A[2] = [W2, etap * (6.0 * p - 1.0), etap]
        if max_order >= 3:
            W3 = np.empty(n)
            W3[small] = (6.0 - 96.0 * eta_s ** 3 + 60.0 * eta_s ** 6) * p[small] ** 4
            W3[big] = (6.0 * np.exp(-12.0 * u[big])
                       - 96.0 * np.exp(-9.0 * u[big])
                       + 60.0 * np.exp(-6.0 * u[big])) / (1.0 + r) ** 4
            A31 = 18.0 * p ** 3 - 36.0 * etap ** 3 - 9.0 * p * p + 2.0 * p
            A[3] = [W3, A31, 9.0 * p * p - 3.0 * p, p]
        return A
    # LogSinh map: nodes stay within moderate magnitudes; direct products
    nodes = sinc_nodes(basis).nodes
    W = _rational_x_derivs(nodes)
    _, p1, p2, p3 = _logsinh_derivs(nodes)
    dead = nodes < _LOGSINH_CUTOFF
    A = [[None] * (m + 1) for m in range(max_order + 1)]
    A[0][0] = W[0].copy()
    if max_order >= 1:
        A[1] = [W[1].copy(), W[0] * p1]
    if max_order >= 2:
        A[2] = [W[2].copy(), 2.0 * W[1] * p1 + W[0] * p2, W[0] * p1 * p1]
    if max_order >= 3:
        A[3] = [W[3].copy(),
                3.0 * W[2] * p1 + 3.0 * W[1] * p2 + W[0] * p3,
                3.0 * W[1] * p1 * p1 + 3.0 * W[0] * p1 * p2,
                W[0] * p1 ** 3]
    if np.any(dead):
        for row in A:
            for arr in row:
                if arr is not None:
                    arr[dead] = 0.0
    return A
