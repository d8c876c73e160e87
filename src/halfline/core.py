"""Shared trial-space machinery: expansions, node checks, and projection.

A trial family (Laguerre, Hermite, sinc, or one defined elsewhere) exposes

    label, dimension   -- its name and the number of coefficients it takes
    nodes()            -- its collocation nodes, read-only, strictly increasing
    tables(xs, M)      -- derivatives of orders 0..M of every member at the
                          points xs >= 0, shape (M+1, dimension, len(xs));
                          its entry m does not depend on M, bit for bit
    seeded             -- whether a seed carries the axis conditions, or rows do
    slope_step         -- the step f'(0) is read by differences at, or None

with its parameters as hashable instance attributes: the private memo, _memo,
keeps each discretization and point tabulation by the type and vars(), and
refuses, by name, an object with no __dict__ and an attribute that does not
hash.  This module supplies what is generic on top: evaluating a truncated
series (optionally shifted by a closed-form seed profile), projecting a
function onto the basis with a discrete inner-product rule (a (nodes, weights)
pair of arrays), the Golub-Welsch node routine of the two polynomial families,
and the checks every family shares: derivative orders, evaluation points,
member indices and node arrays.

Every scalar parameter passes _real (a finite real scalar above a bound)
or _count (an integer at least a bound); bools and strings fail both,
which raise ConfigurationError naming the argument.
"""

import collections
import math

import numpy as np

from .errors import (ConfigurationError, DomainError, NodeComputationError,
                     RangeOverflowError, UnsupportedOrderError)

MAX_ORDER = 3
_POLISH_TOL = 1e-9


def _readonly(a):
    arr = np.asarray(a, dtype=float).copy()
    arr.setflags(write=False)
    return arr


def _node_array(nodes):
    """nodes as a read-only 1-D float array: non-empty, finite, strictly increasing."""
    nodes = _readonly(nodes)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ConfigurationError("grid needs a non-empty 1-D node array")
    if not np.all(np.isfinite(nodes)):
        raise ConfigurationError("grid nodes must be finite")
    if np.any(np.diff(nodes) <= 0):
        raise ConfigurationError("grid nodes must be strictly increasing")
    return nodes


class Expansion:
    """Truncated series sum_i c_i B_i(x), plus an optional additive seed profile.

    The seed (see problems.SeedProfile) carries boundary values in closed
    form; the basis part vanishes where the boundary conditions live, or is
    constrained there by explicit equations.
    """

    def __init__(self, basis, coefficients, seed=None):
        self.basis = basis
        self.coefficients = _readonly(coefficients)
        if self.coefficients.ndim != 1:
            raise ConfigurationError("coefficients must be a 1-D array")
        if self.coefficients.size != basis.dimension:
            raise ConfigurationError(
                "coefficient count %d != basis dimension %d"
                % (self.coefficients.size, basis.dimension))
        if not np.all(np.isfinite(self.coefficients)):
            raise ConfigurationError("coefficients must be finite")
        self.seed = seed

    def __call__(self, x, order=0):
        return eval_expansion(self, x, order)

    def derivatives(self, x, max_order):
        """[self(x, 0), ..., self(x, max_order)]: per order, the coefficients times one
        kept basis tabulation, plus one seed tabulation; those check x (a kept x passed once)."""
        max_order = _check_order(max_order)
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        tables, = _memo(self.basis, (flat.tobytes(), max_order),
                        lambda: (self.basis.tables(flat, max_order),))
        seed = None if self.seed is None else self.seed.tables(flat, max_order)
        out = []
        for q in range(max_order + 1):
            vals = self.coefficients @ tables[q]
            if seed is not None:
                vals = vals + seed[q]
            out.append(float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape))
        return out


class _Memo(collections.OrderedDict):
    used = 0        # bytes held; key -> (entry, bytes), least recently used first


_MEMO_BYTES = 16 * 2 ** 20      # a preset's discretization takes 1-120 kB
_MEMO = _Memo()


def _value(obj):
    """(class, sorted instance attributes) of obj, its key by value in the memo."""
    if not hasattr(obj, "__dict__"):
        raise ConfigurationError("%r has no __dict__, and the memo keys by value" % (obj,))
    items = tuple(sorted(vars(obj).items()))
    for name, value in items:
        try:
            hash(value)         # a hashable container may hold an unhashable value
        except TypeError:
            raise ConfigurationError("%r: %s does not hash, and the memo keys by value"
                                     % (obj, name)) from None
    return type(obj), items


def _memo(basis, detail, build):
    """build()'s tuple of arrays, read-only, kept by value (_value(basis), *detail)
    within _MEMO_BYTES; not kept if over budget or if build raises."""
    key = (*_value(basis), *detail)
    if (hit := _MEMO.get(key)) is not None:
        _MEMO.move_to_end(key)
        return hit[0]
    entry = build()
    for a in entry:
        a.setflags(write=False)        # views keep their layout, and so their bits
    size = sum(a.nbytes for a in entry)
    if size <= _MEMO_BYTES:
        _MEMO.used += size
        while _MEMO.used > _MEMO_BYTES:
            _MEMO.used -= _MEMO.popitem(last=False)[1][1]
        _MEMO[key] = (entry, size)
    return entry


def _check_order(order):
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or order < 0 or order > MAX_ORDER):
        raise UnsupportedOrderError("derivative order must be an integer in 0..3, got %r" % (order,))
    return int(order)


def _as_points(x):
    """x as a float array of its own shape; every point finite and >= 0."""
    xs = np.asarray(x, dtype=float)
    if not (np.minimum.reduce(xs, axis=None, initial=np.inf) >= 0.0
            and np.maximum.reduce(xs, axis=None, initial=0.0) < np.inf):     # a NaN fails both
        raise DomainError("evaluation points must be finite and >= 0, got %r" % (x,))
    return xs


def _check_power(symbol, value, order, bounded=True):
    """Order-th derivatives divide by value**order: refuse a power below the smallest
    normal double and, if bounded, one beyond the largest."""
    with np.errstate(over="ignore"):
        power = np.float64(value) ** order
    if power < np.finfo(float).tiny or (bounded and power == np.inf):
        raise RangeOverflowError("%s^%d leaves the double range for %s = %g"
                                 % (symbol, order, symbol, value))


def _finite_tables(basis, tables):
    """tables if every entry is finite; else RangeOverflowError naming the first bad order."""
    bad = ~np.isfinite(tables).all(axis=(1, 2))
    if bad.any():
        raise RangeOverflowError("%r: order %d leaves the double range" % (basis, bad.argmax()))
    return tables


def _real(name, value, low, strict=True):
    """value as a float: a finite real scalar, > low (>= low if not strict)."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)
            or not (value > low if strict else value >= low)):
        raise ConfigurationError("%s must be a finite real %s %g, got %r"
                                 % (name, ">" if strict else ">=", low, value))
    return float(value)


def _count(name, value, low):
    """value as an int: an integer scalar, not a bool, at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ConfigurationError("%s must be an integer >= %d, got %r"
                                 % (name, low, value))
    return int(value)


def _check_index(i, dimension):
    if _count("member index", i, 0) >= dimension:
        raise ConfigurationError("member index %r outside 0..%d" % (i, dimension - 1))
    return int(i)


def eval_expansion(e, x, order=0):
    """Value of the expansion's order-th derivative at x >= 0: a float for a
    scalar x, an array of its shape for an array x."""
    return e.derivatives(x, order)[order]


def _tridiagonal_roots(diag, off, value, derivative, family):
    """Roots of value, ascending: the eigenvalues of the symmetric tridiagonal
    (Jacobi) matrix (diag, off), then at most five Newton steps, accepted once
    every |value(t)| <= 1e-9 (Golub & Welsch 1969).  derivative is called only
    for a step that is taken.  A failed eigen-solve, a non-finite value, a zero
    derivative or a fifth step short of the bound raises NodeComputationError
    naming family.
    """
    try:
        t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:
        raise NodeComputationError("eigen-solve for %s nodes failed: %s" % (family, exc))
    for _ in range(5):
        with np.errstate(over="ignore", invalid="ignore"):     # refused just below
            vals = value(t)
        if not np.all(np.isfinite(vals)):
            raise NodeComputationError("%s node polish met a non-finite value" % family)
        if np.all(np.abs(vals) <= _POLISH_TOL):
            return t
        derivs = derivative(t)
        with np.errstate(divide="raise", invalid="raise"):
            try:
                t = t - vals / derivs
            except FloatingPointError:
                raise NodeComputationError(
                    "%s node polish hit a zero derivative" % family)
    raise NodeComputationError(
        "%s nodes failed to polish below %g" % (family, _POLISH_TOL))


def project(f, basis, rule):
    """Expansion of f with coefficients <f, B_i> / <B_i, B_i> under the rule.

    rule is a (nodes, weights) pair for <u, v> = sum_j u(x_j) v(x_j) w_j,
    as quadrature() and mapped_trapezoid_rule return: positive, strictly
    increasing nodes and as many finite weights.  It must resolve the
    basis: it needs at least as many nodes as the basis has members (the
    Laguerre-Radau rule pairs one node per member, the mapped trapezoid
    rule for Hermite uses many more).  f must return a finite real at
    every node.
    """
    try:
        nodes, weights = rule
        nodes, weights = _node_array(nodes), np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError("a rule is a (nodes, weights) pair of arrays") from None
    if weights.shape != nodes.shape or not np.all(np.isfinite(weights)) or nodes[0] <= 0:
        raise ConfigurationError("a rule needs positive nodes and as many finite weights")
    if nodes.size < basis.dimension:
        raise ConfigurationError(
            "rule with %d nodes cannot resolve a %d-member basis"
            % (nodes.size, basis.dimension))
    fvals = np.array([f(xj) for xj in nodes])
    if fvals.dtype.kind not in "iuf" or fvals.shape != nodes.shape or not np.isfinite(fvals).all():
        raise ConfigurationError("f must return a finite real at every node")
    B = basis.tables(nodes, 0)[0]
    coefficients = (B @ (fvals * weights)) / ((B * B) @ weights)
    return Expansion(basis, coefficients)
