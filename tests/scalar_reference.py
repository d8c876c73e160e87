"""Reference evaluators that the tests compare the library against.

The scalar ones run the same recurrences as the library's array
tabulators, one degree and one point at a time, so a test can check a
tabulated value against an independent single evaluation; seed_eval does
the same for a seed profile, one order at a time.  concatenated_residual
and summed_jacobian are a collocation system's residual map and Jacobian in
their concatenated and summed forms, with one product D_q @ c per order.
extension_points gives the points where the shooting oracle's continuous
extension calls accel, one accepted step and one component at a time.
"""

import math

import numpy as np

from halfline.core import _as_points, _check_order, _count, _real
from halfline.hermite import _line_tables
from halfline.laguerre import laguerre_table
from halfline.problems import SeedKind
from halfline.shooting import _EXTRA_STAGES


def laguerre_eval(n, alpha, x, order=0):
    """L_n^alpha(x) or its order-th derivative.

    Derivatives use the exact shift d/dx L_n^alpha = -L_{n-1}^{alpha+1},
    applied repeatedly: the m-th derivative is (-1)^m L_{n-m}^{alpha+m},
    zero once the degree is exhausted.
    """
    n, alpha = _count("degree n", n, 0), _real("alpha", alpha, -1.0)
    m = _check_order(order)
    if m > n:
        return 0.0
    sign = -1.0 if m % 2 else 1.0
    return sign * float(laguerre_table(n - m, alpha + m, float(x))[n - m])


def hermite_fn_eval(n, t, order=0):
    """G_n(t) or a t-derivative of it (orders 0..3)."""
    n, m = _count("degree n", n, 0), _check_order(order)
    return float(_line_tables(n, float(t), m)[m][n])


def summed_jacobian(system, c):
    """J(c) = [sum_q diag(dR/df_q) D_q; B] of a NonlinearSystem, from fresh
    nodal derivatives: a generator sum over q stacked on the axis rows."""
    c = np.asarray(c, dtype=float)
    f = [s + D @ c for s, D in zip(system.seeds, system.operators)]
    partials = system.spec.problem.partials(system.collocation_nodes, f)
    rows = sum(np.reshape(p, (-1, 1)) * D for p, D in zip(partials, system.operators))
    return np.vstack([rows, system.boundary])


def seed_eval(seed, x, order=0):
    """The order-th derivative of a SeedProfile at x, that order alone: the
    closed form in x, or in u = 1/x at the points where a power of its
    denominator overflows."""
    order = _check_order(order)
    x = _as_points(x)
    a = seed.parameter
    if seed.kind is SeedKind.RATIONAL_QUADRATIC:
        rq = type(seed)._QUADRATIC[order]
        if not (x > 1e38).any():
            return rq(1.0 + a * x + x * x, a + 2.0 * x)
        with np.errstate(all="ignore"):
            q, u = 1.0 + a * x + x * x, 1.0 / x
            return np.where(np.isinf(q ** (order + 1)),
                            rq(1.0 + a * u + u * u, a * u + 2.0) * u ** (order + 2),
                            rq(q, a + 2.0 * x))[()]
    if seed.kind is SeedKind.RATIONAL_LINEAR:
        c = (-1.0) ** order * math.factorial(order) * a
        if not (x > 1e38).any():
            return c / (a + x) ** (order + 1)
        with np.errstate(all="ignore"):
            q, u = (a + x) ** (order + 1), 1.0 / x
            return np.where(np.isinf(q), c * u ** (order + 1) / (a * u + 1.0) ** (order + 1),
                            c / q)[()]
    q = a / (a + x)
    if order == 0:
        return 0.5 * a * x * q
    if order == 1:
        return 0.5 * a * q * q
    if order == 2:
        return -q ** 3
    return 3.0 * q ** 3 / (a + x)


def concatenated_residual(system, c):
    """F(c) = [R(x, s + D c); B c - t] of a NonlinearSystem, from fresh nodal
    derivatives, with the axis block concatenated even when it is empty."""
    c = np.asarray(c, dtype=float)
    f = [s + D @ c for s, D in zip(system.seeds, system.operators)]
    rows = system.spec.problem.residual(system.collocation_nodes, f)
    return np.concatenate([rows, system.boundary @ c - system.targets])


def extension_points(accel, row):
    """The points (x, state) of the three extra stages 14-16 of DOP853's
    continuous extension on one accepted step, from its trail row (x, h,
    start state, end state, the derivatives of stages 1 and 6-13), each
    stage's weighted sum written out term by term in scalar Python."""
    x, h = row[:2]
    m = (len(row) - 2) // 11
    y = row[2:2 + m]
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = (row[2 + m * j:2 + m * (j + 1)]
                                              for j in range(2, 11))
    (c14, a14), (c15, a15), (c16, a16) = _EXTRA_STAGES
    y14 = tuple(y[i] + h * (a14[1] * k1[i] + a14[7] * k7[i] + a14[8] * k8[i]
                            + a14[9] * k9[i] + a14[10] * k10[i] + a14[11] * k11[i]
                            + a14[12] * k12[i] + a14[13] * k13[i]) for i in range(m))
    k14 = y14[1:] + (accel(x + c14 * h, *y14),)
    y15 = tuple(y[i] + h * (a15[1] * k1[i] + a15[6] * k6[i] + a15[7] * k7[i]
                            + a15[8] * k8[i] + a15[11] * k11[i] + a15[12] * k12[i]
                            + a15[13] * k13[i] + a15[14] * k14[i]) for i in range(m))
    k15 = y15[1:] + (accel(x + c15 * h, *y15),)
    y16 = tuple(y[i] + h * (a16[1] * k1[i] + a16[6] * k6[i] + a16[7] * k7[i]
                            + a16[8] * k8[i] + a16[9] * k9[i] + a16[13] * k13[i]
                            + a16[14] * k14[i] + a16[15] * k15[i]) for i in range(m))
    return [(x + c14 * h,) + y14, (x + c15 * h,) + y15, (x + c16 * h,) + y16]
