"""Reference evaluators that the tests compare the library against.

The scalar ones run the same recurrences as the library's array
tabulators, one degree and one point at a time, so a test can check a
tabulated value against an independent single evaluation.  summed_jacobian
is a collocation system's Jacobian in its summed and stacked form.
"""

import numpy as np

from halfline.core import _check_order, _count, _real
from halfline.hermite import _line_tables
from halfline.laguerre import laguerre_table


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
