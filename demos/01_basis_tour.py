"""Tour of the three half-line basis families.

Shows where each family puts its collocation nodes, how the members decay,
and checks the discrete orthogonality relations numerically.
"""

import math

import numpy as np

from halfline import (
    HermiteBasis,
    LaguerreBasis,
    SincBasis,
    mapped_trapezoid_rule,
)


def show_nodes(label, nodes, limit=8):
    head = ", ".join("%.4f" % x for x in nodes[:limit])
    print("  %-28s %d nodes: %s%s" % (label, nodes.size, head,
                                      ", ..." if nodes.size > limit else ""))


def main():
    print("== node layouts ==")
    lag = LaguerreBasis(12, 1.0, 0.8)
    show_nodes("Laguerre functions (L=0.8)", lag.nodes())
    herm = HermiteBasis(12, 0.9)
    show_nodes("log-mapped Hermite (k=0.9)", herm.nodes())
    comp = SincBasis(8, 0.7)
    show_nodes("composite translates (h=0.7)", comp.nodes())
    print()

    print("== far-field decay of member 4 ==")
    xs = (5.0, 20.0, 80.0)
    rows = zip(xs, lag.tables(xs, 0)[0][4], herm.tables(xs, 0)[0][4],
               comp.tables(xs, 0)[0][0])
    for x, lag_val, herm_val, comp_val in rows:
        print("  x=%6.1f   laguerre %10.3e   hermite %10.3e   "
              "translate %10.3e" % (x, lag_val, herm_val, comp_val))
    print()

    print("== discrete orthogonality ==")
    nodes, weights = lag.quadrature()
    phi = lag.tables(nodes, 0)[0]
    gram = phi @ (weights[:, None] * phi.T)
    scale = np.array([math.gamma(n + 2) / (0.8 * 0.8 * math.factorial(n))
                      for n in range(12)])
    off = gram - np.diag(np.diag(gram))
    print("  laguerre: diagonal matches Gamma(n+2)/(L^2 n!) to %.1e,"
          % float(np.max(np.abs(np.diag(gram) - scale) / scale)))
    print("            largest off-diagonal %.1e" % float(np.max(np.abs(off))))

    nodes, weights = mapped_trapezoid_rule(herm)
    phi = herm.tables(nodes, 0)[0][:9]
    gram = phi @ (weights[:, None] * phi.T)
    err = float(np.max(np.abs(gram - math.sqrt(math.pi) * np.eye(9))))
    print("  hermite:  transformed members integrate to sqrt(pi)*delta "
          "within %.1e" % err)


if __name__ == "__main__":
    main()
