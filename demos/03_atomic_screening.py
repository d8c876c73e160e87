"""Atomic screening profile (Thomas-Fermi), with a cautionary slope story.

The equation sqrt(x) y'' = y^(3/2), y(0) = 1, y(inf) = 0 has the classic
initial slope -1.588071 (Kobayashi).  The log-mapped Hermite run seeds that
slope and refines the profile around it.  The Laguerre-function run has no
seed: it converges cleanly to a small-residual collocation solution whose
low-order expansion nevertheless prints a first derivative far from the
true slope at the origin -- a good reminder that a tiny residual does not
certify every derived quantity equally well.
"""

from halfline import KOBAYASHI_SLOPE, TABLE2, derived_slope, solve_problem
from halfline.cli import preset_spec


def main():
    spec_h = preset_spec("table2-hf")
    e_h, rep_h = solve_problem(spec_h)
    print("log-mapped Hermite, N=15, k=0.9 (seeded):")
    print("  y'(0) = %.6f, matches Kobayashi by construction" %
          derived_slope(e_h, spec_h))

    spec_l = preset_spec("table2-mglf")
    e_l, rep_l = solve_problem(spec_l)
    slope_l = derived_slope(e_l, spec_l)
    print("Laguerre functions, N=7, L=0.675 (no seed):")
    print("  y'(0) = %.6f vs Kobayashi %.6f -- off by %.3f despite a "
          "%.1e residual" % (slope_l, KOBAYASHI_SLOPE, abs(slope_l - KOBAYASHI_SLOPE),
                             rep_l.final_residual_norm))
    print()

    print("  %6s  %10s  %10s  %10s" % ("x", "laguerre", "hermite", "Liao"))
    worst_h = worst_l = 0.0
    for x, ref in TABLE2.column("liao"):
        if x > 4.0:
            continue
        yl, yh = e_l(x, 0), e_h(x, 0)
        worst_l = max(worst_l, abs(yl - ref))
        worst_h = max(worst_h, abs(yh - TABLE2.value(x, "hf")))
        print("  %6.2f  %10.6f  %10.6f  %10.6f" % (x, yl, yh, ref))
    print()
    print("  hermite column reproduced within %.2e; laguerre tracks the "
          "Liao profile within %.2e up to x = 4" % (worst_h, worst_l))
    print("  residual at a mid-domain point x=2: hermite %.1e, laguerre %.1e"
          % tuple(abs(s.problem.residual(2.0, e.derivatives(2.0, s.problem.order)))
                  for s, e in ((spec_h, e_h), (spec_l, e_l))))


if __name__ == "__main__":
    main()
