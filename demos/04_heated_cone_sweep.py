"""Free-convection boundary layer on a heated cone: exponent sweep.

The wall-temperature exponent lam enters the similarity equation
f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2 = 0 through its two
coefficients.  The Laguerre-function method is swept over all six tabulated exponents and compared against the
independent Runge-Kutta column; the seeded Hermite and translate methods
are shown for lam = 1/4, where profile tables exist.  Each run is the one
its preset (table3, table4 or table5 at that cone-lambda) configures.
"""

from halfline import TABLE3, TABLE5, TABLE6, derived_slope, solve_problem
from halfline.cli import preset_spec


def main():
    print("Laguerre-function sweep (N=13, tabulated alpha and L per row):")
    print("  %8s  %10s  %10s  %10s" % ("lam", "f'(0)", "RK", "deviation"))
    for lam in TABLE3.abscissas():
        spec = preset_spec("table3", lam)
        e, report = solve_problem(spec)
        slope = derived_slope(e, spec)
        rk = TABLE3.value(lam, "rk")
        print("  %8.4f  %10.6f  %10.6f  %10.2e"
              % (lam, slope, rk, abs(slope - rk)))

    lam = 0.25
    print()
    print("seeded methods at lam = 1/4:")
    spec = preset_spec("table4", lam)
    e, report = solve_problem(spec)
    print("  hermite:   f'(0) = %.6f = seed/2 (seed %.4f, map k=%g)"
          % (derived_slope(e, spec), spec.seed.parameter, spec.basis.k))
    worst = max(abs(e(x, 1) - TABLE6.value(x, "hf"))
                for x in TABLE6.abscissas())
    print("             wall-gradient profile matches the published "
          "column within %.2e" % worst)

    # the preset reads the seed this row's own slope column implies, not the
    # printed one (see halfline.cli)
    spec = preset_spec("table5", lam)
    e, report = solve_problem(spec)
    slope = derived_slope(e, spec)
    print("  translate: f'(0) = %.6f vs published %.6f (deviation %.1e)"
          % (slope, TABLE5.value(lam, "sf"),
             abs(slope - TABLE5.value(lam, "sf"))))


if __name__ == "__main__":
    main()
