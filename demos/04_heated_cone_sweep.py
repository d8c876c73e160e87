"""Free-convection boundary layer on a heated cone: exponent sweep.

The wall-temperature exponent lam enters the similarity equation
f''' + ((lam+5)/2) f f'' - ((2 lam+1)/3) (f')^2 = 0 through its two
coefficients.  The Laguerre-function method is swept over all six tabulated exponents and compared against the
independent Runge-Kutta column; the seeded Hermite and translate methods
are shown for lam = 1/4, where profile tables exist.
"""

from halfline import (
    ConeParams,
    HermiteBasis,
    LaguerreBasis,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    SincBasis,
    SincMap,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    derived_slope,
    solve_problem,
)


def main():
    print("Laguerre-function sweep (N=13, tabulated alpha and L per row):")
    print("  %8s  %10s  %10s  %10s" % ("lam", "f'(0)", "RK", "deviation"))
    for lam in TABLE3.abscissas():
        spec = ProblemSpec(ConeParams(lam),
                           LaguerreBasis(13, TABLE3.value(lam, "alpha"),
                                         TABLE3.value(lam, "L")))
        e, report = solve_problem(spec)
        slope = derived_slope(e, spec)
        rk = TABLE3.value(lam, "rk")
        print("  %8.4f  %10.6f  %10.6f  %10.2e"
              % (lam, slope, rk, abs(slope - rk)))

    lam = 0.25
    print()
    print("seeded methods at lam = 1/4:")
    beta = TABLE4.value(lam, "beta")
    spec = ProblemSpec(ConeParams(lam),
                       HermiteBasis(20, TABLE4.value(lam, "k")),
                       SeedProfile(SeedKind.CONE_RATIONAL, beta))
    e, report = solve_problem(spec)
    print("  hermite:   f'(0) = %.6f = seed/2 (seed %.4f, map k=%g)"
          % (derived_slope(e, spec), beta, TABLE4.value(lam, "k")))
    worst = max(abs(e(x, 1) - TABLE6.value(x, "hf"))
                for x in TABLE6.abscissas())
    print("             wall-gradient profile matches the published "
          "column within %.2e" % worst)

    # the printed seed for this row contradicts the row's own slope
    # column; the consistent value 1.8200 reproduces the table
    spec = ProblemSpec(ConeParams(lam),
                       SincBasis(30, TABLE5.value(lam, "h"), SincMap.LOG),
                       SeedProfile(SeedKind.CONE_RATIONAL, 1.8200))
    e, report = solve_problem(spec)
    slope = derived_slope(e, spec)
    print("  translate: f'(0) = %.6f vs published %.6f (deviation %.1e)"
          % (slope, TABLE5.value(lam, "sf"),
             abs(slope - TABLE5.value(lam, "sf"))))


if __name__ == "__main__":
    main()
