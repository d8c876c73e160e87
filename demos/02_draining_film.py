"""Draining film of a third-grade fluid, solved three ways.

The film profile satisfies f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f = 0 on
[0, inf) with f(0) = 1 and decay at infinity.  All three collocation families solve
the same case b = (0.6, 0.1, 0.5); the published columns and initial
slopes are reproduced side by side.
"""

from halfline import (
    FluidParams,
    HermiteBasis,
    LaguerreBasis,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    SincBasis,
    TABLE1,
    derived_slope,
    solve_problem,
)

B = (0.6, 0.1, 0.5)


def cases():
    prob = FluidParams(*B)
    yield "mglf", ProblemSpec(prob, LaguerreBasis(20, 1.0, 0.99))
    yield "hf", ProblemSpec(prob, HermiteBasis(16, 1.2),
                            SeedProfile(SeedKind.RATIONAL_QUADRATIC,
                                        0.678301))
    yield "sf", ProblemSpec(prob, SincBasis(17, 1.0),
                            SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.47))


def main():
    print("draining film, b1=%.1f b2=%.1f b3=%.1f" % B)
    solved = {}
    for column, spec in cases():
        e, report = solve_problem(spec)
        solved[column] = e
        slope = derived_slope(e, spec)
        print("  %-4s  converged in %d iterations, residual %.1e, "
              "f'(0) = %.6f  (published %.6f)"
              % (column, report.iterations, report.final_residual_norm,
                 slope, TABLE1.slopes[column]))

    print()
    print("  %6s  %10s  %10s  %10s   worst deviation" % ("z", "mglf", "hf", "sf"))
    worst = dict.fromkeys(solved, 0.0)
    for z in TABLE1.abscissas():
        vals = {c: solved[c](z, 0) for c in solved}
        for c in solved:
            worst[c] = max(worst[c], abs(vals[c] - TABLE1.value(z, c)))
        print("  %6.2f  %10.5f  %10.5f  %10.5f" % (z, vals["mglf"],
                                                   vals["hf"], vals["sf"]))
    print()
    for c in ("mglf", "hf", "sf"):
        print("  %-4s column reproduced within %.2e" % (c, worst[c]))


if __name__ == "__main__":
    main()
