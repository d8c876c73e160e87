"""Draining film of a third-grade fluid, solved three ways.

The film profile satisfies f'' + b1 (f')^2 f'' - b2 f (f')^2 - b3 f = 0 on
[0, inf) with f(0) = 1 and decay at infinity.  All three collocation families solve
the same case b = (0.6, 0.1, 0.5), each as its preset table1-<method>
configures it; the published columns and initial slopes are reproduced side
by side.
"""

from halfline import TABLE1, derived_slope, solve_problem
from halfline.cli import preset_spec

COLUMNS = ("mglf", "hf", "sf")


def main():
    specs = {c: preset_spec("table1-" + c) for c in COLUMNS}
    film = specs["mglf"].problem
    print("draining film, b1=%.1f b2=%.1f b3=%.1f" % (film.b1, film.b2, film.b3))
    solved = {}
    for column, spec in specs.items():
        e, report = solve_problem(spec)
        solved[column] = e
        slope = derived_slope(e, spec)
        print("  %-4s  converged in %d iterations, residual %.1e, "
              "f'(0) = %.6f  (published %.6f)"
              % (column, report.iterations, report.final_residual_norm,
                 slope, TABLE1.slopes[column]))

    print()
    print("  %6s  %10s  %10s  %10s   worst deviation" % (("z",) + COLUMNS))
    worst = dict.fromkeys(COLUMNS, 0.0)
    for z in TABLE1.abscissas():
        vals = [solved[c](z, 0) for c in COLUMNS]
        for c, v in zip(COLUMNS, vals):
            worst[c] = max(worst[c], abs(v - TABLE1.value(z, c)))
        print("  %6.2f  %10.5f  %10.5f  %10.5f" % (z, *vals))
    print()
    for c in COLUMNS:
        print("  %-4s column reproduced within %.2e" % (c, worst[c]))


if __name__ == "__main__":
    main()
