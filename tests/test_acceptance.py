"""Acceptance gate: the ten primary reproduction criteria.

Each criterion prints (and records for the terminal summary) exactly one
PASS/FAIL line with the measured errors, then asserts.  Solves and shooting
integrations are shared through the session-scoped conftest caches.
"""

import math

import numpy as np

import conftest
from conftest import CONE_LAMBDAS, FLUID_B, T3_SLOPE
from halfline.hermite import HermiteBasis, mapped_trapezoid_rule
from halfline.laguerre import LaguerreBasis, mglf_matrix
from halfline.newton import fd_jacobian, newton_solve
from halfline.problems import (
    ConeParams,
    FluidParams,
    ThomasFermiProblem,
    build_system,
    derived_slope,
    pointwise_residual,
)
from halfline.reference import (
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    TABLE7,
)
from halfline.sinc import SincBasis, delta_matrix


def record(name, ok, detail):
    line = "%-46s %s  %s" % (name, "PASS" if ok else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def profile_error(e, pairs, order=0, lo=None, hi=None):
    errs = [abs(e(x, order) - ref) for x, ref in pairs
            if (lo is None or x >= lo) and (hi is None or x <= hi)]
    return max(errs), len(errs)


def test_criterion_01_draining_film_laguerre(solve_case):
    spec, e, report = solve_case("fluid", "mglf")
    slope_err = abs(derived_slope(e, spec) - TABLE1.slopes["mglf"])
    prof_err, nrows = profile_error(e, TABLE1.column("mglf"))
    ok = slope_err <= 5e-4 and prof_err <= 5e-4 and nrows == 19
    record("criterion 01 draining film / Laguerre", ok,
           "slope err %.2e (tol 5e-4), profile max %.2e over %d rows "
           "(tol 5e-4)" % (slope_err, prof_err, nrows))
    assert ok


def test_criterion_02_draining_film_hermite(solve_case):
    spec, e, report = solve_case("fluid", "hf")
    slope = derived_slope(e, spec)
    exact = slope == TABLE1.slopes["hf"]
    prof_err, nrows = profile_error(e, TABLE1.column("hf"))
    ok = exact and prof_err <= 1e-3
    record("criterion 02 draining film / Hermite", ok,
           "slope %s (seed-forced, must be exact), profile max %.2e over "
           "%d rows (tol 1e-3)"
           % ("exact" if exact else "%r != %r" % (slope, TABLE1.slopes["hf"]),
              prof_err, nrows))
    assert ok


def test_criterion_03_draining_film_translates(solve_case):
    spec, e, report = solve_case("fluid", "sf")
    slope_err = abs(derived_slope(e, spec) - TABLE1.slopes["sf"])
    prof_err, nrows = profile_error(e, TABLE1.column("sf"), lo=0.2)
    ok = slope_err <= 5e-3 and prof_err <= 2e-3
    record("criterion 03 draining film / translates", ok,
           "slope err %.2e (tol 5e-3), profile max %.2e over %d rows at "
           "z >= 0.2 (tol 2e-3)" % (slope_err, prof_err, nrows))
    assert ok


def test_criterion_04_screening_hermite(solve_case):
    spec, e, report = solve_case("tf", "hf")
    slope = derived_slope(e, spec)
    exact = slope == TABLE2.slopes["hf"]
    prof_err, nrows = profile_error(e, TABLE2.column("hf"), hi=4.0)
    ok = exact and prof_err <= 5e-3
    record("criterion 04 atomic screening / Hermite", ok,
           "slope %s (seed-forced, must be exact), profile max %.2e over "
           "%d rows at x <= 4 (tol 5e-3)"
           % ("exact" if exact else "%r != %r" % (slope, TABLE2.slopes["hf"]),
              prof_err, nrows))
    assert ok


def test_criterion_05_screening_laguerre(solve_case):
    spec, e, report = solve_case("tf", "mglf")
    nodes = build_system(spec).collocation_nodes
    resid = max(abs(pointwise_residual(spec, e, x)) for x in nodes)
    prof_err, nrows = profile_error(e, TABLE2.column("liao"), hi=4.0)
    slope_err = abs(derived_slope(e, spec) - TABLE2.slopes["mglf"])
    ok = (report.converged and resid <= 1e-8 and prof_err <= 1.5e-2
          and slope_err <= 5e-2)
    record("criterion 05 atomic screening / Laguerre", ok,
           "node residual %.2e (tol 1e-8), profile-vs-Liao max %.2e over "
           "%d rows at x <= 4 (tol 1.5e-2), slope err %.2e (tol 5e-2)"
           % (resid, prof_err, nrows, slope_err))
    assert ok


def test_criterion_06_cone_laguerre_sweep(solve_case):
    slope_errs, printed_errs = {}, {}
    for lam in CONE_LAMBDAS:
        spec, e, report = solve_case("cone", "mglf", lam)
        slope = derived_slope(e, spec)
        slope_errs[lam] = abs(slope - T3_SLOPE[lam])
        printed_errs[lam] = abs(slope - TABLE3.value(lam, "mglf"))
    bad = {lam: err for lam, err in slope_errs.items() if err > 1e-3}
    prof = {}
    for lam, table in ((0.25, TABLE6), (0.75, TABLE7)):
        spec, e, report = solve_case("cone", "mglf", lam)
        prof[lam], _ = profile_error(e, table.column("mglf"),
                                     order=1, hi=2.0)
    prof_ok = all(v <= 2e-3 for v in prof.values())
    ok = not bad and prof_ok

    def slope_text(lam):
        text = "lam=%g %.2e" % (lam, slope_errs[lam])
        printed = TABLE3.value(lam, "mglf")
        if T3_SLOPE[lam] != printed:
            text += (" vs rk (Table 3 misprint: %.2e vs printed mglf %.9f)"
                     % (printed_errs[lam], printed))
        return text

    detail = ("slope errs (tol 1e-3): %s; gradient profile max "
              "(tol 2e-3): lam=1/4 %.2e, lam=3/4 %.2e"
              % (", ".join(map(slope_text, sorted(slope_errs))),
                 prof[0.25], prof[0.75]))
    record("criterion 06 heated cone / Laguerre sweep", ok, detail)
    assert ok, detail


def test_criterion_07_cone_hermite_sweep(solve_case):
    inexact = []
    for lam in CONE_LAMBDAS:
        spec, e, report = solve_case("cone", "hf", lam)
        if derived_slope(e, spec) != TABLE4.value(lam, "beta") / 2.0:
            inexact.append(lam)
    beta = TABLE4.value(0.25, "beta")
    spec, e, report = solve_case("cone", "hf", 0.25)
    prof_err = max(abs(e(x, 1) - beta**3 / (2.0 * (beta + x) ** 2))
                   for x in TABLE6.abscissas())
    ok = not inexact and prof_err <= 1e-3
    record("criterion 07 heated cone / Hermite sweep", ok,
           "slope == seed/2 %s for all 6 rows, gradient vs analytic seed "
           "max %.2e (tol 1e-3)"
           % ("exact" if not inexact else "INEXACT at %s" % inexact,
              prof_err))
    assert ok


def test_criterion_08_cone_translates_sweep(solve_case):
    slope_errs, resids = {}, {}
    for lam in CONE_LAMBDAS:
        spec, e, report = solve_case("cone", "sf", lam)
        slope_errs[lam] = abs(derived_slope(e, spec)
                              - TABLE5.value(lam, "sf"))
        resids[lam] = report.final_residual_norm
    worst_slope = max(slope_errs.values())
    worst_resid = max(resids.values())
    ok = worst_slope <= 1e-4 and worst_resid <= 1e-8
    record("criterion 08 heated cone / translates sweep", ok,
           "slope err max %.2e over 6 rows (tol 1e-4), converged residual "
           "max %.2e (tol 1e-8)" % (worst_slope, worst_resid))
    assert ok


def test_criterion_09_shooting_oracle(oracle):
    cone_errs = [abs(oracle(ConeParams(lam))[0] - TABLE3.value(lam, "rk"))
                 for lam in CONE_LAMBDAS]
    fluid_err = abs(oracle(FluidParams(*FLUID_B))[0] - (-0.678301))
    tf_err = abs(oracle(ThomasFermiProblem())[0] - (-1.588071))
    ok = max(cone_errs) <= 1e-4 and fluid_err <= 1e-5 and tf_err <= 5e-4
    record("criterion 09 independent shooting oracle", ok,
           "cone slope err max %.2e over 6 rows (tol 1e-4), film %.2e "
           "(tol 1e-5), screening %.2e (tol 5e-4)"
           % (max(cone_errs), fluid_err, tf_err))
    assert ok


def test_criterion_10_property_suites():
    worst = {}

    # modified Laguerre-function discrete orthogonality, N=12, L in {.5,1,2}
    err = 0.0
    for L in (0.5, 1.0, 2.0):
        basis = LaguerreBasis(12, 1.0, L)
        nodes, weights = basis.quadrature()
        phi = mglf_matrix(basis, nodes, 0)
        gram = phi @ (weights[:, None] * phi.T)
        for m in range(12):
            for n in range(12):
                scale = math.gamma(n + 2) / (L * L * math.factorial(n))
                want = scale if m == n else 0.0
                err = max(err, abs(gram[m, n] - want) / scale)
    worst["laguerre orthogonality (tol 1e-8 rel)"] = (err, 1e-8)

    # log-mapped Hermite transformed orthogonality: sqrt(pi) * delta
    basis = HermiteBasis(8, 0.9)
    nodes, w = mapped_trapezoid_rule(basis)
    phi = basis.tables(nodes, 0)[0]
    gram = phi @ (w[:, None] * phi.T)
    err = float(np.max(np.abs(gram - math.sqrt(math.pi) * np.eye(9))))
    worst["hermite orthogonality (tol 1e-6)"] = (err, 1e-6)

    # translate derivative matrices vs finite differences (relative)
    sb = SincBasis(3, 1.0)
    sinc_fn = lambda t: 1.0 if t == 0.0 else math.sin(math.pi * t) / (math.pi * t)
    err = 0.0
    for m in (1, 2, 3):
        ent = delta_matrix(sb, m)
        s = 1e-3 if m <= 2 else 1e-2
        for k in range(-3, 4):
            g = lambda p: sinc_fn(p - k)
            for j in range(-3, 4):
                p = float(j)
                if m == 1:
                    fd = (-g(p + 2 * s) + 8 * g(p + s)
                          - 8 * g(p - s) + g(p - 2 * s)) / (12 * s)
                elif m == 2:
                    fd = (-g(p + 2 * s) + 16 * g(p + s) - 30 * g(p)
                          + 16 * g(p - s) - g(p - 2 * s)) / (12 * s**2)
                else:
                    fd = (-g(p + 3 * s) + 8 * g(p + 2 * s) - 13 * g(p + s)
                          + 13 * g(p - s) - 8 * g(p - 2 * s)
                          + g(p - 3 * s)) / (8 * s**3)
                err = max(err, abs(ent[k + 3, j + 3] - fd)
                          / max(abs(fd), 1e-2))
    worst["translate derivative matrices (tol 1e-6 rel)"] = (err, 1e-6)

    # orders 1..3 of every family vs central differences
    err = 0.0
    lag = LaguerreBasis(9, 1.0, 0.8)
    fd3_at = lambda f, x, s: (f(x + 2 * s) - 2 * f(x + s) + 2 * f(x - s)
                              - f(x - 2 * s)) / (2 * s**3)
    x = np.array([0.9, 4.0])
    f = lambda t: lag.tables(t, 0)[0][[2, 7]]      # members 2 and 7
    err = max(err, np.max(np.abs(lag.tables(x, 1)[1][[2, 7]]
                                 - (f(x + 1e-6) - f(x - 1e-6)) / 2e-6)))
    err = max(err, np.max(np.abs(lag.tables(x, 2)[2][[2, 7]]
                                 - (f(x + 1e-4) - 2 * f(x) + f(x - 1e-4))
                                 / 1e-8)))
    err = max(err, np.max(np.abs(lag.tables(x, 3)[3][[2, 7]]
                                 - (4 * fd3_at(f, x, 1e-3)
                                    - fd3_at(f, x, 2e-3)) / 3)))
    herm = HermiteBasis(8, 1.2)
    comp = SincBasis(6, 0.8)
    # Hermite members 1 and 5; translates k = -2 and 3 (rows k + 6)
    for fam, rows in ((herm, [1, 5]), (comp, [4, 9])):
        x = np.array([0.5, 2.0])
        s = 1e-6
        for m in (1, 2, 3):
            lower = lambda t: fam.tables(t, m - 1)[m - 1][rows]
            err = max(err, np.max(np.abs(fam.tables(x, m)[m][rows]
                                         - (lower(x + s) - lower(x - s))
                                         / (2 * s))))
    worst["derivatives orders 1-3 (tol 1e-5)"] = (err, 1e-5)

    # Newton quadratic convergence on the scalar test problem
    F = lambda v: np.array([v[0] ** 2 - 4.0])
    h = newton_solve(F, lambda v: fd_jacobian(F, v), np.array([3.0])).history
    checked = 0
    ratio = 0.0
    for a, b in zip(h, h[1:]):
        if 1e-8 < a < 1.0:
            ratio = max(ratio, b / (a * a))
            checked += 1
    quad_ok = checked >= 2 and ratio <= 0.1
    worst["newton quadratic contraction (ratio tol 0.1)"] = (ratio, 0.1)

    ok = quad_ok and all(e <= tol for e, tol in worst.values())
    record("criterion 10 property suites", ok,
           "; ".join("%s %.2e" % (k, e) for k, (e, tol) in worst.items()))
    assert ok
