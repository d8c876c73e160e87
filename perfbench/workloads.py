"""The benchmark's three workloads: cases, the timed call, and its check.

Each workload runs the library only through public entry points.  A
workload is a fixed list of distinct cases that the measured loop repeats
in rounds; presets and oracle have fixed lists, sweep draws its list of
random films from the seed.

    presets  the paper-reproduction path: ``halfline verify`` on every preset
    sweep    the Newton-heavy path: three collocation solves per random film
    oracle   the shooting integrator alone, on the three model problems
"""

import io
import math
import random
import re

import halfline
import halfline.cli

CONE_LAMBDAS = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
SWEEP_SIZES = (16, 20, 24, 28)
SWEEP_DRAWS = 64          # distinct films, an equal share at each size

# verify at table3, lam = 1 is the documented criterion-06 failure
EXPECTED_VERIFY_FAIL = ("table3", 1.0)

# criterion-09 tolerances of the shooting oracle
AHMAD_TOL = 1e-5
KOBAYASHI_TOL = 5e-4
CONE_RK_TOL = 1e-4

# sweep cross-checks (measured maxima over 1,700 draws: 1.5e-4 and 7.2e-3)
PROFILE_AGREEMENT_TOL = 1e-3
SINC_SLOPE_TOL = 2e-2
CROSSCHECK_X = (0.5, 1.0, 2.0)


class Check:
    """Outcome of checking one operation."""

    def __init__(self, ok, slope_err=0.0, profile_err=0.0, residual=0.0,
                 verify_failed=False, note=""):
        self.ok = ok
        self.slope_err = slope_err
        self.profile_err = profile_err
        self.residual = residual
        self.verify_failed = verify_failed
        self.note = note


# ---------------------------------------------------------------------------
# presets

_COLUMN_ERR = re.compile(r"^column \w+: max abs error (\S+) ")
_SLOPE_ERR = re.compile(r"^slope: .* abs error (\S+) ")


def preset_cases():
    cases = [(p, None) for p in ("table1-mglf", "table1-hf", "table1-sf",
                                 "table2-mglf", "table2-hf", "table2-sf")]
    cases += [(p, lam) for p in ("table3", "table4", "table5")
              for lam in CONE_LAMBDAS]
    return cases


def run_preset(case):
    preset, lam = case
    argv = ["verify", "--preset", preset]
    if lam is not None:
        argv += ["--cone-lambda", repr(lam)]
    out, err = io.StringIO(), io.StringIO()
    code = halfline.cli.main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def check_preset(case, result):
    code, out, err = result
    lines = out.splitlines()
    expect_fail = case == EXPECTED_VERIFY_FAIL
    verdict = lines[-1] if lines else ""
    want = "overall: FAIL" if expect_fail else "overall: PASS"
    slope = [float(m.group(1)) for m in map(_SLOPE_ERR.match, lines) if m]
    column = [float(m.group(1)) for m in map(_COLUMN_ERR.match, lines) if m]
    ok = (code == (1 if expect_fail else 0) and verdict == want
          and len(slope) == 1)
    return Check(ok, slope_err=slope[0] if slope else 0.0,
                 profile_err=column[0] if column else 0.0,
                 verify_failed=code == 1,
                 note="" if ok else "%s: exit %d, %r %s" % (case, code, verdict, err.strip()))


# ---------------------------------------------------------------------------
# sweep

def sweep_cases(seed):
    """SWEEP_DRAWS films: (b1, b3) uniform in [0.2, 1]^2, sizes in turn."""
    rng = random.Random(seed)
    return [(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0),
             SWEEP_SIZES[i % len(SWEEP_SIZES)]) for i in range(SWEEP_DRAWS)]


def _solve(spec):
    e, report = halfline.solve_problem(spec)
    return e, report, halfline.derived_slope(e, spec)


def run_sweep(case):
    b1, b3, n = case
    params = halfline.FluidParams.from_b1_b3(b1, b3)
    lag = halfline.ProblemSpec(params, halfline.LaguerreBasis(n, 1.0, 0.99))
    e_lag, r_lag, s_lag = _solve(lag)
    # the paper's protocol: the Hermite seed takes the Laguerre |slope|
    her = halfline.ProblemSpec(
        params, halfline.HermiteBasis(16, 1.2),
        halfline.SeedProfile(halfline.SeedKind.RATIONAL_QUADRATIC, abs(s_lag)))
    e_her, r_her, _ = _solve(her)
    sinc = halfline.ProblemSpec(
        params, halfline.SincBasis(17, 1.0),
        halfline.SeedProfile(halfline.SeedKind.RATIONAL_QUADRATIC, 0.47))
    _, r_sinc, s_sinc = _solve(sinc)
    gap = max(abs(e_lag(x, 0) - e_her(x, 0)) for x in CROSSCHECK_X)
    return (r_lag, r_her, r_sinc), s_lag, s_sinc, gap


def check_sweep(case, result):
    if isinstance(result, halfline.HalflineError):
        return Check(False, note="%s: %s: %s" % (case, type(result).__name__, result))
    reports, s_lag, s_sinc, gap = result
    slope_err = abs(s_sinc - s_lag)
    converged = all(r.converged for r in reports)
    ok = (converged and gap <= PROFILE_AGREEMENT_TOL
          and slope_err <= SINC_SLOPE_TOL)
    return Check(ok, slope_err=slope_err, profile_err=gap,
                 residual=max(r.final_residual_norm for r in reports),
                 note="" if ok else "%s: converged=%s, profile gap %.3e, "
                 "sinc slope error %.3e" % (case, converged, gap, slope_err))


# ---------------------------------------------------------------------------
# oracle

def oracle_cases():
    cases = [("film", halfline.FluidParams(0.6, 0.1, 0.5),
              halfline.AHMAD_SLOPE, AHMAD_TOL),
             ("screening", halfline.ThomasFermiProblem(),
              halfline.KOBAYASHI_SLOPE, KOBAYASHI_TOL)]
    cases += [("cone %g" % lam, halfline.ConeParams(lam),
               halfline.TABLE3.value(lam, "rk"), CONE_RK_TOL)
              for lam in (0.0, 0.5, 1.0)]
    return cases


def run_oracle(case):
    slope, _ = halfline.shoot(case[1])
    return slope


def check_oracle(case, result):
    if isinstance(result, halfline.HalflineError):
        return Check(False, note="%s: %s: %s" % (case[0], type(result).__name__, result))
    err = abs(result - case[2])
    ok = math.isfinite(err) and err <= case[3]
    return Check(ok, slope_err=err,
                 note="" if ok else "%s: slope %.9g, error %.3e" % (case[0], result, err))


def warm_oracle():
    # a coarse film shoot loads the integrator paths without a full solve
    halfline.shoot(halfline.FluidParams(0.6, 0.1, 0.5),
                   halfline.ShootConfig(step=1e-2))


# ---------------------------------------------------------------------------
# registry

class Workload:
    def __init__(self, name, cases, run, check, warm=None):
        self.name = name
        self.cases = cases        # seed -> list of distinct cases
        self.run = run
        self.check = check
        self.warm = warm          # None: the warm-up is one round of cases


WORKLOADS = {w.name: w for w in (
    Workload("presets", lambda seed: preset_cases(), run_preset, check_preset),
    Workload("sweep", sweep_cases, run_sweep, check_sweep),
    Workload("oracle", lambda seed: oracle_cases(), run_oracle, check_oracle,
             warm_oracle),
)}
