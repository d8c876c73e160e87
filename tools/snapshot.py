"""Print the outputs that a behaviour-preserving change must keep byte for byte.

Run from the root of a checkout (halfline is imported from ./src):

    python3 tools/snapshot.py > snapshot.txt

and compare the files of two checkouts with ``cmp``.  Each section starts
with a ``####`` header line and shows exit codes and both output streams:

  - ``verify`` and ``solve`` (its CSV) on every preset case: the fixed
    presets once, the cone presets at each tabulated cone-lambda, and
    ``verify`` once more at a cone-lambda matched by tolerance;
  - every preset case's Newton solution, iteration count and residual
    history, and its slope row (abscissa, f(0), f'(0), residual), as exact
    hexadecimal floats;
  - ``oracle`` for the film, screening and cone problems, and
    ``list-presets``;
  - the default ``shoot`` slope of the film, screening and cone
    (lambda = 0, 1/2, 1) problems, and its trajectory at ten fixed grid
    indices, as exact hexadecimal floats, with the SHA-256 of the whole
    state array, so a change of any bit on the grid shows; and the slope of
    a steep film whose root lies below the starting bracket;
  - command lines that must fail, and failing ``solve_problem`` calls, with
    their error types and messages; among them ``--out`` paths that cannot
    be written and refused ``verify`` runs, each with whether it left a
    CSV behind;
  - the exit code and last output or error line of four ``solve`` runs
    that stop at max|F| above 1e-10, where Newton's verdict decides;
  - the benchmark's seeded sweep (seeds 1, 3, 5): every Newton solution,
    iteration count, residual history and slope, as exact hexadecimal
    floats;
  - two Laguerre quadrature rules, two mapped trapezoid rules, the
    derivative tables of orders 0..3 of four bases (the axis, points near
    it, the nodes, a grid and the far field), and one small Newton solve
    (iterations, residual history, solution), likewise as hexadecimal
    floats;
  - the standard output of every demo.

The tool is not part of the test suite; a full run takes a few seconds.
"""

import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import halfline  # noqa: E402
from halfline import (ConeParams, FluidParams, HermiteBasis,  # noqa: E402
                      LaguerreBasis, ProblemSpec, SeedKind, SeedProfile,
                      ShootConfig, SincBasis, SincMap, ThomasFermiProblem,
                      shoot, solve_problem)
from halfline.cli import (PRESET_CASES, main, parse_config,  # noqa: E402
                          run_case, to_problem_spec)
from halfline.hermite import mapped_trapezoid_rule  # noqa: E402
from halfline.newton import newton_solve  # noqa: E402

import workloads  # noqa: E402  (perfbench's seeded sweep)

FILM = ["--problem", "fluid", "--b1", "0.6", "--b2", "0.1", "--b3", "0.5"]

FAILING_COMMANDS = [
    ["bogus"],
    ["oracle"],
    ["verify", "--preset", "nope"],
    ["verify", "--preset", "table3", "--cone-lambda", "0.3"],
    ["solve", "--preset", "table1-mglf", "--n", "0"],
    ["solve", *FILM, "--method", "mglf", "--n", "20", "--alpha", "nan"],
    ["solve", *FILM, "--method", "hf", "--n", "40", "--map-k", "300",
     "--seed-lambda", "0.7"],
    ["solve", *FILM, "--method", "hf", "--n", "16", "--map-k", "4",
     "--seed-lambda", "0.678301"],
    ["solve", *FILM, "--method", "sf", "--n", "800", "--mesh-h", "1",
     "--seed-lambda", "0.47"],
    ["solve", *FILM, "--method", "sf", "--n", "3", "--mesh-h", "1e-300",
     "--seed-lambda", "0.47"],
    ["solve", "--problem", "cone", "--cone-lambda", "0.5", "--method", "mglf",
     "--n", "2", "--alpha", "1", "--scale-L", "1"],
]

# with an --out path in a missing directory
UNWRITABLE_OUT = [
    ["solve", "--preset", "table2-mglf"],
    ["verify", "--preset", "table2-mglf"],
    ["oracle", "--problem", "thomas-fermi"],
]
# refused verify runs, with a writable --out path
REFUSED_VERIFY = [
    ["verify", "--problem", "thomas-fermi", "--method", "mglf", "--n", "7",
     "--alpha", "1", "--scale-L", "0.675"],
    ["verify", "--preset", "table1-mglf", "--abscissas", "0.5"],
]


# max|F| 4.2e-8, 7.4e-6, 8.3e-4 and 2.0e-8; relative to the rows of the
# last Jacobian 1.7e-15, 3.0e-5, 7.1e-10 and 1.6e-10
VERDICT_RUNS = [
    ["--preset", "table1-sf", "--seed-lambda", "9"],
    ["--preset", "table2-hf", "--map-k", "3.5", "--seed-lambda", "5"],
    ["--preset", "table1-hf", "--map-k", "2.5", "--seed-lambda", "9"],
    ["--preset", "table2-sf", "--mesh-h", "2", "--seed-lambda", "1"],
]


def _film_seed(a):
    return SeedProfile(SeedKind.RATIONAL_QUADRATIC, a)


FAILING_SOLVES = [
    ProblemSpec(FluidParams.from_b1_b3(0.6, 0.5), HermiteBasis(16, 4.0),
                _film_seed(0.678301)),
    ProblemSpec(FluidParams.from_b1_b3(0.6, 0.5), HermiteBasis(5, 1e-300),
                _film_seed(0.678301)),
    ProblemSpec(FluidParams.from_b1_b3(0.6, 0.5), SincBasis(3, 1e-300),
                _film_seed(0.47)),
    ProblemSpec(FluidParams.from_b1_b3(0.6, 0.5), SincBasis(800, 1.0),
                _film_seed(0.47)),
    ProblemSpec(ConeParams(0.5), LaguerreBasis(2, 1.0, 1.0)),
]

SHOT = [("film", FluidParams(0.6, 0.1, 0.5)),
        ("screening", ThomasFermiProblem()),
        ("cone 0", ConeParams(0.0)), ("cone 0.5", ConeParams(0.5)),
        ("cone 1", ConeParams(1.0))]
# every grid holds at least 29,951 points (screening, 0.05 to 30)
TRAJECTORY_INDICES = (0, 1, 2, 10, 100, 1000, 5000, 10000, 20000, -1)

TABULATED = [LaguerreBasis(12, 1.0, 0.8), HermiteBasis(12, 0.9), SincBasis(8, 0.7),
             SincBasis(8, 0.7, SincMap.LOG)]


def header(title):
    print("#### %s" % title)


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    code, out, err = call_cli(argv)
    header(" ".join(argv))
    print("exit %d" % code)
    sys.stdout.write(out)
    sys.stdout.write(err)


def run_cli_out(argv, target, tmp):
    """Run argv with --out target and say whether the file was left; the
    temporary directory tmp reads $TMP, and an exception that escapes main
    is printed, so every later section still runs."""
    header(" ".join(argv + ["--out", target.replace(tmp, "$TMP")]))
    try:
        code, out, err = call_cli(argv + ["--out", target])
        print("exit %d" % code)
        sys.stdout.write((out + err).replace(tmp, "$TMP"))
    except Exception as exc:
        print("uncaught %s: %s" % (type(exc).__name__, str(exc).replace(tmp, "$TMP")))
    print("csv left behind: %s" % os.path.exists(target))


def hexes(values):
    return " ".join(float(v).hex() for v in values)


def main_snapshot():
    for command in ("verify", "solve"):
        for name, lam in PRESET_CASES:
            extra = [] if lam is None else ["--cone-lambda", repr(lam)]
            run_cli(command, "--preset", name, *extra)
    for name, lam in PRESET_CASES:
        flags = {"preset": name}
        if lam is not None:
            flags["cone-lambda"] = repr(lam)
        header("preset %s%s: solution, history and slope row"
               % (name, "" if lam is None else " --cone-lambda %r" % lam))
        cfg = parse_config(flags=flags)
        report = solve_problem(to_problem_spec(cfg))[1]
        print("%d %s" % (report.iterations, hexes(report.solution)))
        print("  history %s" % hexes(report.history))
        print("  slope row %s" % hexes(run_case(cfg)[-1]))
    run_cli("verify", "--preset", "table3", "--cone-lambda", "0.333333")
    run_cli("oracle", *FILM)
    run_cli("oracle", "--problem", "thomas-fermi")
    run_cli("oracle", "--problem", "cone", "--cone-lambda", "0.5")
    run_cli("list-presets")
    for name, problem in SHOT:
        header("shoot(%s)" % name)
        slope, (xs, states) = shoot(problem)
        print(float(slope).hex())
        print("  states sha256 %s" % hashlib.sha256(states.tobytes()).hexdigest())
        for i in TRAJECTORY_INDICES:
            print("  %d %s %s" % (i, float(xs[i]).hex(), hexes(states[i])))
    header("shoot(FluidParams(0, 0, 9), ShootConfig(z_max=10.0))")
    try:
        print(float(shoot(FluidParams(0, 0, 9), ShootConfig(z_max=10.0))[0]).hex())
    except halfline.HalflineError as exc:
        print("%s: %s" % (type(exc).__name__, exc))
    for argv in FAILING_COMMANDS:
        run_cli(*argv)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in UNWRITABLE_OUT:
            run_cli_out(argv, os.path.join(tmp, "absent", "x.csv"), tmp)
        for argv in REFUSED_VERIFY:
            run_cli_out(argv, os.path.join(tmp, "x.csv"), tmp)
    for argv in VERDICT_RUNS:
        code, out, err = call_cli(["solve", *argv])
        header("solve %s (last line)" % " ".join(argv))
        print("exit %d" % code)
        print((err or out).splitlines()[-1])
    for spec in FAILING_SOLVES:
        header("solve_problem(%r)" % spec)
        try:
            solve_problem(spec)
            print("no error")
        except halfline.HalflineError as exc:
            print("%s: %s" % (type(exc).__name__, exc))
    for seed in (1, 3, 5):
        header("sweep seed %d" % seed)
        for case in workloads.sweep_cases(seed):
            reports, s_lag, s_sinc, gap = workloads.run_sweep(case)
            print(hexes(case[:2]), case[2], hexes([s_lag, s_sinc, gap]))
            for r in reports:
                print("  %d %s" % (r.iterations, hexes(r.solution)))
                print("    history %s" % hexes(r.history))
    for N, L in ((8, 1.0), (20, 0.99)):
        header("LaguerreBasis(%d, 1.0, %g).quadrature()" % (N, L))
        for values in LaguerreBasis(N, 1.0, L).quadrature():
            print(hexes(values))
    for N, k in ((6, 0.9), (16, 4.0)):
        header("mapped_trapezoid_rule(HermiteBasis(%d, %g))" % (N, k))
        for values in mapped_trapezoid_rule(HermiteBasis(N, k)):
            print(hexes(values))
    for basis in TABULATED:
        header("%r.tables(xs, 3)" % basis)
        xs = np.concatenate([[0.0, 1e-12, 1e-3], basis.nodes(),
                             np.linspace(0.05, 12.0, 17), [80.0, 700.0, 1e6]])
        for order in basis.tables(xs, 3):
            for row in order:
                print(hexes(row))
    header("newton_solve on tanh(x) = 0.3, y^3 + y = 1.5")
    report = newton_solve(
        lambda v: np.array([np.tanh(v[0]) - 0.3, v[1] ** 3 + v[1] - 1.5]),
        lambda v: np.diag([1.0 - np.tanh(v[0]) ** 2, 3.0 * v[1] ** 2 + 1.0]),
        np.array([2.0, 1.0]))
    print(report.iterations, report.converged)
    print(hexes(report.history))
    print(hexes(report.solution))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        header("demos/%s" % demo.name)
        sys.stdout.flush()
        run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=300)
        print("exit %d" % run.returncode)
        sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main_snapshot()
