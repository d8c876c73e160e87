"""Command-line front end: solve, verify, oracle, list-presets.

Configuration is a flat ``key=value`` store assembled from three layers, each
overriding the one before it: a named preset, an optional config file, and
command-line flags.  Every preset reproduces one published comparison table
with the parameters printed alongside it; ``verify`` re-solves the case and
checks the result against the embedded copy of that table.

Exit codes: 0 success / verification PASS, 1 verification FAIL, 2 usage or
configuration error (an unwritable --out path included), 3 solver or
integrator failure.  A run that exits 2 or 3 writes no CSV, to a file or to
standard output.  Each library warning is one ``warning:`` line on stderr.
"""

import dataclasses
import math
import sys
import textwrap
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, HalflineError, SolverError, UsageError
from .hermite import HermiteBasis
from .laguerre import LaguerreBasis
from .problems import (
    ConeParams,
    FluidParams,
    ProblemSpec,
    SeedKind,
    SeedProfile,
    ThomasFermiProblem,
    derived_slope,
    solve_problem,
)
from .reference import TABLE1, TABLE2, TABLE3, TABLE4, TABLE5, TABLE6, TABLE7
from .shooting import shoot
from .sinc import SincBasis

# ---------------------------------------------------------------------------
# the key table


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: problem, discretization, and I/O choices.

    Each field is a key (``scale_L`` is the key ``scale-L``) annotated with
    the type its value parses to; None leaves the key unset.
    """

    preset: str = None
    problem: str = None
    method: str = None
    n: int = None
    alpha: float = None
    scale_L: float = None
    map_k: float = None
    mesh_h: float = None
    seed_lambda: float = None
    seed_beta: float = None
    b1: float = None
    b2: float = None
    b3: float = None
    cone_lambda: float = None
    abscissas: tuple = None     # of floats, comma-separated in text
    out: str = None
    tol: float = None


_KEY_TYPES = {f.name.replace("_", "-"): f.type
              for f in dataclasses.fields(RunConfig)}

# keys any pairing accepts; every other key belongs to a problem or a method
_GENERAL_KEYS = ("preset", "problem", "method", "abscissas", "out", "tol")


def _value(cfg, key):
    return getattr(cfg, key.replace("-", "_"))


def _coerce(key, raw):
    """Convert one raw value to the key's type.

    Numbers must be finite and abscissas non-negative: a NaN or infinite
    parameter only fails deep in a solve, and an infinite tol passes any run.
    """
    if key not in _KEY_TYPES:
        raise UsageError("unknown key %r" % key)
    kind, text = _KEY_TYPES[key], str(raw).strip()
    try:
        if kind is tuple:
            value = tuple(float(t) for t in text.split(",") if t.strip())
            valid = all(0.0 <= x < math.inf for x in value)
        else:
            value = kind(text)
            valid = kind is not float or math.isfinite(value)
    except ValueError:
        valid = False
    if not valid:
        raise UsageError("bad value %r for key %r" % (text, key))
    return value


# ---------------------------------------------------------------------------
# the problem x method table


class _Problem(NamedTuple):
    equation: type      # built from the values of ``keys``, in order
    keys: tuple
    grid: object        # reference table: default grid and verify profile
    seed_key: str       # the seed parameter of the seeded methods
    seeds: dict         # seeded method -> SeedKind


_PROBLEMS = {
    "fluid": _Problem(FluidParams, ("b1", "b2", "b3"), TABLE1, "seed-lambda",
                      {"hf": SeedKind.RATIONAL_QUADRATIC,
                       "sf": SeedKind.RATIONAL_QUADRATIC}),
    # the screening profile decays slowly; the linear rational seed shares
    # that tail, the quadratic one dies off too fast for the translates
    "thomas-fermi": _Problem(ThomasFermiProblem, (), TABLE2, "seed-lambda",
                             {"hf": SeedKind.RATIONAL_QUADRATIC,
                              "sf": SeedKind.RATIONAL_LINEAR}),
    "cone": _Problem(ConeParams, ("cone-lambda",), TABLE6, "seed-beta",
                     {"hf": SeedKind.CONE_RATIONAL,
                      "sf": SeedKind.CONE_RATIONAL}),
}

# method -> (basis class, the keys of its leading arguments, problem attributes after them)
_METHODS = {
    "mglf": (LaguerreBasis, ("n", "alpha", "scale-L"), ()),
    "hf": (HermiteBasis, ("n", "map-k"), ()),
    "sf": (SincBasis, ("n", "mesh-h"), ("sinc_map",)),
}


def _row(table, what, name):
    if name is None:
        raise UsageError("missing required key %r (%s)"
                         % (what, ", ".join(table)))
    if name not in table:
        raise UsageError("unknown %s %r (expected one of %s)"
                         % (what, name, ", ".join(table)))
    return table[name]


def _validate(cfg):
    """Require every key of the problem, and of the method and its seed if a
    method is configured; reject every other key that is not general."""
    problem = _row(_PROBLEMS, "problem", cfg.problem)
    label, required = "problem %r" % cfg.problem, problem.keys
    if cfg.method is not None:
        family, keys, _ = _row(_METHODS, "method", cfg.method)
        required += keys + ((problem.seed_key,) if family.seeded else ())
        label += " with method %r" % cfg.method
    missing = [k for k in required if _value(cfg, k) is None]
    if missing:
        raise UsageError("%s requires %s" % (label, ", ".join(missing)))
    allowed = _GENERAL_KEYS + required
    for key in _KEY_TYPES:
        if key not in allowed and _value(cfg, key) is not None:
            raise UsageError("key %r does not apply to %s" % (key, label))
    if cfg.n is not None and cfg.n < 1:
        raise UsageError("n must be a positive integer, got %r" % cfg.n)
    if cfg.tol is not None and not cfg.tol > 0:
        raise UsageError("tol must be positive, got %r" % cfg.tol)


def _equation(cfg):
    """The configured equation object."""
    problem = _PROBLEMS[cfg.problem]
    return problem.equation(*(_value(cfg, k) for k in problem.keys))


def to_problem_spec(cfg):
    """Materialize the validated RunConfig as a solvable ProblemSpec."""
    problem = _PROBLEMS[cfg.problem]
    family, keys, attributes = _row(_METHODS, "method", cfg.method)
    basis = family(*(_value(cfg, k) for k in keys),
                   *(getattr(problem.equation, a) for a in attributes))
    seed = (SeedProfile(problem.seeds[cfg.method], _value(cfg, problem.seed_key))
            if family.seeded else None)
    return ProblemSpec(_equation(cfg), basis, seed)


# ---------------------------------------------------------------------------
# the preset table


class _Preset(NamedTuple):
    blurb: str
    tols: tuple         # verify (profile, slope) tolerances
    fields: dict        # fixed RunConfig fields; the method names the column
    cone: object = None     # cone presets: table of parameters by lambda row
    columns: dict = {}  # RunConfig field -> the cone table column it reads
    x_max: float = math.inf     # profile rows compared: x <= x_max; None: none


# The lam = 1/4 row of the composite-translate cone table prints a seed
# parameter (1.787) inconsistent with its own slope column (0.9100000; the
# method's slope equals half the seed parameter).  The preset uses the value
# the slope column implies so that the documented run reproduces the table.
# (table id, lambda row, column) -> value the preset reads in its place
_T5_SEED_FIX = {("T5", 0.25, "beta"): 1.8200}

_FILM = {"problem": "fluid", "b1": 0.6, "b2": 0.1, "b3": 0.5}

# Each preset's own run passes at its tolerances, except table3 at
# cone-lambda=1, where the tabulated slope is not a root of this
# discretization (see README).  The screening checks stop at x = 15, where
# the printed rows start to repeat one value.  table5 checks the slope only:
# the printed translate profiles of the cone do not correspond to this
# discretization away from the axis.
_PRESETS = {
    "table1-mglf": _Preset(
        "draining film, Laguerre-function collocation (N=20)", (5e-4, 5e-4),
        dict(_FILM, method="mglf", n=20, alpha=1.0, scale_L=0.99)),
    "table1-hf": _Preset(
        "draining film, log-mapped Hermite collocation (N=16)", (1e-3, 1e-3),
        dict(_FILM, method="hf", n=16, map_k=1.2, seed_lambda=0.678301)),
    "table1-sf": _Preset(
        "draining film, composite translates (N=17)", (2e-3, 5e-3),
        dict(_FILM, method="sf", n=17, mesh_h=1.0, seed_lambda=0.47)),
    "table2-mglf": _Preset(
        "atomic screening, Laguerre-function collocation (N=7)", (5e-4, 5e-4),
        dict(problem="thomas-fermi", method="mglf", n=7, alpha=1.0,
             scale_L=0.675), x_max=15.0),
    "table2-hf": _Preset(
        "atomic screening, log-mapped Hermite collocation (N=15)",
        (5e-3, 5e-3), dict(problem="thomas-fermi", method="hf", n=15,
                           map_k=0.9, seed_lambda=1.588071), x_max=15.0),
    "table2-sf": _Preset(
        "atomic screening, composite translates (N=11)", (5e-4, 3e-2),
        dict(problem="thomas-fermi", method="sf", n=11, mesh_h=1.0,
             seed_lambda=0.77), x_max=15.0),
    "table3": _Preset(
        "heated cone sweep, Laguerre (pass --cone-lambda; default 0.25)",
        (2e-3, 1e-3), dict(problem="cone", method="mglf", n=13), TABLE3,
        {"alpha": "alpha", "scale_L": "L"}, 2.0),
    "table4": _Preset(
        "heated cone sweep, Hermite (pass --cone-lambda; default 0.25)",
        (1e-3, 1e-3), dict(problem="cone", method="hf", n=20), TABLE4,
        {"map_k": "k", "seed_beta": "beta"}),
    "table5": _Preset(
        "heated cone sweep, translates (pass --cone-lambda; default 0.25)",
        (None, 1e-4), dict(problem="cone", method="sf", n=30), TABLE5,
        {"mesh_h": "h", "seed_beta": "beta"}, None),
}

PRESET_NAMES = tuple(_PRESETS)

# the 24 preset cases (name, cone-lambda or None): each fixed preset once, each
# cone preset at every row of its table
PRESET_CASES = [(name, lam) for name, preset in _PRESETS.items()
                for lam in (preset.cone.abscissas() if preset.cone else [None])]

# the printed cone profiles f'(eta), by cone-lambda row
_CONE_PROFILES = {0.25: TABLE6, 0.75: TABLE7}


def _cone_row(table, lam, preset):
    """Match a cone exponent against a table row (tolerantly, for 1/3)."""
    for a in table.abscissas():
        if abs(a - lam) <= 1e-6:
            return a
    raise UsageError(
        "cone-lambda %r has no tabulated parameters in preset %r "
        "(tabulated: 0, 0.25, 1/3, 0.5, 0.75, 1)" % (lam, preset))


def _expand_preset(name, cone_lambda):
    """Return the RunConfig fields a named preset sets."""
    if name not in _PRESETS:
        raise UsageError("unknown preset %r (see list-presets)" % name)
    preset = _PRESETS[name]
    fields = dict(preset.fields, preset=name)
    table = preset.cone
    if table is not None:
        row = _cone_row(table, 0.25 if cone_lambda is None else cone_lambda,
                        name)
        fields["cone_lambda"] = row
        for field, column in preset.columns.items():
            fields[field] = _T5_SEED_FIX.get(
                (table.table_id, row, column), table.value(row, column))
    return fields


# ---------------------------------------------------------------------------
# parsing

def parse_kv_text(text):
    """Parse ``key=value`` lines (# comments, blank lines allowed)."""
    store = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError("line %d is not key=value: %r" % (lineno, body))
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise UsageError("unknown key %r on line %d" % (key, lineno))
        store[key] = value
    return store


def parse_config(text=None, flags=None):
    """Assemble a RunConfig from config text plus flag overrides; every value
    is coerced before the preset expands."""
    given = dict(parse_kv_text(text) if text else {}, **(flags or {}))
    given = {k.replace("-", "_"): _coerce(k, v) for k, v in given.items()}
    fields = {}
    if given.get("preset") is not None:
        fields = _expand_preset(given["preset"], given.get("cone_lambda"))
        if "cone_lambda" in fields:     # the matched row is the lambda solved
            given["cone_lambda"] = fields["cone_lambda"]
    cfg = RunConfig(**dict(fields, **given))
    _validate(cfg)
    return cfg


def preset_spec(name, cone_lambda=None):
    """The ProblemSpec a named preset configures, at its cone row cone_lambda
    if one is given."""
    flags = {"preset": name}
    if cone_lambda is not None:
        flags["cone-lambda"] = cone_lambda
    return to_problem_spec(parse_config(flags=flags))


# ---------------------------------------------------------------------------
# solution rows and CSV

CSV_HEADER = ("abscissa", "f", "fprime", "residual")


def run_case(cfg):
    """Solve the configured case; its rows at the evaluation grid, then the
    slope row: abscissa 0, the boundary value, the derived initial slope and
    the final collocation residual norm."""
    spec = to_problem_spec(cfg)
    e, report = solve_problem(spec)
    xs = np.asarray(cfg.abscissas if cfg.abscissas is not None
                    else _PROBLEMS[cfg.problem].grid.abscissas(), dtype=float)
    f = e.derivatives(xs, spec.problem.order)
    rows = list(zip(xs.tolist(), f[0].tolist(), f[1].tolist(),
                    spec.problem.residual(xs, f).tolist()))
    # f(0) from the order-1 axis tables that derived_slope reads
    rows.append((0.0, e.derivatives(0.0, 1)[0], derived_slope(e, spec),
                 report.final_residual_norm))
    return rows


def fmt9(v):
    """Nine significant digits; fixed point when the exponent allows it."""
    v = float(v)
    if v == 0.0:
        return "0.00000000"
    if not math.isfinite(v):
        raise ConfigurationError("refusing to format non-finite value %r" % v)
    m = int(("%.8e" % v).split("e")[1])     # the decade after rounding
    if -5 <= m <= 8:
        return "%.*f" % (8 - m, v)
    return "%.8e" % v


def csv_text(rows):
    """The rows as deterministic CSV (LF line endings) under CSV_HEADER; a row
    that cannot be formatted raises before any text exists."""
    if not rows:
        raise ConfigurationError("refusing to emit an empty solution table")
    lines = [",".join(CSV_HEADER)] + [",".join(map(fmt9, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows, path):
    """Write the rows to path; rows that cannot be formatted leave no file."""
    text = csv_text(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError("cannot write %r: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# verification against the embedded tables

def verify_case(cfg, rows):
    """Compare run_case's rows for a preset's cfg against its reference column.

    Film and screening presets compare f with their problem's table; cone
    presets compare f' with the printed profile of their cone-lambda row, if
    there is one; every preset compares the slope row's f'.  Returns
    (report_lines, passed).
    """
    preset = _row(_PRESETS, "preset", cfg.preset)
    column = preset.fields["method"]
    if preset.cone is None:
        profile, idx = _PROBLEMS[preset.fields["problem"]].grid, 1
        slope_ref = profile.slopes[column]
    else:
        profile, idx = _CONE_PROFILES.get(cfg.cone_lambda), 2
        slope_ref = preset.cone.value(cfg.cone_lambda, column)
    profile_tol, slope_tol = preset.tols
    if cfg.tol is not None:
        profile_tol, slope_tol = cfg.tol, cfg.tol

    label = cfg.preset
    if cfg.problem == "cone":
        label += " (cone-lambda=%g)" % cfg.cone_lambda
    lines = ["verify %s" % label]
    failures = 0
    if profile is not None and preset.x_max is not None:
        by_x = {row[0]: row[idx] for row in rows[:-1]}
        errs = []
        for x, ref in profile.column(column):
            if x > preset.x_max:
                continue
            if x not in by_x:
                raise ConfigurationError(
                    "reference abscissa %g missing from the solution table "
                    "(evaluate on the default grid to verify)" % x)
            errs.append((x, by_x[x], ref, abs(by_x[x] - ref)))
        lines.append("column %s: max abs error %.3e over %d rows (tol %.1e)"
                     % (CSV_HEADER[idx], max(e[3] for e in errs), len(errs),
                        profile_tol))
        for x, got, ref, err in errs:
            if err > profile_tol:
                failures += 1
                lines.append("  row %g: |%.9g - %.9g| = %.3e exceeds %.1e"
                             % (x, got, ref, err, profile_tol))

    slope = rows[-1][2]
    slope_err = abs(slope - slope_ref)
    lines.append("slope: %.9g vs reference %.9g, abs error %.3e (tol %.1e)"
                 % (slope, slope_ref, slope_err, slope_tol))
    if slope_err > slope_tol:
        failures += 1
        lines.append("  slope error %.3e exceeds %.1e" % (slope_err, slope_tol))

    passed = failures == 0
    lines.append("overall: %s" % ("PASS" if passed else "FAIL"))
    return lines, passed


# ---------------------------------------------------------------------------
# command dispatch

_USAGE = """\
usage: halfline <command> [config-file] [--key value ...]

commands:
  solve         solve the configured case and emit a CSV solution table
  verify        solve, compare against the preset's reference table (PASS/FAIL)
  oracle        integrate the problem independently; print the initial slope
  list-presets  list the named presets and what they reproduce

keys (as --flags or key=value lines in the config file; flags win):
%s
""" % textwrap.fill(" ".join(_KEY_TYPES), 76,
                    initial_indent="  ", subsequent_indent="  ")


def _parse_argv(args):
    """Split argv into (config_text, flags). First bare token is a file."""
    flags, text = {}, None
    tokens = iter(args)
    for tok in tokens:
        if tok.startswith("--"):
            if tok[2:] not in _KEY_TYPES:
                raise UsageError("unknown flag %r" % tok)
            flags[tok[2:]] = next(tokens, None)
            if flags[tok[2:]] is None:
                raise UsageError("flag %r expects a value" % tok)
        elif text is None:
            try:
                with open(tok, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError("cannot read config file %r: %s" % (tok, exc))
        else:
            raise UsageError("unexpected argument %r" % tok)
    return text, flags


def _cmd_solve(cfg, stdout):
    rows = run_case(cfg)
    if cfg.out:
        write_csv(rows, cfg.out)
        stdout.write("wrote %d rows to %s\n" % (len(rows), cfg.out))
    else:
        stdout.write(csv_text(rows))
    return 0


def _cmd_verify(cfg, stdout):
    if cfg.preset is None:
        raise ConfigurationError(
            "verify needs a preset naming the reference table")
    rows = run_case(cfg)
    lines, passed = verify_case(cfg, rows)
    if cfg.out:
        write_csv(rows, cfg.out)
    stdout.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def _cmd_oracle(cfg, stdout):
    slope, (xs, states) = shoot(_equation(cfg))
    text = "oracle slope: %s\n" % fmt9(slope)
    if cfg.out:
        rows = [(x, y[0], y[1], 0.0) for x, y in zip(xs[::100], states[::100])]
        write_csv(rows, cfg.out)
        text += "wrote %d trajectory rows to %s\n" % (len(rows), cfg.out)
    stdout.write(text)
    return 0


def _cmd_list_presets(args, stdout):
    if args:
        raise UsageError("list-presets takes no arguments")
    for name, preset in _PRESETS.items():
        stdout.write("%-12s  %s\n" % (name, preset.blurb))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "list-presets": _cmd_list_presets,
}


def main(argv=None, stdout=None, stderr=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if not argv or argv[0] in ("-h", "--help", "help"):
        stdout.write(_USAGE)
        return 0 if argv else 2
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        stderr.write("error: unknown command %r\n%s" % (command, _USAGE))
        return 2
    with warnings.catch_warnings():     # each library warning as one line
        warnings.showwarning = lambda message, *_: stderr.write("warning: %s\n" % message)
        try:
            if command == "list-presets":
                return handler(argv[1:], stdout)
            return handler(parse_config(*_parse_argv(argv[1:])), stdout)
        except (UsageError, ConfigurationError) as exc:
            stderr.write("error: %s\n" % exc)
            return 2
        except SolverError as exc:
            stderr.write("solver failure: %s\n" % exc)
            return 3
        except HalflineError as exc:
            stderr.write("failure: %s\n" % exc)
            return 3


if __name__ == "__main__":
    raise SystemExit(main())
