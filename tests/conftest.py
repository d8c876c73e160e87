"""Shared fixtures: session-scoped caches for solves and shooting runs, and
the one list of preset cases.

The benchmark cases are solved once per test session and reused across the
unit, problem, and acceptance tests; likewise each shooting integration runs
once.  Each case is the configuration of a CLI preset (``verify --preset``),
built by halfline.cli.preset_spec through the CLI's own config path, so the
acceptance gate solves the presets' own configurations and states none of them
a second time.
"""

import pytest

from halfline import ConeParams, FluidParams, TABLE3, shoot, solve_problem
from halfline.cli import PRESET_CASES, preset_spec

FLUID_B = (0.6, 0.1, 0.5)

# the printed Laguerre slope of the lam = 1 cone row is not what the row's own
# (N, alpha, L) produce: that solve lands on the row's RK entry, and the
# printed slope comes from (alpha, L) = (1.0, 1.1) instead (see the
# halfline.reference module docstring)
T3_SLOPE = {row: TABLE3.value(row, "rk" if row == 1.0 else "mglf")
            for row in TABLE3.abscissas()}

CONE_LAMBDAS = TABLE3.abscissas()

# the cone preset of each method; the film and screening presets are
# table1-<method> and table2-<method>
_CONE_PRESETS = {"mglf": "table3", "hf": "table4", "sf": "table5"}

__all__ = ["PRESET_CASES"]     # the 24 preset cases, re-exported for the suites


def preset_id(case):
    """A preset case's test id: the name, and its cone row if it has one."""
    name, lam = case
    return name if lam is None else "%s-%g" % (name, lam)


def preset_flags(name, lam=None):
    """The flags that select a preset, at its cone row lam if one is given."""
    return {"preset": name} if lam is None else {"preset": name, "cone-lambda": repr(lam)}


def case_key(case):
    """The solve_case key of a preset case (name, lam)."""
    name, lam = case
    if lam is None:
        table, method = name.split("-")
        return ("fluid" if table == "table1" else "tf", method)
    return ("cone", next(m for m, preset in _CONE_PRESETS.items() if preset == name), lam)


def _case_spec(key):
    """The ProblemSpec of ("fluid" | "tf", method) or ("cone", method, lam),
    as the matching preset configures it."""
    problem, method = key[0], key[1]
    if problem == "cone":
        return preset_spec(_CONE_PRESETS[method], key[2])
    return preset_spec("%s-%s" % ("table1" if problem == "fluid" else "table2", method))


_SHOOT_CACHE = {}
_SOLVE_CACHE = {}


def _problem_key(problem):
    if isinstance(problem, FluidParams):
        return ("fluid", problem.b1, problem.b2, problem.b3)
    if isinstance(problem, ConeParams):
        return ("cone", problem.lam)
    return ("tf",)


def _shoot_cached(problem):
    key = _problem_key(problem)
    if key not in _SHOOT_CACHE:
        _SHOOT_CACHE[key] = shoot(problem)
    return _SHOOT_CACHE[key]


def _solve_cached(key):
    if key not in _SOLVE_CACHE:
        spec = _case_spec(key)
        e, report = solve_problem(spec)
        _SOLVE_CACHE[key] = (spec, e, report)
    return _SOLVE_CACHE[key]


@pytest.fixture(scope="session")
def solve_case():
    """solve_case(problem, method[, lam]) -> (spec, expansion, report)."""
    return lambda *key: _solve_cached(tuple(key))


@pytest.fixture(scope="session")
def oracle():
    """oracle(problem) -> (slope, (xs, states)), cached per problem."""
    return _shoot_cached


# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
