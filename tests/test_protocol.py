"""The problem protocol: a Problem defined here, with no edit to the library,
shoots, integrates and solves; an incomplete one is refused by name."""

import numpy as np
import pytest

from halfline import (
    ConfigurationError,
    LaguerreBasis,
    Problem,
    ProblemSpec,
    derived_slope,
    integrate,
    shoot,
    shooting,
    solve_problem,
)


class Decay(Problem):
    """f'' = f, f(0) = 1, decaying as e^(-x): its slope is -1."""

    label = "decay"
    order = 2
    axis_conditions = ((0, 1.0),)

    def residual(self, x, f):
        return f[2] - f[0]

    def partials(self, x, f):
        return [-1.0, 0.0, 1.0]

    def top_derivative(self, x, f, fp):
        return f

    def launch(self, s):
        return 1.0, s

    def mismatch(self, x, y):
        """f' + f, zero on e^(-x)."""
        return y[1] + y[0]


def test_a_fourth_problem_shoots_on_the_written_out_walk(monkeypatch):
    walker, kinds = shooting._walker, set()
    monkeypatch.setattr(shooting, "_walker", lambda kind, n: kinds.add(kind) or walker(kind, n))
    slope, (xs, states) = shoot(Decay())
    assert kinds == {Decay}
    assert slope.hex() == (-1.0).hex()
    assert np.max(np.abs(states[:, 0] - np.exp(-xs))[xs <= 10.0]) <= 1e-9


def test_a_fourth_problem_integrates_as_the_call_path():
    method = Decay().top_derivative
    assert "accel(" not in shooting._walk_source(2, Decay)
    _, written = integrate(method, (1.0, -1.0), 0.0, 8.0, 1e-2)
    _, called = integrate(lambda *args: method(*args), (1.0, -1.0), 0.0, 8.0, 1e-2)
    assert np.array_equal(written, called)


def test_a_fourth_problem_solves_on_laguerre():
    spec = ProblemSpec(Decay(), LaguerreBasis(20, 1.0, 1.0))
    e, report = solve_problem(spec)
    xs = np.linspace(0.0, 10.0, 101)
    assert report.converged
    assert np.max(np.abs(e(xs) - np.exp(-xs))) <= 1e-9
    assert abs(derived_slope(e, spec) + 1.0) <= 1e-9


@pytest.mark.parametrize("member", ["launch", "mismatch", "top_derivative"])
def test_an_incomplete_problem_is_refused_by_name(member):
    kind = type("Incomplete", (Problem,),
                {k: v for k, v in vars(Decay).items() if k != member})
    with pytest.raises(ConfigurationError, match="does not declare %s$" % member):
        shoot(kind())
