"""The pairing protocol: a Problem and a trial family defined here, with no
edit to the library, shoot, integrate and solve; an incomplete problem, one
with no axis condition and a family that does not declare seeded, or any
other member of the protocol, are refused."""

import math

import numpy as np
import pytest

from halfline import (
    ConfigurationError,
    Expansion,
    HermiteBasis,
    LaguerreBasis,
    Problem,
    ProblemSpec,
    SeedKind,
    SeedProfile,
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


class DampedPowers:
    """x^j e^(-x), j = 0..n-1: an unseeded family that holds e^(-x) and
    subclasses no family of the library."""

    label = "damped powers"
    seeded = False
    slope_step = None

    def __init__(self, n):
        self.n = n

    @property
    def dimension(self):
        return self.n

    def nodes(self):
        return np.linspace(0.5, 6.0, self.n)

    def tables(self, xs, M):
        """By Leibniz, d^m (x^j e^-x) = e^-x sum_k C(m, k) (-1)^(m-k) (x^j)^(k)."""
        x, j = np.asarray(xs, dtype=float).reshape(-1), np.arange(self.n)[:, None]
        out = np.zeros((M + 1, self.n, x.size))
        for m in range(M + 1):
            for k in range(m + 1):
                power = np.prod([j - i for i in range(k)], axis=0) * x ** np.maximum(j - k, 0)
                out[m] += math.comb(m, k) * (-1) ** (m - k) * power
        return out * np.exp(-x)


def test_a_fourth_problem_shoots_on_the_written_out_walk(monkeypatch):
    walker, methods = shooting._walker, set()
    monkeypatch.setattr(shooting, "_walker",
                        lambda method, n: methods.add(method) or walker(method, n))
    slope, (xs, states) = shoot(Decay())
    assert methods == {Decay.top_derivative}
    assert slope.hex() == (-1.0).hex()
    assert np.max(np.abs(states[:, 0] - np.exp(-xs))[xs <= 10.0]) <= 1e-9


def test_a_fourth_problem_integrates_as_the_call_path():
    method = Decay().top_derivative
    assert "accel(" not in shooting._walk_source(2, Decay.top_derivative)
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


def test_a_fourth_family_solves_with_no_library_edit():
    spec = ProblemSpec(Decay(), DampedPowers(6))
    e, report = solve_problem(spec)
    xs = np.linspace(0.0, 10.0, 101)
    assert report.converged
    assert np.max(np.abs(e(xs) - np.exp(-xs))) <= 1e-9
    assert abs(derived_slope(e, spec) + 1.0) <= 1e-9


def test_axis_conditions_given_as_lists_key_as_tuples():
    # the memo keys a discretization on the axis rows, so rows given as lists
    # share the entry of the same rows given as tuples
    listed = type("Listed", (Decay,), {"axis_conditions": [[0, 1.0]]})
    e, _ = solve_problem(ProblemSpec(Decay(), DampedPowers(6)))
    listed_e, report = solve_problem(ProblemSpec(listed(), DampedPowers(6)))
    assert report.converged
    assert np.array_equal(listed_e.coefficients, e.coefficients)


def test_a_family_that_does_not_declare_seeded_is_refused():
    kind = type("Undeclared", (), {k: v for k, v in vars(DampedPowers).items()
                                   if k != "seeded"})
    with pytest.raises(ConfigurationError, match="^unknown basis kind: "):
        ProblemSpec(Decay(), kind(6))


@pytest.mark.parametrize("drop, values, match", [
    *(pytest.param(m, {}, "does not declare %s$" % m, id=m)
      for m in ("label", "dimension", "nodes", "tables", "slope_step")),
    *(pytest.param(None, {"slope_step": v}, "slope_step of .* finite real > 0", id=repr(v))
      for v in (0.0, -1e-3, math.inf, math.nan, "1e-3", True))])
def test_a_family_is_admitted_by_what_it_declares(drop, values, match):
    kind = type("Partial", (), {**{k: v for k, v in vars(DampedPowers).items() if k != drop},
                                **values})
    with pytest.raises(ConfigurationError, match=match):
        ProblemSpec(Decay(), kind(6))


@pytest.mark.parametrize("call", [
    pytest.param(lambda b: solve_problem(ProblemSpec(Decay(), b)), id="solve"),
    pytest.param(lambda b: Expansion(b, np.zeros(6))(1.0), id="evaluate")])
def test_a_family_with_no_instance_dict_is_refused_by_name(call):
    slotted = type("Slotted", (), {**{k: v for k, v in vars(DampedPowers).items()
                                      if k not in ("__dict__", "__weakref__")},
                                   "__slots__": ("n",)})
    with pytest.raises(ConfigurationError, match="^<.*Slotted object .* has no __dict__"):
        call(slotted(6))


def _laguerre_spec(problem):
    return ProblemSpec(problem, LaguerreBasis(20, 1.0, 1.0))


@pytest.mark.parametrize("member, admit", [
    *(pytest.param(m, shoot, id=m) for m in ("launch", "mismatch", "top_derivative")),
    *(pytest.param(m, _laguerre_spec, id=m)
      for m in ("label", "order", "axis_conditions", "residual", "partials"))])
def test_an_incomplete_problem_is_refused_by_name(member, admit):
    kind = type("Incomplete", (Problem,),
                {k: v for k, v in vars(Decay).items() if k != member})
    with pytest.raises(ConfigurationError, match="does not declare %s$" % member):
        admit(kind())


@pytest.mark.parametrize("basis, seed", [
    (HermiteBasis(16, 1.2), SeedProfile(SeedKind.RATIONAL_QUADRATIC, 0.7)),
    (LaguerreBasis(8, 1.0, 1.0), None)], ids=["seeded", "unseeded"])
def test_a_problem_with_no_axis_condition_is_refused(basis, seed):
    kind = type("Free", (Decay,), {"axis_conditions": ()})
    with pytest.raises(ConfigurationError, match="does not declare axis_conditions$"):
        ProblemSpec(kind(), basis, seed)


class Exponential:
    """e^(-x) as a seed: it declares tables and nothing else."""

    def tables(self, xs, M):
        return np.array([(-1.0) ** m * np.exp(-np.asarray(xs, dtype=float))
                         for m in range(M + 1)])


def test_a_seed_is_admitted_by_what_it_declares():
    spec = ProblemSpec(Decay(), HermiteBasis(16, 1.2), Exponential())
    e, report = solve_problem(spec)
    assert report.converged
    assert derived_slope(e, spec) == -1.0
    with pytest.raises(ConfigurationError, match="needs tables, got <object object"):
        ProblemSpec(Decay(), HermiteBasis(16, 1.2), object())


@pytest.mark.parametrize("call", [
    pytest.param(lambda b: solve_problem(ProblemSpec(Decay(), b)), id="solve"),
    pytest.param(lambda b: Expansion(b, np.zeros(6))(1.0), id="evaluate")])
@pytest.mark.parametrize("extra", [[1], ([1],)], ids=["list", "list-in-tuple"])
def test_an_unhashable_family_parameter_is_refused_by_name(call, extra):
    basis = DampedPowers(6)
    basis.extra = extra
    with pytest.raises(ConfigurationError, match=": extra does not hash"):
        call(basis)
