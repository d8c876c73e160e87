"""Command-line front end: parsing, presets, formatting, CSV emission,
verification flow, and exit codes."""

import io
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import halfline.cli as cli
import halfline.core
import halfline.problems
from halfline.cli import (
    PRESET_NAMES,
    csv_text,
    fmt9,
    main,
    parse_config,
    parse_kv_text,
    run_case,
    verify_case,
    write_csv,
)
from halfline.errors import ConfigurationError, ReferenceLookupError, SolverError, UsageError
from halfline.reference import TABLE1, TABLE3, ReferenceTable

from conftest import PRESET_CASES, preset_flags, preset_id


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# formatting


def test_fmt9_examples():
    assert fmt9(0.0) == "0.00000000"
    assert fmt9(1.0) == "1.00000000"
    assert fmt9(-0.678297) == "-0.678297000"
    assert fmt9(1e-12) == "1.00000000e-12"
    assert fmt9(123456789.0) == "123456789"
    assert fmt9(1234567890.0) == "1.23456789e+09"
    assert fmt9(1e-5) == "0.0000100000000"
    assert fmt9(1e-6) == "1.00000000e-06"
    # rounding that carries into the next decade
    assert fmt9(0.9999999999) == "1.00000000"
    assert fmt9(-0.99999999996) == "-1.00000000"
    assert fmt9(99999999.96) == "100000000"
    assert fmt9(999999999.96) == "1.00000000e+09"
    assert fmt9(9.99999999996e-6) == "0.0000100000000"


def test_fmt9_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        fmt9(float("inf"))
    with pytest.raises(ConfigurationError):
        fmt9(float("nan"))


def test_emit_csv_exact_bytes():
    assert csv_text([(0.0, 1.0, -0.678297, 1e-12)]) == (
        "abscissa,f,fprime,residual\n"
        "0.00000000,1.00000000,-0.678297000,1.00000000e-12\n")


def test_emit_csv_refuses_empty_table():
    with pytest.raises(ConfigurationError):
        csv_text([])


# ---------------------------------------------------------------------------
# configuration parsing


def test_preset_expansion_table1_mglf():
    cfg = parse_config(flags={"preset": "table1-mglf"})
    assert cfg.problem == "fluid" and cfg.method == "mglf"
    assert cfg.n == 20 and cfg.alpha == 1.0 and cfg.scale_L == 0.99
    assert (cfg.b1, cfg.b2, cfg.b3) == (0.6, 0.1, 0.5)


def test_preset_expansion_table3_defaults_and_row_lookup():
    cfg = parse_config(flags={"preset": "table3"})
    assert cfg.problem == "cone" and cfg.method == "mglf"
    assert cfg.cone_lambda == 0.25
    assert cfg.alpha == TABLE3.value(0.25, "alpha")
    assert cfg.scale_L == TABLE3.value(0.25, "L")


def test_cone_lambda_override_uses_tolerant_row_match():
    # the matched row is also the lambda that gets solved
    cfg = parse_config(flags={"preset": "table3",
                              "cone-lambda": "0.3333334"})
    assert cfg.alpha == TABLE3.value(1.0 / 3.0, "alpha")
    assert cfg.scale_L == TABLE3.value(1.0 / 3.0, "L")
    assert cfg.cone_lambda == 1.0 / 3.0


def test_cone_lambda_off_table_is_a_usage_error():
    with pytest.raises(UsageError, match="tabulated"):
        parse_config(flags={"preset": "table3", "cone-lambda": "0.4"})


@pytest.mark.parametrize("lookup, message", [
    (lambda: TABLE1.value(99.0, "ahmad"), "no row at abscissa 99.0 in T1"),
    (lambda: TABLE1.value(0.0, "nope"), "no column 'nope' in T1"),
    (lambda: TABLE1.column("nope"), "no column 'nope' in T1")])
def test_a_reference_lookup_miss_is_typed_and_a_key_error(lookup, message):
    with pytest.raises(KeyError, match=re.escape(message)) as info:
        lookup()
    assert isinstance(info.value, ReferenceLookupError)
    assert isinstance(info.value, ConfigurationError)


def test_a_malformed_reference_row_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"row \(1\.0,\) does not match"):
        ReferenceTable("X", ("a",), [(1.0,)])
    assert repr(TABLE1) == "ReferenceTable(T1, 19 rows)"


def test_unknown_preset_is_a_usage_error():
    with pytest.raises(UsageError, match="table9"):
        parse_config(flags={"preset": "table9"})


def test_kv_text_parsing_and_errors():
    cfg = parse_kv_text("# comment\nproblem = thomas-fermi\nn = 7\n")
    assert cfg == {"problem": "thomas-fermi", "n": "7"}
    with pytest.raises(UsageError, match="line 2"):
        parse_kv_text("n = 7\nfrobnicate = 3\n")
    with pytest.raises(UsageError):
        parse_kv_text("just words\n")


def test_flags_override_file_values():
    text = "preset=table2-mglf\nn=9\n"
    cfg = parse_config(text, {"n": "7"})
    assert cfg.n == 7
    assert cfg.problem == "thomas-fermi"


def test_numeric_coercion_errors():
    with pytest.raises(UsageError):
        parse_config(flags={"preset": "table2-mglf", "n": "seven"})
    with pytest.raises(UsageError):
        parse_config(flags={"preset": "table2-mglf", "tol": "0"})


def test_bad_cone_lambda_with_a_preset_is_a_usage_error():
    # the value is coerced before the preset reads it
    code, out, err = run_main("verify", "--preset", "table3",
                              "--cone-lambda", "abc")
    assert code == 2 and out == ""
    assert "bad value 'abc' for key 'cone-lambda'" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--preset", "table2-mglf", "--abscissas", "-1"),
    ("solve", "--preset", "table2-mglf", "--abscissas", "nan"),
    ("solve", "--preset", "table2-mglf", "--alpha", "inf"),
    ("verify", "--preset", "table2-mglf", "--tol", "inf"),
], ids=["negative-abscissa", "nan-abscissa", "infinite-alpha", "infinite-tol"])
def test_non_finite_or_negative_values_exit_2_before_solving(argv,
                                                             monkeypatch):
    def solve_not_expected(spec):
        raise AssertionError("the solver ran on a rejected configuration")
    monkeypatch.setattr(cli, "solve_problem", solve_not_expected)
    code, out, err = run_main(*argv)
    assert code == 2 and out == ""
    assert "bad value %r for key %r" % (argv[-1], argv[-2][2:]) in err


def test_abscissas_flag_parses_to_floats():
    cfg = parse_config(flags={"preset": "table2-mglf",
                              "abscissas": "0.5,1.0,2.5"})
    assert cfg.abscissas == (0.5, 1.0, 2.5)


@pytest.mark.parametrize("case", PRESET_CASES, ids=preset_id)
def test_render_config_round_trip(case):
    # the same keys as config-file text and as flags give one config
    flags = dict(preset_flags(*case), abscissas="0.5,1.0")
    cfg = parse_config(flags=flags)
    again = parse_config("".join("%s=%s\n" % item for item in flags.items()))
    assert again == cfg
    assert hash(again) == hash(cfg)


def test_validation_catches_missing_and_contradictory_keys():
    with pytest.raises(UsageError):
        parse_config(flags={"problem": "fluid", "method": "mglf",
                            "n": "8", "alpha": "1", "scale-L": "1"})
    with pytest.raises(UsageError):
        parse_config(flags={"preset": "table2-mglf", "map-k": "0.9"})
    with pytest.raises(UsageError):
        parse_config(flags={"preset": "table1-mglf", "cone-lambda": "0.25"})
    with pytest.raises(UsageError, match="unknown key 'frob'"):
        parse_config(flags={"frob": "1"})


# ---------------------------------------------------------------------------
# main() plumbing and exit codes


def test_no_arguments_prints_usage_and_exits_2():
    code, out, err = run_main()
    assert code == 2
    assert "usage" in out.lower()


def test_help_exits_0():
    code, out, err = run_main("--help")
    assert code == 0
    assert "usage" in out.lower()


def test_unknown_command_exits_2():
    code, out, err = run_main("frobnicate")
    assert code == 2
    assert "frobnicate" in err


def test_unknown_flag_exits_2():
    code, out, err = run_main("solve", "--frob", "1")
    assert code == 2
    assert "--frob" in err


def test_flag_missing_value_exits_2():
    code, out, err = run_main("solve", "--n")
    assert code == 2
    assert "expects a value" in err


def test_unreadable_config_file_exits_2(tmp_path):
    code, out, err = run_main("solve", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "cannot read" in err


def test_extra_bare_argument_exits_2(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("preset=table2-mglf\n")
    code, out, err = run_main("solve", str(p), "stray")
    assert code == 2
    assert "stray" in err


def test_list_presets_names_all_nine():
    code, out, err = run_main("list-presets")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 9
    for name in PRESET_NAMES:
        assert any(line.startswith(name) for line in lines)
    code, out, err = run_main("list-presets", "extra")
    assert code == 2


def test_the_module_runs_as_a_script():
    # python -m halfline.cli exits with main()'s status and prints what it prints
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-m", "halfline.cli", "list-presets"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == run_main("list-presets")[1]
    assert [line.split()[0] for line in run.stdout.splitlines()] == list(PRESET_NAMES)


def test_solver_failures_exit_3(monkeypatch):
    def boom(spec):
        raise SolverError("synthetic failure")
    monkeypatch.setattr(cli, "solve_problem", boom)
    code, out, err = run_main("solve", "--preset", "table2-mglf")
    assert code == 3
    assert "solver failure" in err


@pytest.mark.parametrize("argv", [
    # map constant 4 stalls the Hermite film solve after one iteration
    ("--preset", "table1-hf", "--map-k", "4"),
    # stalls at max|F| = 7.4e-6, 3.0e-5 relative to its Jacobian rows
    ("--preset", "table2-hf", "--map-k", "3.5", "--seed-lambda", "5"),
], ids=("table1-hf-k4", "table2-hf-k3.5-seed5"))
def test_unconverged_solve_exits_3_without_csv(tmp_path, argv):
    code, out, err = run_main("solve", *argv)
    assert code == 3 and out == ""
    assert "solver failure" in err and "unconverged" in err
    target = tmp_path / "stalled.csv"
    code, out, err = run_main("solve", *argv, "--out", str(target))
    assert code == 3 and not target.exists()


def test_a_vanishing_jacobian_row_exits_3_without_csv(tmp_path):
    # at h = 20 the Log map's far nodes pass 1e165, where the members'
    # derivatives and the seed's underflow to 0, and so does Jacobian row 49
    argv = ("solve", "--preset", "table5", "--mesh-h", "20")
    code, out, err = run_main(*argv)
    assert code == 3 and out == ""
    assert "solver failure" in err and "Jacobian row 49 vanishes" in err
    target = tmp_path / "dead.csv"
    code, out, err = run_main(*argv, "--out", str(target))
    assert code == 3 and out == "" and not target.exists()


def test_a_translate_film_with_nodes_below_1e10_solves():
    # at N = 25 and h = 1 the first LogSinh node is 3.8e-11; every x > 0 is
    # tabulated, so the film converges near the oracle's slope
    code, out, err = run_main("solve", "--preset", "table1-sf", "--n", "25", "--mesh-h", "1")
    assert code == 0 and err == ""
    assert abs(float(out.splitlines()[-1].split(",")[2]) + 0.678302) <= 3e-3


def test_an_overflowing_solve_exits_3_with_no_warning_line():
    code, out, err = run_main("solve", "--preset", "table1-hf", "--map-k", "40")
    assert code == 3 and out == ""
    assert err == "failure: residual during line search produced a non-finite value\n"


def test_out_of_memory_exits_2_without_csv(monkeypatch, tmp_path):
    # the allocation is faked: a real one at n = 1e11 would need 745 GiB
    def no_memory(spec):
        raise MemoryError("Unable to allocate 745. GiB")
    monkeypatch.setattr(halfline.problems, "build_system", no_memory)
    target = tmp_path / "huge.csv"
    code, out, err = run_main("solve", "--preset", "table2-mglf",
                              "--n", "100000000000", "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "basis dimension 100000000000" in err


def test_overflowing_hermite_nodes_exit_2():
    # exp(300 t) overflows at the outer nodes; the suite's warning filter
    # would turn an overflow warning into an uncaught error
    code, out, err = run_main(
        "solve", "--problem", "fluid", "--method", "hf", "--n", "40",
        "--map-k", "300", "--seed-lambda", "0.7", "--b1", "0.6", "--b2", "0.1",
        "--b3", "0.5")
    assert (code, out, err) == (2, "", "error: grid nodes must be finite\n")


# b3 = 0: no solution decays, whatever b2
ILL_POSED_FILM = ("--problem", "fluid", "--b1", "0.6", "--b2", "0", "--b3", "0")
CONVEX_FILM = ("--problem", "fluid", "--b1", "0.6", "--b2", "0.2", "--b3", "0")


@pytest.mark.parametrize("argv, message", [
    (("solve", "--problem", "fluid", "--b1", "0.6", "--b2", "0.1", "--b3", "0.5",
      "--method", "sf", "--n", "800", "--mesh-h", "1", "--seed-lambda", "0.47"),
     "nodes leave double range"),
    (("solve", "--preset", "table2-mglf", "--abscissas", "0,1"),
     "needs x > 0"),
    (("solve", "--preset", "table1-mglf", "--scale-L", "1e-160"),
     "L^2 leaves the double range"),
    (("verify", "--preset", "table3", "--scale-L", "1e-110"),
     "L^3 leaves the double range"),
    (("oracle", *ILL_POSED_FILM), "no decaying solution"),
    (("solve", *ILL_POSED_FILM, "--method", "mglf", "--n", "20", "--alpha", "1",
      "--scale-L", "0.99"), "no decaying solution"),
    (("solve", *ILL_POSED_FILM, "--method", "hf", "--n", "16", "--map-k", "1.2",
      "--seed-lambda", "0.7"), "no decaying solution"),
    (("oracle", *CONVEX_FILM), "no decaying solution"),
    (("solve", *CONVEX_FILM, "--method", "mglf", "--n", "20", "--alpha", "1",
      "--scale-L", "0.99"), "no decaying solution"),
    (("solve", *CONVEX_FILM, "--method", "hf", "--n", "16", "--map-k", "1.2",
      "--seed-lambda", "0.7"), "no decaying solution"),
], ids=["sinc-nodes-overflow", "screening-abscissa-at-axis", "laguerre-scale-order-2",
        "laguerre-scale-order-3", "ill-posed-film-oracle", "ill-posed-film-mglf",
        "ill-posed-film-hf", "convex-film-oracle", "convex-film-mglf", "convex-film-hf"])
# the convex film's b2 = 0.2 is not b1 b3 / 3 = 0, which FluidParams warns of
@pytest.mark.filterwarnings("ignore::halfline.problems.ParameterConsistencyWarning")
def test_bad_inputs_raised_in_the_library_exit_2(argv, message, tmp_path):
    # RangeOverflowError and DomainError are ConfigurationErrors
    target = tmp_path / "bad.csv"
    code, out, err = run_main(*argv, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ("solve", "--preset", "table2-mglf"),
    ("verify", "--preset", "table2-mglf"),
    ("oracle", "--problem", "thomas-fermi"),
], ids=("solve", "verify", "oracle"))
def test_unwritable_out_path_exits_2(tmp_path, argv):
    # each command writes its CSV before it prints anything
    target = tmp_path / "absent" / "x.csv"
    code, out, err = run_main(*argv, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: cannot write %r: " % str(target))
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("--problem", "thomas-fermi", "--method", "mglf", "--n", "7",
      "--alpha", "1", "--scale-L", "0.675"), "needs a preset"),
    (("--preset", "table1-mglf", "--abscissas", "0.5"),
     "missing from the solution table"),
    (("--problem", "nope"),
     "unknown problem 'nope' (expected one of fluid, thomas-fermi, cone)"),
    (("--preset", "table1-mglf", "--method", "nope"),
     "unknown method 'nope' (expected one of mglf, hf, sf)"),
    (("--preset", "table1-mglf", "--n", "0"), "n must be a positive integer"),
], ids=("no-preset", "off-grid-abscissas", "unknown-problem", "unknown-method",
        "zero-n"))
def test_rejected_verify_writes_no_csv(tmp_path, argv, message):
    target = tmp_path / "rejected.csv"
    code, out, err = run_main("verify", *argv, "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: ") and message in err


def test_unformattable_table_writes_no_csv(tmp_path, monkeypatch):
    target = tmp_path / "nan.csv"
    with pytest.raises(ConfigurationError, match="non-finite"):
        write_csv([(1.0, float("nan"), 0.0, 0.0)], target)
    assert not target.exists()
    # nor does solve print the rows before the one it cannot format
    monkeypatch.setattr(cli, "run_case", lambda cfg: [(0.5, 1.0, 0.0, 0.0),
                                                      (1.0, float("nan"), 0.0, 0.0)])
    code, out, err = run_main("solve", "--preset", "table2-mglf")
    assert (code, out) == (2, "") and "non-finite" in err


def test_oracle_failure_exits_3():
    # the slope -3 of f'' = 9 f is found, but the trajectory to z = 40
    # follows the e^{3 z} mode out of range
    code, out, err = run_main("oracle", "--problem", "fluid", "--b1", "0",
                              "--b2", "0", "--b3", "9")
    assert code == 3 and out == ""
    assert err.startswith("failure: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# solve / verify / oracle flows (cheapest preset: table2-mglf)


def test_solve_writes_deterministic_csv(tmp_path):
    code1, out1, err1 = run_main("solve", "--preset", "table2-mglf")
    assert code1 == 0 and err1 == ""
    assert out1.startswith("abscissa,f,fprime,residual\n")
    code2, out2, err2 = run_main("solve", "--preset", "table2-mglf")
    assert out2 == out1
    target = tmp_path / "t2.csv"
    code3, out3, err3 = run_main("solve", "--preset", "table2-mglf",
                                 "--out", str(target))
    assert code3 == 0
    assert "wrote" in out3 and str(target) in out3
    assert target.read_text(encoding="utf-8") == out1


def test_solve_from_config_file(tmp_path):
    p = tmp_path / "case.cfg"
    p.write_text("preset=table2-mglf\nabscissas=1.0,4.0\n")
    code, out, err = run_main("solve", str(p))
    assert code == 0
    lines = out.splitlines()
    # header + two requested abscissas + slope row
    assert len(lines) == 4
    assert lines[1].startswith("1.00000000,")
    assert lines[2].startswith("4.00000000,")
    assert lines[3].startswith("0.00000000,")


def test_verify_preset_passes():
    code, out, err = run_main("verify", "--preset", "table2-mglf")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("verify table2-mglf")
    assert lines[-1] == "overall: PASS"
    assert any(l.startswith("column ") for l in lines)
    assert any(l.startswith("slope:") for l in lines)


def test_verify_with_impossible_tolerance_fails(tmp_path):
    code, out, err = run_main("verify", "--preset", "table2-mglf",
                              "--tol", "1e-12")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "overall: FAIL"
    assert any("exceeds" in l and l.lstrip().startswith("row ") for l in lines)


def test_verify_detects_corrupted_values():
    cfg = parse_config(flags={"preset": "table2-mglf"})
    rows = run_case(cfg)
    broken = list(rows)
    x, f, fp, res = rows[3]
    broken[3] = (x, f + 0.01, fp, res)
    lines_ok, passed_ok = verify_case(cfg, rows)
    lines_bad, passed_bad = verify_case(cfg, broken)
    assert passed_ok and not passed_bad
    assert any("exceeds" in l for l in lines_bad)


@pytest.mark.parametrize("preset", ["table1-mglf", "table1-hf", "table1-sf"])
def test_a_warm_run_case_tabulates_each_point_set_once(preset, monkeypatch):
    # the slope row reads f(0) and f'(0) through the expansion, so a cold
    # run tabulates the output grid, the axis (at order 1, for f(0) and f'(0)
    # alike) and (translates) the slope stencil once each, and a warm run
    # tabulates nothing
    cfg = parse_config(flags={"preset": preset})
    spec = cli.to_problem_spec(cfg)
    monkeypatch.setattr(halfline.core, "_MEMO", halfline.core._Memo())
    halfline.problems.build_system(spec)       # the discretization's own tabulation
    calls = []
    real = type(spec.basis).tables
    monkeypatch.setattr(type(spec.basis), "tables", lambda basis, xs, M:
                        calls.append((np.array(xs), M)) or real(basis, xs, M))
    rows = run_case(cfg)
    grid = np.asarray(cli._PROBLEMS[cfg.problem].grid.abscissas(), dtype=float)
    want = [(grid, spec.problem.order), (np.array([0.0]), 1)]
    if preset.endswith("sf"):                  # the translates' slope stencil
        want.append((np.array([0.0, 1e-3, 5e-4]), 0))
    assert len(calls) == len(want)
    assert all(np.array_equal(x, y) and m == n for (x, m), (y, n) in zip(calls, want))
    assert run_case(cfg) == rows and len(calls) == len(want)
    e, report = halfline.problems.solve_problem(spec)
    slope = halfline.problems.derived_slope(e, spec)
    assert rows[-1] == (0.0, e(0.0, 0), slope, report.final_residual_norm)


def test_solve_far_out_runs_clean():
    # under the suite's error::RuntimeWarning filter: the seed's far field
    # neither overflows nor warns
    code, out, err = run_main("solve", "--preset", "table1-sf",
                              "--abscissas", "1e154,1e200,1e300")
    assert code == 0 and err == ""     # fmt9 refuses a non-finite value
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1.00000000e+154", "1.00000000e+200",
                                    "1.00000000e+300", "0.00000000"]


def test_solve_far_out_runs_clean_on_the_linear_seed():
    # the screening translates' seed a/(a + x) under the same filter
    code, out, err = run_main("solve", "--preset", "table2-sf",
                              "--abscissas", "1e103,1e155,1e300")
    assert code == 0 and err == ""
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["1.00000000e+103", "1.00000000e+155",
                                    "1.00000000e+300", "0.00000000"]
    assert rows[0][1] == "7.70000000e-104"      # f ~ a / x, a = 0.77


def test_verify_table3_lambda1_reports_the_printed_slope_misprint():
    # the lam = 1 row's printed Laguerre slope is not reproduced by its own
    # (alpha, L); verify still diffs against the printed column and fails
    code, out, err = run_main("verify", "--preset", "table3",
                              "--cone-lambda", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "overall: FAIL"
    slope_line = next(l for l in lines if l.startswith("slope:"))
    assert "vs reference %.9g," % TABLE3.value(1.0, "mglf") in slope_line
    slope_err = float(slope_line.split("abs error ")[1].split()[0])
    assert slope_err > 1e-3


def test_oracle_reports_slope_and_trajectory(tmp_path):
    target = tmp_path / "traj.csv"
    code, out, err = run_main("oracle", "--problem", "thomas-fermi",
                              "--out", str(target))
    assert code == 0
    assert out.startswith("oracle slope: -1.58807103\n")
    text = target.read_text(encoding="utf-8")
    assert text.startswith("abscissa,f,fprime,residual\n")
    assert len(text.splitlines()) > 100


def test_a_library_warning_is_one_line_on_stderr():
    # b2 = 0.11 is not b1 b3 / 3 = 0.1, which FluidParams warns of; the
    # warning names neither cli.py nor a line of its source
    code, out, err = run_main("oracle", "--problem", "fluid", "--b1", "0.6",
                              "--b2", "0.11", "--b3", "0.5")
    assert code == 0 and out.startswith("oracle slope: ")
    assert err == ("warning: b2 = 0.11 is not b1*b3/3 = 0.1; proceeding with "
                   "the values as given\n")


def test_oracle_still_validates_problem_and_configured_method():
    code, out, err = run_main("oracle")
    assert code == 2
    assert "problem" in err
    # a discretization, if configured anyway, must be complete
    code, out, err = run_main("oracle", "--problem", "thomas-fermi",
                              "--method", "mglf", "--n", "7")
    assert code == 2
    # a key of another problem is rejected, as solve rejects it
    code, out, err = run_main("oracle", "--problem", "thomas-fermi",
                              "--b1", "3")
    assert code == 2 and "'b1' does not apply" in err
    code, out, err = run_main("oracle", "--problem", "fluid", "--b1", "0.6",
                              "--b2", "0.1", "--b3", "0.5",
                              "--cone-lambda", "0.5")
    assert code == 2 and "'cone-lambda' does not apply" in err
    # so is a method key without a method
    code, out, err = run_main("oracle", "--problem", "thomas-fermi",
                              "--n", "7")
    assert code == 2 and "'n' does not apply" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solve_and_verify_need_a_method_before_any_solve(command, monkeypatch):
    def solve_not_expected(spec):
        raise AssertionError("the solver ran on a rejected configuration")
    monkeypatch.setattr(cli, "solve_problem", solve_not_expected)
    code, out, err = run_main(command, "--problem", "thomas-fermi")
    assert (code, out, err) == (2, "", "error: %s\n" % {
        "solve": "missing required key 'method' (mglf, hf, sf)",
        "verify": "verify needs a preset naming the reference table"}[command])
    # a method key without a method is rejected as the oracle rejects it
    code, out, err = run_main(command, "--problem", "fluid", "--b1", "0.6",
                              "--b2", "0.1", "--b3", "0.5", "--n", "7")
    assert (code, out, err) == (
        2, "", "error: key 'n' does not apply to problem 'fluid'\n")
    if command == "verify":     # a complete case without a preset, unsolved
        code, out, err = run_main(command, "--problem", "thomas-fermi", "--method",
                                  "mglf", "--n", "7", "--alpha", "1", "--scale-L", "0.675")
        assert (code, out, err) == (
            2, "", "error: verify needs a preset naming the reference table\n")


# printed profile rows each case compares: the film table whole, the
# screening table up to x = 15, and the cone profiles at lam = 1/4 and 3/4
# up to eta = 2 (Laguerre) or whole (Hermite); the translates check the
# slope only
PROFILE_ROWS = {"table1": 19, "table2": 16, "table3": 17, "table4": 22}


@pytest.mark.parametrize("case", PRESET_CASES, ids=preset_id)
def test_every_preset_case_verifies(case):
    name, lam = case
    rows = PROFILE_ROWS.get(name.split("-")[0])
    if lam not in (None, 0.25, 0.75):
        rows = None
    argv = ["verify", "--preset", name]
    if lam is not None:
        argv += ["--cone-lambda", repr(lam)]
    code, out, err = run_main(*argv)
    lines = out.splitlines()
    # the printed Laguerre slope of the lam = 1 cone row is a misprint
    misprint = (name, lam) == ("table3", 1.0)
    assert err == ""
    assert code == (1 if misprint else 0)
    assert lines[-1] == "overall: %s" % ("FAIL" if misprint else "PASS")
    assert sum(l.startswith("slope:") for l in lines) == 1
    counts = [int(l.split(" over ")[1].split()[0]) for l in lines
              if l.startswith("column ")]
    assert counts == ([] if rows is None else [rows])


@pytest.mark.parametrize("case", PRESET_CASES, ids=preset_id)
def test_verify_fails_from_its_largest_printed_error_down(case):
    # m, the largest abs error the default verify prints: a tol 1% below m
    # fails and 1% above it passes.  The Hermite cone rows without a printed
    # profile print m = 0 (their slope is the seed-forced beta/2), so only
    # the smallest positive tol is tried there
    argv = ["verify"] + [t for key, value in preset_flags(*case).items()
                         for t in ("--" + key, value)]
    out = run_main(*argv)[1]
    m = max(float(v) for v in re.findall(r"abs error (\S+)", out))
    if m > 0:
        assert run_main(*argv, "--tol", repr(0.99 * m))[0] == 1
    assert run_main(*argv, "--tol", repr(max(1.01 * m, math.ulp(0.0))))[0] == 0
