"""Command-line front end: parsing, presets, formatting, CSV emission,
verification flow, and exit codes."""

import io

import pytest

import halfline.cli as cli
from halfline.cli import (
    PRESET_NAMES,
    RunConfig,
    SolutionTable,
    emit_csv,
    fmt9,
    main,
    parse_config,
    parse_kv_text,
    render_config,
    run_case,
    verify_case,
)
from halfline.errors import ConfigurationError, SolverError, UsageError
from halfline.reference import TABLE3


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


def test_fmt9_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        fmt9(float("inf"))
    with pytest.raises(ConfigurationError):
        fmt9(float("nan"))


def test_emit_csv_exact_bytes():
    table = SolutionTable([(0.0, 1.0, -0.678297, 1e-12)], -0.678297, None)
    buf = io.StringIO()
    emit_csv(table, buf)
    assert buf.getvalue() == ("abscissa,f,fprime,residual\n"
                              "0.00000000,1.00000000,-0.678297000,"
                              "1.00000000e-12\n")


def test_emit_csv_refuses_empty_table():
    with pytest.raises(ConfigurationError):
        emit_csv(SolutionTable([], 0.0, None), io.StringIO())


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
    cfg = parse_config(flags={"preset": "table3",
                              "cone-lambda": "0.3333334"})
    assert cfg.alpha == TABLE3.value(1.0 / 3.0, "alpha")
    assert cfg.scale_L == TABLE3.value(1.0 / 3.0, "L")


def test_cone_lambda_off_table_is_a_usage_error():
    with pytest.raises(UsageError, match="tabulated"):
        parse_config(flags={"preset": "table3", "cone-lambda": "0.4"})


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


def test_abscissas_flag_parses_to_floats():
    cfg = parse_config(flags={"preset": "table2-mglf",
                              "abscissas": "0.5,1.0,2.5"})
    assert cfg.abscissas == (0.5, 1.0, 2.5)


def test_render_config_round_trip():
    cfg = parse_config(flags={"preset": "table1-sf",
                              "abscissas": "0.5,1.0"})
    again = parse_config(render_config(cfg))
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


def test_solver_failures_exit_3(monkeypatch):
    def boom(spec, cfg=None):
        raise SolverError("synthetic failure")
    monkeypatch.setattr(cli, "solve_problem", boom)
    code, out, err = run_main("solve", "--preset", "table2-mglf")
    assert code == 3
    assert "solver failure" in err


def test_unconverged_solve_exits_3_without_csv(tmp_path):
    # map constant 4 stalls the Hermite film solve after one iteration
    code, out, err = run_main("solve", "--preset", "table1-hf", "--map-k", "4")
    assert code == 3 and out == ""
    assert "solver failure" in err and "unconverged" in err
    target = tmp_path / "stalled.csv"
    code, out, err = run_main("solve", "--preset", "table1-hf", "--map-k", "4",
                              "--out", str(target))
    assert code == 3 and not target.exists()


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
    table = run_case(cfg)
    rows = list(table.rows)
    x, f, fp, res = rows[3]
    rows[3] = (x, f + 0.01, fp, res)
    broken = SolutionTable(rows, table.slope, table.report)
    lines_ok, passed_ok = verify_case(cfg, table)
    lines_bad, passed_bad = verify_case(cfg, broken)
    assert passed_ok and not passed_bad
    assert any("exceeds" in l for l in lines_bad)


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
    assert out.startswith("oracle slope: -1.5880712")
    text = target.read_text(encoding="utf-8")
    assert text.startswith("abscissa,f,fprime,residual\n")
    assert len(text.splitlines()) > 100


def test_oracle_still_validates_problem_and_configured_method():
    code, out, err = run_main("oracle")
    assert code == 2
    assert "problem" in err
    # a discretization, if configured anyway, must be complete
    code, out, err = run_main("oracle", "--problem", "thomas-fermi",
                              "--method", "mglf", "--n", "7")
    assert code == 2
