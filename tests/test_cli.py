"""CLI behavior: exit codes, output formats, run manifests, determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from betaop import (BetaParams, PiecewisePoly, Polynomial, builtin, epsilon_of,
                    make_u_tilde, quadnum_from_string, slope_or_nan, two_term_residual_exact,
                    two_term_residual_numeric)
from betaop.cli import main

GOLDEN = BetaParams(1, 1)


def run(args):
    return main(args)


def test_eigen_check_passes(capsys):
    assert run(["eigen-check", "--a0", "1", "--a1", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 7


def test_eigen_check_json_report(capsys):
    assert run(["eigen-check", "--a0", "2", "--a1", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["failures"] == 0
    eigs = [quadnum_from_string(s, BetaParams(2, 1)) for s in doc["eigenvalues"]]
    assert (eigs[0] - 1).is_zero()
    binv = BetaParams(2, 1).beta().inverse()
    assert (eigs[1] + binv ** 2).is_zero()
    assert (eigs[2] - binv).is_zero()


def test_usage_errors(capsys):
    # invalid parameter pair (a1 > a0) and unknown catalog name
    assert run(["eigen-check", "--a0", "1", "--a1", "2"]) == 2
    capsys.readouterr()
    assert run(["iterate", "--a0", "1", "--a1", "1", "--F", "nope"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown built-in function 'nope'; choose from ['cubic', "
        "'exp-normalized', 'linear', 'psi1', 'psi3', 'quadratic', 'sin', "
        "'sin-normalized']\n")
    # malformed invocation
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    # past the Bernoulli degree cap, refused as the option, not as the degree n
    assert run(["bernoulli-table", "--n-max", "65"]) == 2
    assert capsys.readouterr().err == "error: --n-max must be in [0, 64], got 65\n"
    # one condition a refusal, naming the parameter and the value given
    for argv, err in ((["integer-base", "--q", "1"], "q must be >= 2, got 1"),
                      (["integer-base", "--k-min", "0"], "k must be >= 1, got 0"),
                      (["asymptotics", "--a0", "1", "--a1", "1", "--engine", "numeric",
                        "--grid", "50"], "grid must be >= 101, got 50"),
                      (["iterate", "--a0", "1", "--a1", "1", "--k", "-1"], "k must be >= 0, got -1"),
                      (["partition-dump", "--a0", "1", "--a1", "1", "--M", "0"],
                       "M must be >= 1, got 0"),
                      # bounded before any point is listed
                      (["iterate", "--a0", "3", "--a1", "1", "--k", "2", "--grid", str(10 ** 30)],
                       "--grid must be <= 1000000, got %d" % 10 ** 30),
                      (["asymptotics", "--a0", "1", "--a1", "1", "--engine", "numeric",
                        "--grid", str(10 ** 30)], "--grid must be <= 1000000, got %d" % 10 ** 30)):
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: %s\n" % err


@pytest.mark.parametrize("argv", [
    ["eigen-check", "--a0", str(10 ** 20), "--a1", str(10 ** 20)],
    ["asymptotics", "--a0", str(10 ** 20), "--a1", str(10 ** 20), "--k-max", "3"],
    ["asymptotics", "--a0", str(10 ** 20), "--a1", str(10 ** 20), "--k-max", "3",
     "--engine", "numeric"],
    ["asymptotics", "--a0", str(10 ** 7), "--a1", str(10 ** 7), "--k-max", "3"],
], ids=["eigen-check", "exact", "numeric", "exact-1e7"])
def test_a_huge_field_exhausts_the_branch_budget(capsys, argv):
    # a0 + 1 transfer branches: refused with exit 3, where 10^20 ended in a
    # ZeroDivisionError traceback and 10^7 ran for minutes
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: the transfer has more than 100000 branches\n"


def test_iterate_json_matches_eigen_expansion(capsys):
    assert run(["iterate", "--a0", "1", "--a1", "1", "--F", "psi1",
                "--k", "3", "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    g = PiecewisePoly.from_json_dict(doc)
    u1, u2, _ = make_u_tilde(GOLDEN)
    lam = -(GOLDEN.beta().inverse() ** 2)
    assert g.equal_ae(u1 + u2.scaled(lam ** 3))


def test_iterate_csv_grid(capsys):
    assert run(["iterate", "--a0", "2", "--a1", "1", "--F", "quadratic",
                "--k", "10", "--grid", "101"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["x", "value"]
    assert len(rows) == 102
    assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 1.0


def test_iterate_csv_grid_edges(capsys):
    # the points of np.linspace(0, 1, grid): a one-point grid is [0]
    argv = ["iterate", "--a0", "2", "--a1", "1", "--F", "quadratic", "--k", "2"]
    for grid, xs in ((0, []), (1, ["0"]), (2, ["0", "1"]), (3, ["0", "0.5", "1"])):
        assert run([*argv, "--grid", str(grid)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["x", "value"] and [r[0] for r in rows[1:]] == xs
    assert run([*argv, "--grid", "-1"]) == 2
    assert capsys.readouterr().err == "error: --grid must be >= 0, got -1\n"


def test_output_file_and_manifest(tmp_path):
    target = tmp_path / "series.csv"
    assert run(["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear",
                "--k-max", "10", "--output", str(target)]) == 0
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[0] == ["k", "residual_lower", "residual_upper",
                       "beta_power_bound", "ratio"]
    assert len(rows) == 11
    manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["command"] == "asymptotics"
    assert manifest["parameters"]["k_max"] == 10
    assert "betaop" in manifest["versions"]
    b = GOLDEN.beta_float()
    assert float(manifest["predicted_slope_bound"]) == \
        pytest.approx(-(8 / 7) * math.log(b), abs=1e-12)
    assert float(manifest["fitted_slope"]) < -(8 / 7) * math.log(b) + 0.05


def test_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        assert run(["iterate", "--a0", "3", "--a1", "2", "--F", "linear",
                    "--k", "6", "--output", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_partition_dump_golden(capsys):
    assert run(["partition-dump", "--a0", "1", "--a1", "1", "--M", "2",
                "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pts = [quadnum_from_string(p["exact"], GOLDEN) for p in doc["points"]]
    binv = GOLDEN.beta().inverse()
    assert len(pts) == 4
    assert pts[0].is_zero() and (pts[1] - binv ** 2).is_zero()
    assert (pts[2] - binv).is_zero() and (pts[3] - 1).is_zero()
    assert doc["gap_depth_histogram"] == {"2": 2, "3": 1}


def test_bernoulli_table_row(capsys):
    assert run(["bernoulli-table", "--n-max", "4"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[3][0] == "2"
    assert rows[3][1] == "1/6 -1 1"


def test_integer_base_manifest_slope(tmp_path):
    target = tmp_path / "intbase.csv"
    assert run(["integer-base", "--q", "2", "--N", "3", "--F", "sin",
                "--k-min", "6", "--k-max", "12", "--output", str(target)]) == 0
    manifest = json.loads((tmp_path / "intbase.csv.manifest.json").read_text())
    assert manifest["expected_slope"] == pytest.approx(-3 * math.log(2))
    assert manifest["fitted_slope"] == pytest.approx(-3 * math.log(2), abs=0.1)
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[0] == ["k", "residual"]
    assert len(rows) == 8


def test_budget_exit_code(monkeypatch):
    # shrink the node budget so the exhaustion path triggers quickly
    import betaop.transfer as transfer
    monkeypatch.setattr(transfer, "NODE_BUDGET", 10 ** 5)
    assert run(["asymptotics", "--a0", "5", "--a1", "5", "--N", "40", "--F",
                "exp-normalized", "--engine", "numeric",
                "--k-max", "40"]) == 3


def test_exact_budget_exit_code(monkeypatch):
    import betaop.asymptotics as asymptotics
    monkeypatch.setattr(asymptotics, "PIECE_BUDGET", 1)
    assert run(["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear",
                "--k-max", "10"]) == 3


def test_failed_eigen_check_exits_1(tmp_path, capsys, monkeypatch):
    """With eigenvalues 2 and 4 swapped, two checks fail: the text report
    prints two FAIL lines, and the JSON report and the manifest count them."""
    import betaop.cli as cli
    data = cli.riesz_projections(BetaParams(2, 1))
    lam1, lam2, lam3, lam4 = data.eigenvalues
    swapped = dataclasses.replace(data, eigenvalues=(lam1, lam4, lam3, lam2))
    monkeypatch.setattr(cli, "riesz_projections", lambda params: swapped)
    argv = ["eigen-check", "--a0", "2", "--a1", "1"]
    assert run(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL")] == [
        "FAIL P u2 = (-a1/beta^2) u2",
        "FAIL projection algebra on the 4x4 restriction matrix"]
    assert run([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == 2
    target = tmp_path / "eigen.txt"
    assert run([*argv, "--output", str(target)]) == 1
    assert target.read_text().count("FAIL") == 2
    manifest = json.loads((tmp_path / "eigen.txt.manifest.json").read_text())
    assert manifest["failures"] == 2


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_process(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)


def _heavy_packages_after(statement: str) -> list[str]:
    """numpy, mpmath and scipy as far as a fresh interpreter has loaded them
    after running `statement`; betaop must come from this checkout."""
    done = _fresh_process(
        "import contextlib, io, json, sys\n%s\nimport betaop\n"
        "print(json.dumps([betaop.__file__, sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'mpmath', 'scipy'})]))" % statement)
    loaded_from, packages = json.loads(done.stdout.splitlines()[-1])
    assert Path(loaded_from).resolve().is_relative_to(SRC)
    return packages


@pytest.mark.parametrize("statement", ["import betaop", "import betaop.cli"])
def test_package_import_loads_no_numeric_package(statement):
    assert _heavy_packages_after(statement) == []


@pytest.mark.parametrize("argv,packages", [
    (["eigen-check", "--a0", "2", "--a1", "1"], []),
    (["iterate", "--a0", "1", "--a1", "1", "--F", "cubic", "--k", "6", "--out", "json"], []),
    (["partition-dump", "--a0", "2", "--a1", "1", "--M", "4", "--out", "json"], []),
    (["bernoulli-table", "--n-max", "10"], []),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14"], []),
    *[(["asymptotics", "--a0", "1", "--a1", "1", "--F", F, "--k-max", "12",
        "--engine", "numeric"], ["numpy"]) for F in ("exp-normalized", "sin", "cubic")],
    (["integer-base", "--q", "2", "--N", "3", "--F", "sin", "--k-min", "6",
      "--k-max", "12"], ["mpmath"]),
    # the manifest reads package versions from metadata, importing neither
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14",
      "--output", "{tmp}/series.csv"], []),
])
def test_command_imports_only_what_it_uses(tmp_path, argv, packages):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    statement = ("from betaop.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert main(%r) == 0" % argv)
    assert _heavy_packages_after(statement) == packages


def test_written_manifest_records_numpy_and_mpmath_versions(tmp_path):
    import mpmath
    import numpy
    target = tmp_path / "eigen.txt"
    _fresh_process("from betaop.cli import main; assert main(%r) == 0"
                   % ["eigen-check", "--a0", "1", "--a1", "1", "--output", str(target)])
    manifest = json.loads((tmp_path / "eigen.txt.manifest.json").read_text())
    assert manifest["versions"]["numpy"] == numpy.__version__
    assert manifest["versions"]["mpmath"] == mpmath.__version__
    assert manifest["elapsed_seconds"] >= 0


def test_module_entry_point_matches_main(capsys):
    argv = ["eigen-check", "--a0", "1", "--a1", "1"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "betaop.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == expected
    bad = subprocess.run([sys.executable, "-m", "betaop.cli", "eigen-check", "--bogus"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2


def test_eigen_check_has_no_nu_option(capsys):
    # the checks exist only at nu = 2, so nu is a constant of the report
    for nu in ("2", "3"):
        assert run(["eigen-check", "--a0", "2", "--a1", "1", "--nu", nu]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --nu" in captured.err
    assert run(["eigen-check", "--a0", "2", "--a1", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nu"] == 2


def test_asymptotics_default_N_is_the_least_the_threshold_admits(tmp_path, capsys):
    for a0 in range(1, 6):
        for a1 in range(1, a0 + 1):
            target = tmp_path / ("%d-%d.csv" % (a0, a1))
            assert run(["asymptotics", "--a0", str(a0), "--a1", str(a1), "--F", "linear",
                        "--k-max", "8", "--output", str(target)]) == 0, (a0, a1)
            manifest = json.loads((tmp_path / (target.name + ".manifest.json")).read_text())
            assert manifest["parameters"]["N"] == epsilon_of(BetaParams(a0, a1)).N
    argv = ["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run([*argv, "--N", "7"]) == 0 and capsys.readouterr().out == default
    # an explicit N at or below the threshold stays a usage error
    assert run(["asymptotics", "--a0", "3", "--a1", "2", "--N", "9"]) == 2
    assert "N=9 is at or below the threshold 9.603576" in capsys.readouterr().err


def _write_json(tmp_path, f: PiecewisePoly) -> str:
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["iterate", "--out", "json"],
    ["asymptotics", "--k-max", "8"],
])
def test_piecewise_json_field_mismatch_is_a_usage_error(tmp_path, capsys, argv):
    path = _write_json(tmp_path, builtin("linear").piecewise(GOLDEN))
    cmd, *rest = argv
    assert run([cmd, "--a0", "2", "--a1", "1", "--piecewise-json", path, *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a0=1 a1=1" in captured.err and "--a0 2 --a1 1" in captured.err
    assert run([cmd, "--a0", "1", "--a1", "1", "--piecewise-json", path, *rest]) == 0


@pytest.mark.parametrize("doc, detail", [
    ([], "missing key 'a0'"),
    ({"a0": "x", "a1": 1, "breakpoints": ["0", "1"], "pieces": [["1"]]},
     "a0 and a1 must be integers"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1"], "pieces": [[1]]},
     "each piece must be a list of strings"),
    # a missing key used to print only the key; a string was read by character
    ({"a0": 1, "a1": 1}, "missing key 'breakpoints'"),
    ({"a0": 1, "a1": 1, "breakpoints": "01", "pieces": [["1"]]},
     "'breakpoints' must be a list of strings"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1"], "pieces": "1"},
     "each piece must be a list of strings"),
    # Fraction raises ZeroDivisionError on "1/0", and a bool is an int
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1/0", "1"], "pieces": [["1"], ["2"]]},
     "malformed Q(beta) string '1/0': zero denominator"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1"], "pieces": [["1/0"]]},
     "malformed Q(beta) string '1/0': zero denominator"),
    ({"a0": True, "a1": 1, "breakpoints": ["0", "1"], "pieces": [["1"]]},
     "a0 and a1 must be integers"),
    # the errors of the parser, of BetaParams and of the constructor name the file too
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "beta"], "pieces": [["1"]]},
     "malformed Q(beta) string 'beta'"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1"], "pieces": [["1+*beta"]]},
     "malformed Q(beta) string '1+*beta'"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1/2", "1/2", "1"],
      "pieces": [["1"], ["2"], ["3"]]},
     "breakpoints must be strictly increasing"),
    ({"a0": 1, "a1": 1, "breakpoints": ["0", "1"], "pieces": [["1"], ["2"]]},
     "need one piece per gap between breakpoints"),
    ({"a0": 1, "a1": 2, "breakpoints": ["0", "1"], "pieces": [["1"]]},
     "need a0 >= a1 >= 1, got a0=1 a1=2"),
], ids=["list", "a0-string", "number-coefficient", "no-breakpoints",
        "string-breakpoints", "string-pieces", "zero-denominator-breakpoint",
        "zero-denominator-coefficient", "a0-bool", "bare-beta", "empty-beta-coefficient",
        "repeated-breakpoint", "piece-count", "a0-below-a1"])
def test_malformed_piecewise_json_is_a_usage_error(tmp_path, capsys, doc, detail):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert run(["iterate", "--a0", "1", "--a1", "1", "--piecewise-json", str(path),
                "--out", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --piecewise-json %s is malformed: %s\n" % (path, detail)


@pytest.mark.parametrize("text, detail", [
    ('{"a0": 1,', "Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
    pytest.param("[" * 100000 + "]" * 100000,
                 "maximum recursion depth exceeded while decoding a JSON array from a "
                 "unicode string", id="arrays-nested-100000-deep"),
])
def test_piecewise_json_that_is_not_json_is_a_usage_error(tmp_path, capsys, text, detail):
    path = tmp_path / "f.json"
    path.write_text(text)
    assert run(["iterate", "--a0", "1", "--a1", "1", "--piecewise-json", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: --piecewise-json %s is malformed: %s\n" % (path, detail))


@pytest.mark.parametrize("argv", [
    ["asymptotics", "--a0", "1", "--a1", "1", "--k-max", "0"],
    ["asymptotics", "--a0", "1", "--a1", "1", "--k-max", "0", "--engine", "numeric"],
    ["integer-base", "--k-min", "10", "--k-max", "5"],
    ["bernoulli-table", "--n-max", "-1"],
])
def test_empty_k_range_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_reversed_k_range_names_both_options(capsys):
    assert run(["integer-base", "--k-min", "10", "--k-max", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --k-min 10 is greater than --k-max 5\n")


def _reject_constant(name):
    raise ValueError("%s is not strict JSON" % name)


@pytest.mark.parametrize("argv,rows", [
    # exactly 0 residuals, a one-point series, one point above FIT_SKIP, and
    # residuals at q = 3 and 5 that are rounding noise, read as 0
    (["integer-base", "--F", "cubic", "--N", "5", "--k-min", "2", "--k-max", "8"], 7),
    (["integer-base", "--F", "sin", "--k-min", "6", "--k-max", "6"], 1),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "sin", "--k-max", "6",
      "--engine", "numeric"], 6),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "5"], 5),
    (["integer-base", "--q", "3", "--F", "cubic", "--N", "4", "--k-min", "1", "--k-max", "7",
      "--grid", "5"], 7),
    (["integer-base", "--q", "5", "--F", "cubic", "--N", "4", "--k-min", "1", "--k-max", "4",
      "--grid", "5"], 4),
])
def test_series_with_no_slope_to_fit(tmp_path, capsys, argv, rows):
    # the table is printed, and the manifest writes the missing slope as null
    assert run(argv) == 0
    table = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(table) == rows + 1
    target = tmp_path / "series.csv"
    assert run([*argv, "--output", str(target)]) == 0
    text = (tmp_path / "series.csv.manifest.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant)["fitted_slope"] is None


@pytest.mark.parametrize("q, k_max", [(3, 7), (5, 4)])
def test_integer_base_reads_rounding_noise_as_zero(capsys, q, k_max):
    # the expansion of the cubic ends at N = 4; at q = 3 and 5 the 60-digit
    # sums leave residuals of about 1e-61, which once fitted a slope of 0.0
    assert run(["integer-base", "--q", str(q), "--F", "cubic", "--N", "4", "--k-min", "1",
                "--k-max", str(k_max), "--grid", "5"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[1] for row in rows[1:]] == ["0"] * k_max


def test_ratio_reads_nan_where_the_bound_underflows(capsys):
    assert run(["asymptotics", "--a0", "5", "--a1", "1", "--F", "linear",
                "--k-max", "396"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[-1][0] == "396" and rows[-1][3:] == ["0", "nan"]
    assert rows[-2][3] != "0" and rows[-2][4] != "nan"


def test_printed_bounds_round_outward(capsys):
    # 15 digits rounded down for the lower bound and up for the upper one, so
    # the printed bracket holds the certified floats
    assert run(["asymptotics", "--a0", "2", "--a1", "1", "--F", "cubic", "--k-max", "30"]) == 0
    _, *rows = csv.reader(capsys.readouterr().out.splitlines())
    series = two_term_residual_exact(builtin("cubic").piecewise(BetaParams(2, 1)), 30)
    for row, lo, up in zip(rows, series.residual_lower, series.residual_upper, strict=True):
        assert Fraction(row[1]) <= Fraction(lo) and Fraction(up) <= Fraction(row[2])
        assert float(row[1]) == pytest.approx(lo, rel=1e-14)
        assert float(row[2]) == pytest.approx(up, rel=1e-14)


def test_numeric_engine_writes_no_upper_bound(tmp_path, capsys):
    # a grid sup bounds nothing from above: residual_upper reads nan, while
    # ratio and the fitted slope use the grid sup in residual_lower
    argv = ["asymptotics", "--a0", "1", "--a1", "1", "--F", "sin", "--k-max", "8",
            "--engine", "numeric"]
    target = tmp_path / "numeric.csv"
    assert run([*argv, "--output", str(target)]) == 0
    _, *rows = csv.reader(target.read_text().splitlines())
    series = two_term_residual_numeric(builtin("sin"), GOLDEN, range(1, 9))
    for row, lo in zip(rows, series.residual_lower, strict=True):
        assert row[2] == "nan"
        assert float(row[1]) == pytest.approx(lo, rel=1e-14)
        assert float(row[4]) == pytest.approx(lo / float(row[3]), rel=1e-13)
    manifest = json.loads((tmp_path / "numeric.csv.manifest.json").read_text())
    assert manifest["fitted_slope"] == slope_or_nan(series.ks, series.residual_lower) < 0


def test_asymptotics_json_matches_csv(capsys):
    argv = ["asymptotics", "--a0", "2", "--a1", "1", "--F", "quadratic", "--k-max", "12"]
    assert run(argv) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert run([*argv, "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [[str(row[h]) for h in header] for row in doc["rows"]] == rows
    assert all(set(row) == set(header) for row in doc["rows"])
    for key in ("fitted_slope", "epsilon", "predicted_slope_bound"):
        assert math.isfinite(float(doc[key]))


def test_integer_base_on_an_empty_grid_is_a_usage_error(capsys):
    assert run(["integer-base", "--k-min", "6", "--k-max", "8", "--grid", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid must be >= 1, got 0\n"


@pytest.mark.parametrize("N", ["0", "-2"])
def test_integer_base_with_N_below_one_is_a_usage_error(tmp_path, capsys, N):
    # N = -2 wrote a residual series and the growth rate 2 log 2 as its slope
    out = tmp_path / "f.csv"
    assert run(["integer-base", "--q", "2", "--N", N, "--F", "sin", "--k-min", "2",
                "--k-max", "4", "--grid", "5", "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: N must be >= 1, got %s\n" % N)
    assert not out.exists()


def test_float_overflow_is_a_usage_error(tmp_path, capsys):
    # a constant beyond the float range: fine as exact JSON, not on a float grid
    big = Polynomial([GOLDEN.beta() ** 3000], GOLDEN)
    path = _write_json(tmp_path, PiecewisePoly.from_polynomial(big))
    assert run(["iterate", "--a0", "1", "--a1", "1", "--piecewise-json", path,
                "--out", "json"]) == 0
    capsys.readouterr()
    for argv in (["iterate"], ["asymptotics", "--k-max", "3"]):
        assert run([*argv, "--a0", "1", "--a1", "1", "--piecewise-json", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


MANIFEST_KEYS = {"schema", "command", "parameters", "versions", "elapsed_seconds"}


@pytest.mark.parametrize("argv,extras", [
    (["eigen-check", "--a0", "1", "--a1", "1"], {"failures"}),
    (["iterate", "--a0", "1", "--a1", "1", "--F", "linear", "--k", "2", "--grid", "11"],
     {"pieces"}),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "8"],
     {"fitted_slope", "epsilon", "predicted_slope_bound"}),
    (["partition-dump", "--a0", "1", "--a1", "1", "--M", "2"], {"gaps"}),
    (["bernoulli-table", "--n-max", "3"], set()),
    (["integer-base", "--k-min", "6", "--k-max", "8"],
     {"fitted_slope", "expected_slope"}),
])
def test_every_command_writes_data_and_manifest(tmp_path, capsys, argv, extras):
    assert run(argv) == 0
    expected = capsys.readouterr().out
    target = tmp_path / "data.out"
    assert run([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == expected.encode()
    manifest = json.loads((tmp_path / "data.out.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS | extras
    assert manifest["command"] == argv[0]
    assert manifest["parameters"]["command"] == argv[0]


def test_numeric_engine_on_a_piecewise_file_is_a_usage_error(tmp_path, capsys):
    path = _write_json(tmp_path, builtin("linear").piecewise(GOLDEN))
    argv = ["asymptotics", "--a0", "1", "--a1", "1", "--piecewise-json", path,
            "--k-max", "8"]
    assert run([*argv, "--engine", "numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --piecewise-json needs --engine exact\n"
    assert run([*argv, "--engine", "exact"]) == 0


def test_partition_dump_beyond_the_gap_budget_exits_3(capsys):
    started = time.perf_counter()
    assert run(["partition-dump", "--a0", "1", "--a1", "1", "--M", "40"]) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exhausted: ")
    # below the budget the dump is unchanged (digest recorded before the budget)
    assert run(["partition-dump", "--a0", "1", "--a1", "1", "--M", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "060f0e282734a33d63b3c068dedac4f37d84f6b6cb62d1db95be8cec61dfa756"


def test_function_without_exact_form_names_the_numeric_engine(capsys):
    # iterate and the default exact asymptotics refuse sin with one message,
    # and the command it names runs
    line = "error: sin has no exact piecewise form; use asymptotics --engine numeric\n"
    for argv in (["iterate", "--k", "2"], ["asymptotics", "--k-max", "8"]):
        assert run([*argv, "--a0", "1", "--a1", "1", "--F", "sin"]) == 2
        assert capsys.readouterr() == ("", line)
    assert run(["asymptotics", "--a0", "1", "--a1", "1", "--F", "sin",
                "--k-max", "8", "--engine", "numeric"]) == 0


def test_integer_base_direct_sum_beyond_its_budget_exits_3(capsys):
    # cubic sums 2^30 terms per point; sin has a closed form at any k
    started = time.perf_counter()
    argv = ["integer-base", "--k-min", "30", "--k-max", "30"]
    assert run([*argv, "--F", "cubic"]) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exhausted: ")
    assert run([*argv, "--F", "sin", "--k-min", "29"]) == 0


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert run(["bernoulli-table", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# SHA-256 of stdout. The first seven were recorded before the commands shared
# one output path, the last three before test-only code left the package. The
# two asymptotics rows were re-recorded when the brackets became exact and the
# printed bounds were rounded outward: only residual_lower, residual_upper,
# ratio and fitted_slope changed.
EXACT_OUTPUT_DIGESTS = [
    (["eigen-check", "--a0", "2", "--a1", "1"],
     "779ed9959c60d2b6341657481a60114a24f69224e4cd66a969effea486103a83"),
    (["eigen-check", "--a0", "2", "--a1", "1", "--json"],
     "57f6820e4375412bc60004748be89d5af3455ce766037d20650f9d22d84cb534"),
    (["iterate", "--a0", "1", "--a1", "1", "--F", "cubic", "--k", "6", "--out", "json"],
     "00059fdb6e6a15b3d454b90ca64981494387123410abdccd0906c9a91743bddf"),
    (["partition-dump", "--a0", "2", "--a1", "1", "--M", "4"],
     "28c89141b69b516a5291b154b083a6405d9918eaac892e16c09e036330e4af3c"),
    (["partition-dump", "--a0", "2", "--a1", "1", "--M", "4", "--out", "json"],
     "a563295395cae1b06200a65dc4b2965b006670444a5b85348947a2ce94bfe22b"),
    (["bernoulli-table", "--n-max", "10"],
     "72fd069a37263ed6715b70b53f488a359dbb05aa88717d54944071243e211996"),
    (["bernoulli-table", "--n-max", "10", "--out", "json"],
     "6cff5e2f7d2953641747f36b91c872c9c2d9215da1ac294031b1826d9ab6f6ae"),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14"],
     "37dea3a3d5b07b8a69e3350ca5ff5255cd078b3b2036aa9bd81690f77ed93441"),
    (["asymptotics", "--a0", "1", "--a1", "1", "--F", "linear", "--k-max", "14",
      "--out", "json"],
     "10a8bb34ec34b9ddd10ff5d46cae09b9be3e7b536edda66370c715c995c7e72a"),
    (["iterate", "--a0", "1", "--a1", "1", "--F", "cubic", "--k", "6"],
     "20dad2aa26309a147e74edd30b2b47f46fa00ec8052261446d7e2191b7c1a677"),
]


@pytest.mark.parametrize("argv,digest", EXACT_OUTPUT_DIGESTS)
def test_exact_output_digests(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
