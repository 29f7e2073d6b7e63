"""CLI behaviour: exit codes, output formats, determinism, file handling."""

import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from vandermetric.cli import main
from vandermetric.io import read_points_csv, write_points_csv
from vandermetric import ArgumentError


@pytest.fixture
def runner():
    return CliRunner()


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


@pytest.fixture
def complex_csv(tmp_path):
    path = tmp_path / "points.csv"
    write_csv(path, [(0, 0), (1, 0), (2, 0)])
    return str(path)


@pytest.fixture
def tetrahedron_csv(tmp_path):
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    path = tmp_path / "tetra.csv"
    write_csv(path, [
        (1.0, 0.0, 0.0),
        (-1.0 / 3.0, 2.0 * s2 / 3.0, 0.0),
        (-1.0 / 3.0, -s2 / 3.0, s6 / 3.0),
        (-1.0 / 3.0, -s2 / 3.0, -s6 / 3.0),
    ])
    return str(path)


class TestIO:
    def test_roundtrip_complex(self, tmp_path):
        path = tmp_path / "z.csv"
        write_points_csv(str(path), [1 + 2j, -0.5 + 0j, 3j])
        t = read_points_csv(str(path), complex_points=True)
        assert t.points == (1 + 2j, -0.5 + 0j, 3j)

    def test_roundtrip_vectors(self, tmp_path):
        path = tmp_path / "x.csv"
        pts = [(1.0, 2.0, 3.0), (0.0, 0.5, -1.0)]
        write_points_csv(str(path), pts)
        t = read_points_csv(str(path))
        assert t.points == tuple(pts)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# header\n0,0\n\n1,0\n2,0\n")
        assert read_points_csv(str(path), complex_points=True).n == 3

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,zero\n1,0\n")
        with pytest.raises(ArgumentError):
            read_points_csv(str(path))


class TestEval:
    def test_eval_complex(self, runner, complex_csv):
        result = runner.invoke(main, ["eval", "--input", complex_csv])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["value"] == 2.0

    def test_eval_vectors(self, runner, tetrahedron_csv):
        result = runner.invoke(main, ["eval", "--input", tetrahedron_csv,
                                      "--vectors", "--metric", "pairwise"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["value"] == pytest.approx((8.0 / 3.0) ** 3, rel=1e-12)

    def test_missing_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "--input", "/no/such/file.csv"])
        assert result.exit_code == 2


class TestSimplex:
    def test_holds(self, runner, complex_csv):
        result = runner.invoke(main, ["simplex", "--input", complex_csv, "--y", "0.5,0.5"])
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is True

    def test_tetrahedron_fails_with_exit_1(self, runner, tetrahedron_csv):
        result = runner.invoke(main, ["simplex", "--input", tetrahedron_csv,
                                      "--vectors", "--metric", "pairwise",
                                      "--y", "0,0,0"])
        assert result.exit_code == 1
        assert json.loads(result.output)["pass"] is False


class TestExtended:
    def test_all_k(self, runner, complex_csv):
        result = runner.invoke(main, ["extended", "--input", complex_csv, "--y", "1,1"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 3

    def test_bad_k(self, runner, complex_csv):
        result = runner.invoke(main, ["extended", "--input", complex_csv,
                                      "--y", "1,1", "--k", "7"])
        assert result.exit_code == 2


class TestEqualityFamily:
    def test_default_parameters(self, runner):
        result = runner.invoke(main, ["equality-family"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["equality"] is True

    def test_negative_parameter(self, runner):
        result = runner.invoke(main, ["equality-family", "--q", "-1"])
        assert result.exit_code == 2


class TestPolygon:
    def test_regular_pentagon_all(self, runner):
        angles = [2 * math.pi * k / 5 for k in range(5)]
        spec = json.dumps({"R": 1.0, "angles": angles})
        result = runner.invoke(main, ["polygon", "--input", spec])
        assert result.exit_code == 0

    def test_quadrilateral_includes_ptolemy(self, runner):
        angles = [0.3, 1.2, 3.0, 5.0]
        spec = json.dumps({"R": 2.0, "angles": angles})
        result = runner.invoke(main, ["polygon", "--input", spec])
        assert result.exit_code == 0
        ops = [json.loads(line)["operation"] for line in result.output.strip().splitlines()]
        assert "ptolemy_gap" in ops and "quadrilateral_check" in ops

    def test_csv_output(self, runner):
        spec = json.dumps({"R": 1.0, "angles": [0.0, 2.0, 4.0]})
        result = runner.invoke(main, ["polygon", "--input", spec, "--check", "triangle",
                                      "--emit-csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "operation,lhs,rhs,gap"

    @pytest.mark.parametrize("angles", [[0.1, 2.0, 4.0], [0.1, 2.0, 4.0, 5.0]])
    def test_csv_rows_hold_plain_floats(self, runner, angles):
        spec = json.dumps({"R": 1.0, "angles": angles, "center": [0, 0]})
        result = runner.invoke(main, ["polygon", "--input", spec, "--emit-csv"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert len(rows) == (3 if len(angles) == 3 else 4)
        for operation, *numbers in rows:
            assert [repr(float(x)) for x in numbers] == numbers, operation

    def test_from_file(self, runner, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"R": 1.0, "angles": [0.0, 2.1, 4.2]}))
        result = runner.invoke(main, ["polygon", "--input", str(path)])
        assert result.exit_code == 0

    def test_invalid_polygon(self, runner):
        spec = json.dumps({"R": -1.0, "angles": [0.0, 1.0, 2.0]})
        result = runner.invoke(main, ["polygon", "--input", spec])
        assert result.exit_code == 2


class TestMultilinearVerify:
    def test_passes(self, runner):
        result = runner.invoke(main, ["multilinear-verify", "--n", "3", "--m", "3",
                                      "--trials", "20", "--seed", "1"])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is True

    def test_runs_the_identity_campaigns(self, runner):
        result = runner.invoke(main, ["multilinear-verify", "--n", "3", "--m", "3",
                                      "--trials", "20", "--seed", "1"])
        records = [json.loads(line) for line in result.output.strip().splitlines()]
        runs = [(r["config"]["op"], r["config"]["q"]) for r in records[:-1]]
        assert runs == [("multilinear-oracle", 1), ("sum-identity", 1),
                        ("w-identity", 1), ("w-identity", 2), ("w-identity", 3)]
        assert all(r["config"]["seed"] == 1 and r["pass"] for r in records[:-1])

    def test_failed_run_fails_the_summary(self, runner):
        result = runner.invoke(main, ["multilinear-verify", "--n", "3", "--m", "3",
                                      "--trials", "20", "--tol", "0"])
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["pass"] is False


class TestDefiniteness:
    def test_definite_case(self, runner):
        result = runner.invoke(main, ["definiteness", "--n", "3", "--m", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "definite"

    def test_counterexample_case(self, runner):
        result = runner.invoke(main, ["definiteness", "--n", "4", "--m", "4"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["verdict"] == "counterexample"
        assert "witness_matrix" in record

    def test_exhausted_budget_exits_1(self, runner):
        result = runner.invoke(main, ["definiteness", "--n", "3", "--m", "5",
                                      "--budget", "100"])
        assert result.exit_code == 1
        assert json.loads(result.output)["verdict"] == "exhausted"

    def test_invalid_n(self, runner):
        result = runner.invoke(main, ["definiteness", "--n", "2", "--m", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_empty_budget_is_a_usage_error(self, runner, budget):
        result = runner.invoke(main, ["definiteness", "--n", "3", "--m", "5",
                                      "--budget", budget])
        assert result.exit_code == 2
        assert "budget must be >= 1" in result.output


class TestCounterexample:
    def test_tetrahedron(self, runner):
        result = runner.invoke(main, ["counterexample", "tetrahedron"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["reproduced"] is True
        assert record["simplex_holds"] is False

    def test_four_four(self, runner):
        result = runner.invoke(main, ["counterexample", "four-four"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["reproduced"] is True
        assert record["metric_value"] == 0.0

    def test_unknown_choice(self, runner):
        result = runner.invoke(main, ["counterexample", "pentagon"])
        assert result.exit_code == 2


class TestOde:
    def problem_spec(self, steps=100):
        return json.dumps({
            "matrix": {"kind": "constant", "a0": [[-1.0, 0.0], [0.0, -1.0]]},
            "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "grid": list(np.linspace(0.0, 1.0, steps + 1)),
        })

    def test_estimate_holds(self, runner):
        result = runner.invoke(main, ["ode", "--input", self.problem_spec()])
        assert result.exit_code == 0
        for line in result.output.strip().splitlines():
            assert json.loads(line)["pass"] is True

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["ode", "--input", self.problem_spec(),
                                      "--format", "csv"])
        assert result.exit_code == 0
        header, *rows = result.output.splitlines()
        assert header == "t,lhs,rhs,gap" and rows
        for row in rows:
            assert [repr(float(x)) for x in row.split(",")] == row.split(",")

    def test_coarse_grid_usage_error(self, runner):
        spec = json.dumps({
            "matrix": {"kind": "constant", "a0": [[-10.0, 0.0], [0.0, -10.0]]},
            "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "grid": [0.0, 1.0, 2.0],
        })
        result = runner.invoke(main, ["ode", "--input", spec])
        assert result.exit_code == 2


class TestCampaignCommand:
    def test_simplex_summary(self, runner):
        result = runner.invoke(main, ["campaign", "--op", "simplex",
                                      "--trials", "200", "--seed", "1"])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is True

    def test_output_file_byte_identical(self, runner, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            result = runner.invoke(main, ["campaign", "--op", "equality-family",
                                          "--trials", "300", "--seed", "9",
                                          "--output", str(path)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, runner):
        result = runner.invoke(main, ["campaign", "--op", "polygon", "--check", "ngon",
                                      "--n", "5", "--trials", "50", "--format", "json"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["summary"]["pass"] is True

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["campaign", "--op", "simplex",
                                      "--trials", "50", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "trial,lhs,rhs,gap"

    @pytest.mark.parametrize("args,failures", [
        (["--op", "equality-family", "--trials", "50", "--tol", "0"], True),
        (["--op", "sum-identity", "--trials", "20", "--tol", "0"], True),
        (["--op", "polygon", "--check", "ptolemy", "--trials", "30", "--tol", "0"], True),
        (["--op", "sum-identity", "--trials", "20"], False),
    ])
    def test_identity_csv_holds_gap_and_scale(self, runner, args, failures):
        result = runner.invoke(main, ["campaign", *args, "--format", "csv"])
        assert result.exit_code == (1 if failures else 0)
        header, *rows = result.output.splitlines()
        assert header == "trial,gap,scale"
        assert bool(rows) == failures
        for row in rows:
            trial, gap, scale = row.split(",")
            assert int(trial) >= 0 and float(gap) > 0.0 and float(scale) >= 1.0

    def test_unknown_op_rejected(self, runner):
        result = runner.invoke(main, ["campaign", "--op", "bogus"])
        assert result.exit_code == 2

    def test_bad_metric_usage_error(self, runner):
        result = runner.invoke(main, ["campaign", "--op", "simplex",
                                      "--metric", "bogus", "--trials", "10"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--op", "simplex", "--n", "60", "--trials", "20"],
        ["--op", "polygon", "--check", "simplex-equality", "--n", "40", "--trials", "30",
         "--seed", "7"],
    ])
    def test_non_finite_rows_fail_closed(self, runner, args):
        result = runner.invoke(main, ["campaign", *args])
        assert result.exit_code == 1
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is False and summary["violations"] > 0

    @pytest.mark.parametrize("args", [
        ["--op", "simplex", "--trials", "0"],
        ["--op", "simplex", "--trials", "-5"],
        ["--op", "simplex", "--n", "1", "--trials", "10"],
        ["--op", "extended", "--n", "4", "--k", "7"],
        ["--op", "w-identity", "--n", "3", "--q", "5"],
        ["--op", "polygon", "--check", "hexagon"],
        ["--op", "simplex", "--tol", "-1"],
        ["--op", "simplex", "--metric", "generalized", "--m", "1"],
    ])
    def test_invalid_config_usage_error(self, runner, args):
        result = runner.invoke(main, ["campaign", *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


_ODE_SPEC = {
    "matrix": {"kind": "constant", "a0": [[-1.0, 0.0], [0.0, -1.0]]},
    "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "grid": [0.0, 0.5, 1.0],
}


class TestMalformedNumbers:
    @pytest.mark.parametrize("args", [
        ["simplex", "--input", "{csv}", "--y", "a,b"],
        ["simplex", "--input", "{csv}", "--y", ","],
        ["extended", "--input", "{csv}", "--y", "x"],
        ["polygon", "--input", json.dumps({"R": "x", "angles": [0.0, 1.0, 2.0]})],
        ["polygon", "--input", json.dumps({"R": 1.0, "angles": [0.0, "a", 2.0]})],
        ["ode", "--input", json.dumps({**_ODE_SPEC, "grid": [0.0, "x", 1.0]})],
        ["ode", "--input", json.dumps({**_ODE_SPEC, "matrix": {"kind": "constant",
                                                              "a0": [["x", 0.0], [0.0, 1.0]]}})],
        ["simplex", "--input", "{csv}", "--y", "1,2,3"],
        ["extended", "--input", "{csv}", "--y", "1,2,3"],
    ])
    def test_usage_error(self, runner, complex_csv, args):
        result = runner.invoke(main, [a.replace("{csv}", complex_csv) for a in args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


class TestRunner:
    """Every command's output goes through one runner: exit 0/1 from the verdict, 2 on misuse."""

    @pytest.mark.parametrize("args", [
        ["campaign", "--op", "simplex", "--trials", "10"],
        ["polygon", "--input", json.dumps({"R": 1.0, "angles": [0.0, 2.0, 4.0]})],
    ])
    @pytest.mark.parametrize("output", ["/no/such/dir/x", "{dir}"])
    def test_unwritable_output_is_usage_error(self, runner, tmp_path, args, output):
        result = runner.invoke(main, [*args, "--output", output.replace("{dir}", str(tmp_path))])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("n,operations", [
        (3, ["triangle_check", "ngon_check", "simplex_equality_ngon"]),
        (4, ["quadrilateral_check", "ptolemy_gap", "ngon_check", "simplex_equality_ngon"]),
        (5, ["ngon_check", "simplex_equality_ngon"]),
    ])
    def test_polygon_all_runs_the_checks_of_its_size(self, runner, n, operations):
        spec = json.dumps({"R": 1.3, "angles": [0.2 + 1.1 * k for k in range(n)]})
        result = runner.invoke(main, ["polygon", "--input", spec, "--check", "all"])
        assert result.exit_code == 0
        assert [json.loads(line)["operation"] for line in result.output.splitlines()] \
            == operations

    def test_polygon_check_of_another_size_is_usage_error(self, runner):
        spec = json.dumps({"R": 1.0, "angles": [0.0, 1.0, 2.0, 3.0, 4.0]})
        result = runner.invoke(main, ["polygon", "--input", spec, "--check", "triangle"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


class TestLogging:
    def test_log_env_var(self, runner, complex_csv, monkeypatch):
        monkeypatch.setenv("VANDERMETRIC_LOG", "DEBUG")
        result = runner.invoke(main, ["eval", "--input", complex_csv])
        assert result.exit_code == 0


# One invocation per behaviour the runner must keep byte for byte: every
# command, each output format, exit-1 verdicts and usage errors.  Paths are
# hashed as their placeholders; --help is left out (its text is click's).
_PENTAGON = json.dumps({"R": 1.0, "angles": [2 * math.pi * k / 5 for k in range(5)]})
_REGULAR = {n: json.dumps({"R": 1.0, "angles": [2 * math.pi * k / n for k in range(n)]})
            for n in (3, 4)}
_QUAD = json.dumps({"R": 2.0, "angles": [0.3, 1.2, 3.0, 5.0]})
_TRIANGLE = json.dumps({"R": 1.5, "angles": [0.1, 2.0, 4.0], "center": [0.5, -1.0]})
_ODE_GOLDEN = json.dumps({**_ODE_SPEC, "grid": list(np.linspace(0.0, 1.0, 21))})
_MISSING_OUTPUT = "/no/such/dir/x"
_GOLDEN_INVOCATIONS = [
    ["eval", "--input", "{csv}"],
    ["eval", "--input", "{tetra}", "--vectors", "--metric", "pairwise"],
    ["eval", "--input", "/no/such/file.csv"],
    ["simplex", "--input", "{csv}", "--y", "0.5,0.5"],
    ["simplex", "--input", "{tetra}", "--vectors", "--metric", "pairwise", "--y", "0,0,0"],
    ["simplex", "--input", "{tetra}", "--vectors", "--metric", "pairwise_root", "--y", "0,0,0",
     "--tol", "0"],
    ["simplex", "--input", "{csv}", "--y", "a,b"],
    ["extended", "--input", "{csv}", "--y", "1,1"],
    ["extended", "--input", "{csv}", "--y", "1,1", "--k", "1", "--tol", "0"],
    ["extended", "--input", "{csv}", "--y", "1,1", "--k", "7"],
    ["equality-family"],
    ["equality-family", "--q", "2", "--s", "0.5", "--tol", "0"],
    ["equality-family", "--q", "-1"],
    ["polygon", "--input", _PENTAGON],
    ["polygon", "--input", _QUAD],
    ["polygon", "--input", _TRIANGLE, "--tol", "0"],
    ["polygon", "--input", _QUAD, "--emit-csv"],
    ["polygon", "--input", _REGULAR[3], "--tol", "0"],
    ["polygon", "--input", _REGULAR[4], "--tol", "0", "--emit-csv"],
    ["polygon", "--input", _TRIANGLE, "--check", "triangle", "--emit-csv"],
    ["polygon", "--input", _PENTAGON, "--check", "ngon", "--output", _MISSING_OUTPUT],
    ["polygon", "--input", _PENTAGON, "--check", "triangle"],
    ["multilinear-verify", "--n", "3", "--m", "3", "--trials", "20", "--seed", "1"],
    ["multilinear-verify", "--n", "3", "--m", "3", "--trials", "20", "--tol", "0"],
    ["multilinear-verify", "--n", "1", "--trials", "20"],
    ["definiteness", "--n", "3", "--m", "3"],
    ["definiteness", "--n", "3", "--m", "5", "--budget", "100"],
    ["definiteness", "--n", "2", "--m", "3"],
    ["counterexample", "tetrahedron"],
    ["counterexample", "four-four"],
    ["counterexample", "tetrahedron", "--output", _MISSING_OUTPUT],
    ["ode", "--input", _ODE_GOLDEN],
    ["ode", "--input", _ODE_GOLDEN, "--format", "csv"],
    ["ode", "--input", json.dumps({**_ODE_SPEC, "grid": [0.0, "x", 1.0]})],
    ["campaign", "--op", "simplex", "--trials", "200", "--seed", "1"],
    ["campaign", "--op", "equality-family", "--trials", "50", "--tol", "0", "--format", "csv"],
    ["campaign", "--op", "simplex", "--n", "60", "--trials", "5", "--format", "csv"],
    ["campaign", "--op", "sum-identity", "--trials", "20", "--tol", "0", "--format", "json"],
    ["campaign", "--op", "polygon", "--check", "ngon", "--n", "5", "--trials", "50",
     "--format", "json"],
    ["campaign", "--op", "polygon", "--check", "ptolemy", "--trials", "30", "--tol", "0"],
    ["campaign", "--op", "simplex", "--trials", "0"],
    ["campaign", "--op", "simplex", "--trials", "10", "--output", _MISSING_OUTPUT],
]
_GOLDEN_SHA256 = "65ad004dc2044c03c084a1d5249fc21cb1c5c47a3b55ba23f4f7d5c940159bb5"


def test_cli_golden(runner, complex_csv, tetrahedron_csv):
    digest = hashlib.sha256()
    for args in _GOLDEN_INVOCATIONS:
        result = runner.invoke(main, [a.replace("{csv}", complex_csv)
                                      .replace("{tetra}", tetrahedron_csv) for a in args])
        digest.update(f"{args!r}\0{result.exit_code}\0{result.output}\0".encode())
    assert digest.hexdigest() == _GOLDEN_SHA256
