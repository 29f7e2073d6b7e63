"""CLI behaviour: exit codes, output formats, determinism, file handling."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DISPATCH_SETS, run_at_lowered_dispatch
from vandermetric import batch, campaign, cli as cli_module, core
from vandermetric.io import read_points_csv, write_points_csv
from vandermetric import ArgumentError

SRC = Path(__file__).resolve().parents[1] / "src"


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
    def test_eval_complex(self, cli, complex_csv):
        result = cli(["eval", "--input", complex_csv])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["value"] == 2.0

    def test_eval_vectors(self, cli, tetrahedron_csv):
        result = cli(["eval", "--input", tetrahedron_csv,
                      "--vectors", "--metric", "pairwise"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["value"] == pytest.approx((8.0 / 3.0) ** 3, rel=1e-12)

    def test_missing_file_is_usage_error(self, cli):
        result = cli(["eval", "--input", "/no/such/file.csv"])
        assert result.exit_code == 2


class TestSimplex:
    def test_holds(self, cli, complex_csv):
        result = cli(["simplex", "--input", complex_csv, "--y", "0.5,0.5"])
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is True

    def test_tetrahedron_fails_with_exit_1(self, cli, tetrahedron_csv):
        result = cli(["simplex", "--input", tetrahedron_csv,
                      "--vectors", "--metric", "pairwise",
                      "--y", "0,0,0"])
        assert result.exit_code == 1
        assert json.loads(result.output)["pass"] is False

    @pytest.mark.parametrize("fixture,args", [
        ("complex_csv", ["--y", "nan,0"]),
        ("complex_csv", ["--y", "0,inf"]),
        ("tetrahedron_csv", ["--vectors", "--metric", "pairwise", "--y", "0,nan,0"]),
    ])
    def test_non_finite_replacement_point_is_usage_error(self, cli, request, fixture, args):
        result = cli(["simplex", "--input", request.getfixturevalue(fixture),
                      *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: non-finite replacement point")


class TestExtended:
    def test_all_k(self, cli, complex_csv):
        result = cli(["extended", "--input", complex_csv, "--y", "1,1"])
        assert result.exit_code == 0
        assert len(result.output.strip().splitlines()) == 3

    def test_bad_k(self, cli, complex_csv):
        result = cli(["extended", "--input", complex_csv,
                      "--y", "1,1", "--k", "7"])
        assert result.exit_code == 2

    def test_non_finite_replacement_point_is_usage_error(self, cli, complex_csv):
        result = cli(["extended", "--input", complex_csv, "--y", "inf,0",
                      "--k", "1"])
        assert result.exit_code == 2
        assert result.output.startswith("error: non-finite replacement point")

    def test_overflowing_weight_is_decided_in_logs(self, cli, tmp_path):
        path = tmp_path / "huge.csv"
        write_csv(path, [(1e200, 0), (0, 1), (2, 0)])
        result = cli(["extended", "--input", str(path), "--y", "1e200,0",
                      "--k", "2"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["pass"] is True and record["log_domain"] is True
        assert record["lhs"] == record["rhs"] == pytest.approx(1842.8727933514538)


class TestEqualityFamily:
    def test_default_parameters(self, cli):
        result = cli(["equality-family"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["equality"] is True

    def test_non_finite_point_is_usage_error(self, cli):
        result = cli(["equality-family", "--q", "1e-300", "--s", "1e300"])
        assert result.exit_code == 2
        assert result.output.startswith("error: non-finite equality-family point")

    def test_negative_parameter(self, cli):
        result = cli(["equality-family", "--q", "-1"])
        assert result.exit_code == 2


class TestPolygon:
    def test_regular_pentagon_all(self, cli):
        angles = [2 * math.pi * k / 5 for k in range(5)]
        spec = json.dumps({"R": 1.0, "angles": angles})
        result = cli(["polygon", "--input", spec])
        assert result.exit_code == 0

    def test_quadrilateral_includes_ptolemy(self, cli):
        angles = [0.3, 1.2, 3.0, 5.0]
        spec = json.dumps({"R": 2.0, "angles": angles})
        result = cli(["polygon", "--input", spec])
        assert result.exit_code == 0
        ops = [json.loads(line)["operation"] for line in result.output.strip().splitlines()]
        assert "ptolemy_gap" in ops and "quadrilateral_check" in ops

    def test_csv_output(self, cli):
        spec = json.dumps({"R": 1.0, "angles": [0.0, 2.0, 4.0]})
        result = cli(["polygon", "--input", spec, "--check", "triangle",
                      "--emit-csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "operation,lhs,rhs,gap"

    @pytest.mark.parametrize("angles", [[0.1, 2.0, 4.0], [0.1, 2.0, 4.0, 5.0]])
    def test_csv_rows_hold_plain_floats(self, cli, angles):
        spec = json.dumps({"R": 1.0, "angles": angles, "center": [0, 0]})
        result = cli(["polygon", "--input", spec, "--emit-csv"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert len(rows) == (3 if len(angles) == 3 else 4)
        for operation, *numbers in rows:
            assert [repr(float(x)) for x in numbers] == numbers, operation

    def test_from_file(self, cli, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"R": 1.0, "angles": [0.0, 2.1, 4.2]}))
        result = cli(["polygon", "--input", str(path)])
        assert result.exit_code == 0

    def test_invalid_polygon(self, cli):
        spec = json.dumps({"R": -1.0, "angles": [0.0, 1.0, 2.0]})
        result = cli(["polygon", "--input", spec])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", [
        '{"R": Infinity, "angles": [0, 2, 4]}',
        '{"R": 1, "angles": [0, 2, 4], "center": [NaN, 0]}',
    ])
    def test_non_finite_radius_or_center_is_usage_error(self, spec):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("VANDERMETRIC_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "vandermetric.cli", "polygon", "--input",
                               spec, "--check", "triangle"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        # The usage error alone: no numpy warning reaches stderr.
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestMultilinearVerify:
    def test_passes(self, cli):
        result = cli(["multilinear-verify", "--n", "3", "--m", "3",
                      "--trials", "20", "--seed", "1"])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is True

    def test_runs_the_identity_campaigns(self, cli):
        result = cli(["multilinear-verify", "--n", "3", "--m", "3",
                      "--trials", "20", "--seed", "1"])
        records = [json.loads(line) for line in result.output.strip().splitlines()]
        runs = [(r["config"]["op"], r["config"]["q"]) for r in records[:-1]]
        assert runs == [("multilinear-oracle", 1), ("sum-identity", 1),
                        ("w-identity", 1), ("w-identity", 2), ("w-identity", 3)]
        assert all(r["config"]["seed"] == 1 and r["pass"] for r in records[:-1])

    def test_failed_run_fails_the_summary(self, cli):
        result = cli(["multilinear-verify", "--n", "3", "--m", "3",
                      "--trials", "20", "--tol", "0"])
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["pass"] is False


    def test_negative_seed_usage_error(self, cli):
        result = cli(["multilinear-verify", "--trials", "5", "--seed", "-1"])
        assert result.exit_code == 2
        assert result.output.startswith("error: seed must be >= 0")


class TestDefiniteness:
    def test_definite_case(self, cli):
        result = cli(["definiteness", "--n", "3", "--m", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "definite"

    def test_counterexample_case(self, cli):
        result = cli(["definiteness", "--n", "4", "--m", "4"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["verdict"] == "counterexample"
        assert "witness_matrix" in record

    def test_exhausted_budget_exits_1(self, cli):
        result = cli(["definiteness", "--n", "3", "--m", "5",
                      "--budget", "100"])
        assert result.exit_code == 1
        assert json.loads(result.output)["verdict"] == "exhausted"

    def test_invalid_n(self, cli):
        result = cli(["definiteness", "--n", "2", "--m", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_empty_budget_is_a_usage_error(self, cli, budget):
        result = cli(["definiteness", "--n", "3", "--m", "5",
                      "--budget", budget])
        assert result.exit_code == 2
        assert "budget must be >= 1" in result.output


class TestCounterexample:
    def test_tetrahedron(self, cli):
        result = cli(["counterexample", "tetrahedron"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["reproduced"] is True
        assert record["simplex_holds"] is False

    def test_four_four(self, cli):
        result = cli(["counterexample", "four-four"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["reproduced"] is True
        assert record["metric_value"] == 0.0

    def test_unknown_choice(self, cli):
        result = cli(["counterexample", "pentagon"])
        assert result.exit_code == 2


class TestOde:
    def problem_spec(self, steps=100):
        return json.dumps({
            "matrix": {"kind": "constant", "a0": [[-1.0, 0.0], [0.0, -1.0]]},
            "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "grid": list(np.linspace(0.0, 1.0, steps + 1)),
        })

    def test_estimate_holds(self, cli):
        result = cli(["ode", "--input", self.problem_spec()])
        assert result.exit_code == 0
        for line in result.output.strip().splitlines():
            assert json.loads(line)["pass"] is True

    def test_csv_format(self, cli):
        result = cli(["ode", "--input", self.problem_spec(),
                      "--format", "csv"])
        assert result.exit_code == 0
        header, *rows = result.output.splitlines()
        assert header == "t,lhs,rhs,gap" and rows
        for row in rows:
            assert [repr(float(x)) for x in row.split(",")] == row.split(",")

    @pytest.mark.parametrize("matrix", [
        {"kind": "constant", "a0": [[1.0, 2.0]]},
        {"kind": "linear", "a0": [[1.0, 0.0], [0.0, 1.0]], "a1": [[1.0]]},
        {"kind": "sampled", "times": [1.0, 0.0], "samples": [[[1.0, 0.0], [0.0, 1.0]]] * 2},
        {"kind": "sinusoidal", "a0": [[0.0]], "a1": [[1.0]], "omega": "z"},
        {"kind": "sinusoidal", "a0": [[0.0]], "a1": [[1.0]], "omega": [1.0, 2.0]},
        [1],
        {"kind": []},
        {"kind": "cubic", "a0": [[1.0]]},
    ])
    def test_malformed_matrix_usage_error(self, cli, matrix):
        spec = json.dumps({"matrix": matrix, "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                           "grid": [0.0, 0.5, 1.0]})
        result = cli(["ode", "--input", spec])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_trajectories_that_overflow_are_one_usage_error(self):
        spec = json.dumps({"matrix": {"kind": "constant", "a0": [[1e200]]},
                           "initials": [[1.0], [2.0], [3.0]], "grid": [0.0, 0.1]})
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("VANDERMETRIC_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "vandermetric.cli", "ode", "--input", spec],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "error: the trajectories left the float range\n"

    def test_coarse_grid_usage_error(self, cli):
        spec = json.dumps({
            "matrix": {"kind": "constant", "a0": [[-10.0, 0.0], [0.0, -10.0]]},
            "initials": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "grid": [0.0, 1.0, 2.0],
        })
        result = cli(["ode", "--input", spec])
        assert result.exit_code == 2


class TestCampaignCommand:
    def test_simplex_summary(self, cli):
        result = cli(["campaign", "--op", "simplex",
                      "--trials", "200", "--seed", "1"])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is True

    def test_output_file_byte_identical(self, cli, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            result = cli(["campaign", "--op", "equality-family",
                          "--trials", "300", "--seed", "9",
                          "--output", str(path)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, cli):
        result = cli(["campaign", "--op", "polygon", "--check", "ngon",
                      "--n", "5", "--trials", "50", "--format", "json"])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["summary"]["pass"] is True

    def test_csv_format(self, cli):
        result = cli(["campaign", "--op", "simplex",
                      "--trials", "50", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "trial,lhs,rhs,gap"

    @pytest.mark.parametrize("args,failures", [
        (["--op", "equality-family", "--trials", "50", "--tol", "0"], True),
        (["--op", "sum-identity", "--trials", "20", "--tol", "0"], True),
        (["--op", "polygon", "--check", "ptolemy", "--trials", "30", "--tol", "0"], True),
        (["--op", "sum-identity", "--trials", "20"], False),
    ])
    def test_identity_csv_holds_gap_and_scale(self, cli, args, failures):
        result = cli(["campaign", *args, "--format", "csv"])
        assert result.exit_code == (1 if failures else 0)
        header, *rows = result.output.splitlines()
        assert header == "trial,gap,scale"
        assert bool(rows) == failures
        for row in rows:
            trial, gap, scale = row.split(",")
            assert int(trial) >= 0 and float(gap) > 0.0 and float(scale) >= 1.0

    def test_unknown_op_rejected(self, cli):
        result = cli(["campaign", "--op", "bogus"])
        assert result.exit_code == 2

    def test_bad_metric_usage_error(self, cli):
        result = cli(["campaign", "--op", "simplex",
                      "--metric", "bogus", "--trials", "10"])
        assert result.exit_code == 2

    # The generalized products pass the float range at these sizes.
    @pytest.mark.parametrize("args", [
        ["--op", "simplex", "--metric", "generalized", "--n", "60", "--m", "3", "--trials", "5"],
        ["--op", "simplex", "--metric", "generalized", "--n", "40", "--m", "5", "--trials", "5"],
    ])
    def test_overflowing_rows_are_decided_in_logs(self, cli, args):
        result = cli(["campaign", *args])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is True and math.isfinite(summary["worst"])

    def test_non_finite_rows_fail_closed(self, cli, monkeypatch):
        # No campaign yields a side that is not finite, so the block stream's
        # are made so, past the log escape: they reach the verdict as LINEAR.
        blocks = core.replacement_blocks

        def non_finite(*args):
            for rows, lhs, rhs, domain in blocks(*args):
                lhs[0, 1], rhs[0, 3] = math.nan, math.inf
                yield rows, lhs, rhs, domain

        monkeypatch.setattr(core, "replacement_blocks", non_finite)
        result = cli(["campaign", "--op", "simplex", "--trials", "5"])
        assert result.exit_code == 1
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["pass"] is False and summary["violations"] == 2
        assert summary["worst"] == "nan"

    def test_a_planted_wrong_rhs_fails_through_the_one_seam(self, cli, plant_rhs):
        # rhs := 0 in the replacement blocks fails the campaign and the
        # scalar report alike; rhs x 2 in the identity blocks fails theirs.
        plant_rhs(core, "replacement_blocks", lambda lhs, rhs, domain: np.zeros_like(rhs))
        assert cli(["campaign", "--op", "simplex", "--n", "6", "--trials", "50"]).exit_code == 1
        report = core.simplex_gap([0, 1, 2j, 3, 4 - 1j, 5 + 5j], 1 + 1j)
        assert report.rhs == 0.0 and report.to_dict()["pass"] is False
        plant_rhs(batch, "identity_blocks", lambda lhs, rhs, domain: 2 * rhs)
        result = cli(["campaign", "--op", "sum-identity", "--n", "4", "--trials", "200"])
        assert result.exit_code == 1

    def test_out_of_memory_is_a_usage_error(self, cli, monkeypatch):
        # An allocation too large for the machine, as --n 100000 asks for,
        # is raised here instead of made.
        def out_of_memory(config):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli_module, "run_campaign", out_of_memory)
        result = cli(["campaign", "--op", "simplex", "--n", "100000", "--trials", "10"])
        assert result.exit_code == 2
        assert result.output == "error: Unable to allocate 74.5 GiB for an array\n"

    @pytest.mark.parametrize("args", [
        ["--op", "simplex", "--trials", "0"],
        ["--op", "simplex", "--trials", "-5"],
        ["--op", "simplex", "--n", "1", "--trials", "10"],
        ["--op", "extended", "--n", "4", "--k", "7"],
        ["--op", "w-identity", "--n", "3", "--q", "5"],
        ["--op", "polygon", "--check", "hexagon"],
        ["--op", "simplex", "--tol", "-1"],
        ["--op", "simplex", "--metric", "generalized", "--m", "1"],
        ["--op", "simplex", "--seed", "-1"],
        ["--op", "extended", "--metric", "root"],
        ["--op", "sum-identity", "--q", "3"],
        ["--op", "simplex", "--check", "ngon"],
    ])
    def test_invalid_config_usage_error(self, cli, args):
        result = cli(["campaign", *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("args,size", [
        (["--op", "ode", "--n", "9"], 3),
        (["--op", "simplex", "--metric", "euclidean3", "--n", "60"], 3),
        (["--op", "polygon", "--check", "triangle", "--n", "9"], 3),
        (["--op", "polygon", "--check", "ptolemy", "--n", "40"], 4),
        (["--op", "equality-family", "--n", "10"], 3),
    ])
    def test_size_the_campaign_does_not_check_is_usage_error(self, cli, args, size):
        result = cli(["campaign", *args, "--trials", "5"])
        assert result.exit_code == 2
        assert result.output == (f"error: this {args[1]} campaign checks {size} points whatever "
                                 f"n is; got n={args[-1]} (leave n out, or give {size})\n")

    @pytest.mark.parametrize("args", [
        ["--op", "polygon"],
        ["--op", "polygon", "--check", "triangle", "--n", "3"],
        ["--op", "simplex", "--metric", "euclidean3", "--n", "3"],
    ])
    def test_size_the_campaign_checks_runs(self, cli, args):
        result = cli(["campaign", *args, "--trials", "5"])
        assert result.exit_code == 0

    def test_k_of_an_op_that_never_reads_it_is_usage_error(self, cli):
        for op, k in (("simplex", "2"), ("sum-identity", "9")):
            result = cli(["campaign", "--op", op, "--k", k, "--trials", "10"])
            assert result.exit_code == 2
            assert result.output == f"error: k is a power of the extended campaign only, " \
                                    f"not of {op!r}\n"
        result = cli(["campaign", "--op", "extended", "--k", "2", "--trials", "10"])
        assert result.exit_code == 0


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
    def test_usage_error(self, cli, complex_csv, args):
        result = cli([a.replace("{csv}", complex_csv) for a in args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


class TestRunner:
    """Every command's output goes through one runner: exit 0/1 from the verdict, 2 on misuse."""

    @pytest.mark.parametrize("args", [
        ["campaign", "--op", "simplex", "--trials", "10"],
        ["polygon", "--input", json.dumps({"R": 1.0, "angles": [0.0, 2.0, 4.0]})],
    ])
    @pytest.mark.parametrize("output", ["/no/such/dir/x", "{dir}"])
    def test_unwritable_output_is_usage_error(self, cli, tmp_path, args, output):
        result = cli([*args, "--output", output.replace("{dir}", str(tmp_path))])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("n,operations", [
        (3, ["triangle_check", "ngon_check", "simplex_equality_ngon"]),
        (4, ["quadrilateral_check", "ptolemy_gap", "ngon_check", "simplex_equality_ngon"]),
        (5, ["ngon_check", "simplex_equality_ngon"]),
    ])
    def test_polygon_all_runs_the_checks_of_its_size(self, cli, n, operations):
        spec = json.dumps({"R": 1.3, "angles": [0.2 + 1.1 * k for k in range(n)]})
        result = cli(["polygon", "--input", spec, "--check", "all"])
        assert result.exit_code == 0
        assert [json.loads(line)["operation"] for line in result.output.splitlines()] \
            == operations

    def test_polygon_check_of_another_size_is_usage_error(self, cli):
        spec = json.dumps({"R": 1.0, "angles": [0.0, 1.0, 2.0, 3.0, 4.0]})
        result = cli(["polygon", "--input", spec, "--check", "triangle"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


COMMANDS = ["eval", "simplex", "extended", "equality-family", "polygon", "multilinear-verify",
            "definiteness", "counterexample", "ode", "campaign"]


class TestParsing:
    """The exit codes of the parser itself: 2 on misuse, 0 for --help."""

    def test_no_command_is_usage_error(self, cli):
        assert cli([]).exit_code == 2

    @pytest.mark.parametrize("command", [[]] + [[name] for name in COMMANDS])
    def test_help_exits_0(self, cli, command):
        result = cli([*command, "--help"])
        assert result.exit_code == 0 and result.stdout

    @pytest.mark.parametrize("args", [
        ["campaign", "--op", "bogus", "--help"],
        ["campaign", "--trials", "ten", "--help"],
        ["counterexample", "--help", "pentagon"],
    ])
    def test_help_wins_over_an_invalid_value(self, cli, args):
        result = cli(args)
        assert result.exit_code == 0 and result.stdout.startswith(f"usage: vandermetric {args[0]}")

    def test_help_after_an_unknown_command_is_usage_error(self, cli):
        assert cli(["bogus", "--help"]).exit_code == 2

    @pytest.mark.parametrize("args", [
        ["campaign", "--op", "simplex", "--tri", "5"],
        ["bogus"],
        ["campaign", "--op", "simplex", "--format", "xml"],
        ["eval", "--input", "x.csv", "--metric", "bogus"],
        ["campaign", "--op", "simplex", "--trials", "ten"],
        ["definiteness", "--n", "3"],
    ], ids=["abbreviated-option", "unknown-command", "bad-choice", "bad-metric-choice",
            "non-integer", "missing-required"])
    def test_parser_usage_error(self, cli, args):
        result = cli(args)
        assert result.exit_code == 2 and result.stdout == ""

    @pytest.mark.parametrize("args,y", [
        (["simplex", "--input", "{csv}"], "-0.5,0.5"),
        (["extended", "--input", "{csv}", "--k", "1"], "-1,-1"),
    ])
    def test_a_value_that_starts_with_a_dash(self, cli, complex_csv, args, y):
        args = [a.replace("{csv}", complex_csv) for a in args]
        spaced, joined = cli([*args, "--y", y]), cli([*args, f"--y={y}"])
        assert spaced == joined and spaced.exit_code == 0
        assert json.loads(spaced.stdout)["inputs"]["y"] == [float(c) for c in y.split(",")]


class TestLogging:
    @staticmethod
    def run(env):
        proc = subprocess.run([sys.executable, "-m", "vandermetric.cli", "campaign", "--op",
                               "simplex", "--trials", "16"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_log_env_var(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("VANDERMETRIC_LOG", None)
        quiet = self.run(env)
        loud = self.run({**env, "VANDERMETRIC_LOG": "DEBUG"})
        assert quiet.stderr == ""
        assert "DEBUG simplex campaign: 16 rows judged, 1 verdict blocks, 0 violations" \
            in loud.stderr.splitlines()
        assert loud.stdout == quiet.stdout

    def test_each_in_process_call_logs_to_its_own_stderr(self, cli, monkeypatch):
        args = ["campaign", "--op", "simplex", "--trials", "16"]
        monkeypatch.setenv("VANDERMETRIC_LOG", "DEBUG")
        first, second = cli(args), cli(args)
        monkeypatch.setenv("VANDERMETRIC_LOG", "WARNING")
        quiet = cli(args)
        line = "DEBUG simplex campaign: 16 rows judged, 1 verdict blocks, 0 violations"
        assert first.stderr.splitlines() == second.stderr.splitlines() == [line]
        assert quiet.stderr == ""


# One invocation per behaviour the runner must keep byte for byte: every
# command, each output format, exit-1 verdicts and usage errors.  Paths are
# hashed as their placeholders; --help is left out (its text is argparse's).
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
# Recorded again when the permutation expansion became the subset recursion:
# the multilinear-oracle lines of the two multilinear-verify --m 3 runs moved
# by a few ulps.  Recorded again when the triangle and quadrilateral checks
# became the simplex-equality kernel at n = 3 and 4: their lhs, rhs and gap
# moved in the last ulps, and the regular triangle at --tol 0 now reads
# equality with gap 0; every exit code stayed.
_GOLDEN_SHA256 = "1a4429e201d55b5cb90d4ca1cca2c98c9098d2acf7c9cfaf3b7940f372acbf94"


def test_cli_golden(cli, complex_csv, tetrahedron_csv):
    digest = hashlib.sha256()
    for args in _GOLDEN_INVOCATIONS:
        result = cli([a.replace("{csv}", complex_csv)
                      .replace("{tetra}", tetrahedron_csv) for a in args])
        digest.update(f"{args!r}\0{result.exit_code}\0{result.output}\0".encode())
    assert digest.hexdigest() == _GOLDEN_SHA256


# Runs the invocations read from stdin through the in-process runner: each
# run's exit code and output.
_DISPATCH_CLI_RUNS = """
from conftest import run_cli
result = [[run.exit_code, run.output] for run in map(run_cli, json.load(sys.stdin))]
"""


def _verdicts(output: str) -> list:
    """(pass, violations) of every JSON record with a pass in output, in order."""
    found = []

    def walk(value):
        if isinstance(value, dict):
            if "pass" in value:
                found.append((value["pass"], value.get("violations")))
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                walk(item)

    for line in output.splitlines():
        try:
            walk(json.loads(line))
        except json.JSONDecodeError:
            pass  # a CSV line or plain text
    return found


@pytest.mark.parametrize("turned_off", DISPATCH_SETS)
def test_golden_verdicts_hold_without_avx512(cli, complex_csv, tetrahedron_csv, turned_off):
    # numpy picks its float kernels by CPU, and its AVX-512 kernels round
    # some transcendental functions differently, so the golden bytes hold on
    # one dispatch target only.  The verdicts must hold on each: every exit
    # code, and at the default tolerance every pass and violation count.
    invocations = [[a.replace("{csv}", complex_csv).replace("{tetra}", tetrahedron_csv)
                    for a in args] for args in _GOLDEN_INVOCATIONS]
    lowered = run_at_lowered_dispatch(turned_off, _DISPATCH_CLI_RUNS, invocations)
    assert len(lowered) == len(invocations)
    for args, run, (code, output) in zip(_GOLDEN_INVOCATIONS, map(cli, invocations), lowered):
        assert code == run.exit_code, args
        if "--tol" not in args:
            assert _verdicts(output) == _verdicts(run.output), args


@pytest.mark.parametrize("polygon,check", [
    ({"R": 1e10, "angles": [2 * math.pi * k / 12 for k in range(12)]}, "ngon"),
    ({"R": 1e110, "angles": [0.1, 2.0, 4.0]}, "triangle"),
    ({"R": 1e-200, "angles": [0.3, 1.2, 3.0, 5.0]}, "quadrilateral"),
])
def test_a_polygon_past_the_float_range_is_compared_in_logs(cli, polygon, check):
    result = cli(["polygon", "--input", json.dumps(polygon), "--check", check])
    assert result.exit_code == 0 and result.stderr == ""
    report = json.loads(result.stdout)
    assert report["pass"] and report["log_domain"]
    if "equality" in report:  # the triangle and the quadrilateral are not equilateral
        assert report["equality"] is False and report["equilateral"] is False


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("args", [
    ["simplex", "--input", "{csv}", "--y", "1,0"],
    ["extended", "--input", "{csv}", "--y", "1,1", "--k", "1"],
    ["equality-family"],
    ["polygon", "--input", _TRIANGLE],
    ["ode", "--input", json.dumps(_ODE_SPEC)],
])
def test_invalid_tol_is_usage_error(cli, complex_csv, args, tol):
    result = cli([a.replace("{csv}", complex_csv) for a in args]
           + ["--tol", tol])
    assert result.exit_code == 2
    assert result.output == f"error: tol must be a finite number >= 0, got {float(tol)}\n"
