"""Command-line front end.

Exit codes: 0 all checks passed, 1 a mathematical check failed or the
definiteness search ran out of budget, 2 usage or input error.  Set
VANDERMETRIC_LOG to a logging level name (DEBUG, INFO, ...) for
diagnostics on stderr.
"""

from __future__ import annotations

import json
import logging
import os
import sys

import click

from .campaign import CAMPAIGN_OPS, CampaignConfig, run_campaign
from .core import (
    METRICS,
    dump_json,
    extended_inequality_gap,
    resolve_metric,
    simplex_gap,
)
from .errors import ArgumentError, ResourceError, SingularityError, StepSizeError
from .geometry import (
    equality_family,
    equality_gap_3,
    ngon_check,
    ptolemy_gap,
    quadrilateral_check,
    simplex_equality_ngon,
    tetrahedron_counterexample,
    tetrahedron_simplex_report,
    triangle_check,
)
from .io import polygon_from_json, problem_from_json, read_points_csv
from .multilinear import counterexample_4_4_report, definiteness_decide
from .ode import integrate, verify_estimate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

log = logging.getLogger("vandermetric")

_USAGE_ERRORS = (ArgumentError, SingularityError, ResourceError, StepSizeError,
                 FileNotFoundError, KeyError, json.JSONDecodeError)


def _setup_logging():
    level = os.environ.get("VANDERMETRIC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr, format="%(levelname)s %(message)s")


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _guard(fn):
    """Run a command body, mapping domain errors to exit code 2."""
    try:
        return fn()
    except _USAGE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


@click.group()
def main():
    """Vandermonde n-metric verification toolkit."""
    _setup_logging()


_input_opt = click.option("--input", "input_path", required=True,
                          type=click.Path(exists=False), help="CSV point file.")
_complex_opt = click.option("--complex/--vectors", "complex_points", default=True,
                            help="Interpret CSV rows as (re, im) pairs or as vectors.")
_output_opt = click.option("--output", default=None, type=click.Path(),
                           help="Write reports to a file instead of stdout.")
_tol_opt = click.option("--tol", default=None, type=float, help="Relative tolerance.")
_seed_opt = click.option("--seed", default=0, type=int, show_default=True)


@main.command("eval")
@_input_opt
@_complex_opt
@click.option("--metric", default="vandermonde", show_default=True,
              type=click.Choice(sorted(METRICS)))
@_output_opt
def eval_cmd(input_path, complex_points, metric, output):
    """Evaluate a metric on a point tuple read from CSV."""
    def body():
        t = read_points_csv(input_path, complex_points=complex_points)
        value = resolve_metric(metric)(list(t.points))
        _emit([dump_json({"metric": metric, "n": t.n, "m": t.m, "value": value})], output)
        return EXIT_OK

    sys.exit(_guard(body))


def _parse_y(spec: str, complex_point: bool):
    """The --y replacement point: re[,im] for complex points, else the coordinates."""
    try:
        y = [float(c) for c in spec.split(",")]
    except ValueError:
        raise ArgumentError(f"--y must be comma-separated numbers, got {spec!r}") from None
    return complex(y[0], y[1] if len(y) > 1 else 0.0) if complex_point else y


@main.command("simplex")
@_input_opt
@_complex_opt
@click.option("--metric", default="vandermonde", show_default=True,
              type=click.Choice(sorted(METRICS)))
@click.option("--y", "y_spec", required=True,
              help="Replacement point, comma-separated coordinates.")
@_tol_opt
@_output_opt
def simplex_cmd(input_path, complex_points, metric, y_spec, tol, output):
    """Check the simplex inequality for one tuple and replacement point."""
    def body():
        t = read_points_csv(input_path, complex_points=complex_points)
        y = _parse_y(y_spec, t.is_complex)
        kwargs = {"tol": tol} if tol is not None else {}
        report = simplex_gap(t, y, metric=metric, **kwargs)
        _emit([report.to_json()], output)
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("extended")
@_input_opt
@click.option("--y", "y_spec", required=True, help="Replacement point re,im.")
@click.option("--k", default=None, type=int, help="Power; default checks all k.")
@_tol_opt
@_output_opt
def extended_cmd(input_path, y_spec, k, tol, output):
    """Check the weighted simplex inequality |y|^k d <= sum |z_i|^k d_i."""
    def body():
        t = read_points_csv(input_path, complex_points=True)
        y = _parse_y(y_spec, complex_point=True)
        ks = range(t.n) if k is None else [k]
        kwargs = {"tol": tol} if tol is not None else {}
        reports = [extended_inequality_gap(t, y, kk, **kwargs) for kk in ks]
        _emit([r.to_json() for r in reports], output)
        return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("equality-family")
@click.option("--q", default=1.0, type=float, show_default=True)
@click.option("--s", default=2.0, type=float, show_default=True)
@_tol_opt
@_output_opt
def equality_family_cmd(q, s, tol, output):
    """Evaluate the two-parameter exact-equality configuration."""
    def body():
        fam = equality_family(q, s)
        kwargs = {"tol": tol} if tol is not None else {}
        report = equality_gap_3(*fam.quadruple(), **kwargs)
        record = report.to_dict()
        record["q"] = q
        record["s"] = s
        _emit([dump_json(record)], output)
        return EXIT_OK if report.flags["equality"] else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("polygon")
@click.option("--input", "input_path", required=True,
              help='Polygon JSON {"R": ..., "angles": [...], "center": [re, im]} or a path.')
@click.option("--check", default="all", show_default=True,
              type=click.Choice(["triangle", "quadrilateral", "ptolemy", "ngon",
                                 "simplex-equality", "all"]))
@_tol_opt
@_output_opt
@click.option("--emit-csv", is_flag=True, help="Emit CSV rows instead of JSON.")
def polygon_cmd(input_path, check, tol, output, emit_csv):
    """Run the cyclic-polygon inequality checks on one polygon."""
    def body():
        poly = polygon_from_json(input_path)
        checkers = {
            "triangle": triangle_check,
            "quadrilateral": quadrilateral_check,
            "ptolemy": ptolemy_gap,
            "ngon": ngon_check,
            "simplex-equality": simplex_equality_ngon,
        }
        if check == "all":
            names = ["ngon", "simplex-equality"]
            if poly.n == 3:
                names.insert(0, "triangle")
            if poly.n == 4:
                names = ["quadrilateral", "ptolemy"] + names
        else:
            names = [check]
        kwargs = {"tol": tol} if tol is not None else {}
        reports = [checkers[name](poly, **kwargs) for name in names]
        if emit_csv:
            lines = ["operation,lhs,rhs,gap"]
            lines += [f"{r.operation},{r.lhs!r},{r.rhs!r},{r.gap!r}" for r in reports]
        else:
            lines = [r.to_json() for r in reports]
        _emit(lines, output)
        return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("multilinear-verify")
@click.option("--n", default=3, type=int, show_default=True)
@click.option("--m", default=3, type=int, show_default=True)
@click.option("--trials", default=100, type=int, show_default=True)
@_seed_opt
@_tol_opt
@_output_opt
def multilinear_verify_cmd(n, m, trials, seed, tol, output):
    """Alias: the multilinear-oracle, sum-identity and w-identity (q = 1..n) campaigns."""
    def body():
        ops = [("multilinear-oracle", 1), ("sum-identity", 1)]
        ops += [("w-identity", q) for q in range(1, n + 1)]
        lines = []
        ok = True
        for op, q in ops:
            result = run_campaign(CampaignConfig(op=op, seed=seed, trials=trials, tol=tol,
                                                 n=n, m=m, q=q))
            lines += result.json_lines()
            ok = ok and result.passed
        lines.append(dump_json({"record": "summary", "n": n, "m": m, "trials": trials,
                                "seed": seed, "pass": ok}))
        _emit(lines, output)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("definiteness")
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--budget", default=1_000_000, type=int, show_default=True)
@_output_opt
def definiteness_cmd(n, m, budget, output):
    """Decide definiteness of the generalized metric for (n, m); exit 1 when undecided."""
    def body():
        verdict = definiteness_decide(n, m, budget=budget)
        _emit([dump_json(verdict.to_dict())], output)
        return EXIT_CHECK_FAILED if verdict.verdict == "exhausted" else EXIT_OK

    sys.exit(_guard(body))


@main.command("counterexample")
@click.argument("which", type=click.Choice(["tetrahedron", "four-four"]))
@_output_opt
def counterexample_cmd(which, output):
    """Reproduce a known counterexample; exit 0 when it reproduces."""
    def body():
        if which == "tetrahedron":
            report = tetrahedron_counterexample()
            record = report.to_dict()
            record["simplex_report"] = tetrahedron_simplex_report().to_dict()
            # Reproducing the EXPECTED failure is the pass condition.
            reproduced = (not report.simplex_holds) and (not report.reduction_holds)
        else:
            record = counterexample_4_4_report()
            del record["metric_components"]
            reproduced = record["structurally_zero"] and record["pairwise_distinct"] \
                and record["metric_value"] == 0.0
        record["reproduced"] = reproduced
        _emit([dump_json(record)], output)
        return EXIT_OK if reproduced else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("ode")
@click.option("--input", "input_path", required=True,
              help="Problem JSON (matrix catalog entry, initials, grid) or a path.")
@_tol_opt
@_output_opt
@click.option("--format", "fmt", default="jsonl", show_default=True,
              type=click.Choice(["jsonl", "csv"]))
def ode_cmd(input_path, tol, fmt, output):
    """Integrate a linear ODE problem and verify the contraction estimate."""
    def body():
        problem = problem_from_json(input_path)
        trajectories = integrate(problem)
        kwargs = {"tol": tol} if tol is not None else {}
        reports = verify_estimate(problem, trajectories, **kwargs)
        if fmt == "csv":
            lines = ["t,lhs,rhs,gap"]
            lines += [f"{r.inputs['t']!r},{r.lhs!r},{r.rhs!r},{r.gap!r}" for r in reports]
        else:
            lines = [r.to_json() for r in reports]
        _emit(lines, output)
        return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


@main.command("campaign")
@click.option("--op", required=True, type=click.Choice(CAMPAIGN_OPS))
@click.option("--metric", default="vandermonde", show_default=True)
@click.option("--trials", default=1000, type=int, show_default=True)
@_seed_opt
@_tol_opt
@click.option("--n", default=4, type=int, show_default=True)
@click.option("--m", default=3, type=int, show_default=True)
@click.option("--k", default=None, type=int)
@click.option("--q", default=1, type=int, show_default=True)
@click.option("--check", default="triangle", show_default=True)
@_output_opt
@click.option("--format", "fmt", default="jsonl", show_default=True,
              type=click.Choice(["json", "jsonl", "csv"]))
def campaign_cmd(op, metric, trials, seed, tol, n, m, k, q, check, output, fmt):
    """Run a seeded randomized verification campaign."""
    def body():
        config = CampaignConfig(op=op, metric=metric, seed=seed, trials=trials,
                                tol=tol, n=n, m=m, k=k, q=q, check=check)
        result = run_campaign(config)
        if fmt == "csv":
            lines = [",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
                     for row in result.csv_rows()]
        elif fmt == "json":
            lines = [dump_json({"failures": result.failures, "summary": result.summary()})]
        else:
            lines = list(result.json_lines())
        _emit(lines, output)
        return EXIT_OK if result.passed else EXIT_CHECK_FAILED

    sys.exit(_guard(body))


if __name__ == "__main__":
    main()
