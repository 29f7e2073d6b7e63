"""Command-line front end.

Exit codes: 0 all checks passed, 1 a mathematical check failed or the
definiteness search ran out of budget, 2 usage or input error.  Set
VANDERMETRIC_LOG to a logging level name (DEBUG, INFO, ...) for
diagnostics on stderr.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys

import click

from .campaign import CAMPAIGN_OPS, CampaignConfig, run_campaign
from .core import (
    IDENTITY,
    METRICS,
    POLYGON_CHECK_NAMES,
    checked_tol,
    dump_json,
    extended_inequality_gap,
    resolve_metric,
    simplex_gap,
)
from .errors import ArgumentError, ResourceError, SingularityError, StepSizeError

# Each command imports the modules beyond campaign and core that its body
# runs, so a cold process compiles only those.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# OSError covers input files that cannot be read and --output files that
# cannot be written.
_USAGE_ERRORS = (ArgumentError, SingularityError, ResourceError, StepSizeError,
                 OSError, KeyError, json.JSONDecodeError)


def _setup_logging():
    level = os.environ.get("VANDERMETRIC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr, format="%(levelname)s %(message)s")


@click.group()
def main():
    """Vandermonde n-metric verification toolkit."""
    _setup_logging()


def _command(name):
    """Register a command body that returns (output lines, passed).

    The runner writes the lines to stdout or to --output and exits 0 when
    passed, 1 when not, and 2 on a usage or input error.
    """
    def register(body):
        @functools.wraps(body)
        def run(output, **kwargs):
            try:
                lines, passed = body(**kwargs)
                text = "\n".join(lines) + "\n"
                if output:
                    with open(output, "w") as fh:
                        fh.write(text)
                else:
                    click.echo(text, nl=False)
            except _USAGE_ERRORS as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_USAGE)
            sys.exit(EXIT_OK if passed else EXIT_CHECK_FAILED)

        return main.command(name)(run)

    return register


def _tol(tol):
    """The tol keyword of a library check: left out unless given, so the check's default holds.

    A given tol must be a finite number >= 0 (ArgumentError).
    """
    checked_tol(tol)
    return {} if tol is None else {"tol": tol}


def _csv(header, rows):
    """CSV lines: the header, then one line per row with floats as repr and the rest as str."""
    return [",".join(header)] + [
        ",".join(repr(c) if isinstance(c, float) else str(c) for c in row) for row in rows]


_input_opt = click.option("--input", "input_path", required=True,
                          type=click.Path(exists=False), help="CSV point file.")
_complex_opt = click.option("--complex/--vectors", "complex_points", default=True,
                            help="Interpret CSV rows as (re, im) pairs or as vectors.")
_output_opt = click.option("--output", default=None, type=click.Path(),
                           help="Write reports to a file instead of stdout.")
_tol_opt = click.option("--tol", default=None, type=float, help="Relative tolerance.")
_seed_opt = click.option("--seed", default=0, type=int, show_default=True)


@_command("eval")
@_input_opt
@_complex_opt
@click.option("--metric", default="vandermonde", show_default=True,
              type=click.Choice(sorted(METRICS)))
@_output_opt
def eval_cmd(input_path, complex_points, metric):
    """Evaluate a metric on a point tuple read from CSV."""
    from .io import read_points_csv

    t = read_points_csv(input_path, complex_points=complex_points)
    value = resolve_metric(metric)(list(t.points))
    return [dump_json({"metric": metric, "n": t.n, "m": t.m, "value": value})], True


def _parse_y(spec: str, complex_point: bool):
    """The --y replacement point: re[,im] for complex points, else the coordinates."""
    try:
        y = [float(c) for c in spec.split(",")]
    except ValueError:
        raise ArgumentError(f"--y must be comma-separated numbers, got {spec!r}") from None
    if not complex_point:
        return y
    if len(y) > 2:
        raise ArgumentError(f"--y must be re[,im] for a complex point, got {spec!r}")
    return complex(*y)


@_command("simplex")
@_input_opt
@_complex_opt
@click.option("--metric", default="vandermonde", show_default=True,
              type=click.Choice(sorted(METRICS)))
@click.option("--y", "y_spec", required=True,
              help="Replacement point, comma-separated coordinates.")
@_tol_opt
@_output_opt
def simplex_cmd(input_path, complex_points, metric, y_spec, tol):
    """Check the simplex inequality for one tuple and replacement point."""
    from .io import read_points_csv

    t = read_points_csv(input_path, complex_points=complex_points)
    report = simplex_gap(t, _parse_y(y_spec, t.is_complex), metric=metric, **_tol(tol))
    return [report.to_json()], report.passed


@_command("extended")
@_input_opt
@click.option("--y", "y_spec", required=True, help="Replacement point re,im.")
@click.option("--k", default=None, type=int, help="Power; default checks all k.")
@_tol_opt
@_output_opt
def extended_cmd(input_path, y_spec, k, tol):
    """Check the weighted simplex inequality |y|^k d <= sum |z_i|^k d_i."""
    from .io import read_points_csv

    t = read_points_csv(input_path, complex_points=True)
    y = _parse_y(y_spec, complex_point=True)
    ks = range(t.n) if k is None else [k]
    reports = [extended_inequality_gap(t, y, kk, **_tol(tol)) for kk in ks]
    return [r.to_json() for r in reports], all(r.passed for r in reports)


@_command("equality-family")
@click.option("--q", default=1.0, type=float, show_default=True)
@click.option("--s", default=2.0, type=float, show_default=True)
@_tol_opt
@_output_opt
def equality_family_cmd(q, s, tol):
    """Evaluate the two-parameter exact-equality configuration."""
    from .geometry import equality_family, equality_gap_3

    report = equality_gap_3(*equality_family(q, s).quadruple(), **_tol(tol))
    return [dump_json({**report.to_dict(), "q": q, "s": s})], report.flags["equality"]


@_command("polygon")
@click.option("--input", "input_path", required=True,
              help='Polygon JSON {"R": ..., "angles": [...], "center": [re, im]} or a path.')
@click.option("--check", default="all", show_default=True,
              type=click.Choice([*POLYGON_CHECK_NAMES, "all"]))
@_tol_opt
@_output_opt
@click.option("--emit-csv", is_flag=True, help="Emit CSV rows instead of JSON.")
def polygon_cmd(input_path, check, tol, emit_csv):
    """Run the cyclic-polygon inequality checks on one polygon."""
    from .geometry import POLYGON_CHECKS
    from .io import polygon_from_json

    poly = polygon_from_json(input_path)
    if check == "all":
        checks = [c for c in POLYGON_CHECKS.values() if c.size in (None, poly.n)]
    else:
        checks = [POLYGON_CHECKS[check]]
    reports = [c.check(poly, **_tol(tol)) for c in checks]
    if emit_csv:
        lines = _csv(("operation", "lhs", "rhs", "gap"),
                     [(r.operation, r.lhs, r.rhs, r.gap) for r in reports])
    else:
        lines = [r.to_json() for r in reports]
    return lines, all(r.passed for r in reports)


@_command("multilinear-verify")
@click.option("--n", default=3, type=int, show_default=True)
@click.option("--m", default=3, type=int, show_default=True)
@click.option("--trials", default=100, type=int, show_default=True)
@_seed_opt
@_tol_opt
@_output_opt
def multilinear_verify_cmd(n, m, trials, seed, tol):
    """Alias: the multilinear-oracle, sum-identity and w-identity (q = 1..n) campaigns."""
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
    return lines, ok


@_command("definiteness")
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--budget", default=1_000_000, type=int, show_default=True)
@_output_opt
def definiteness_cmd(n, m, budget):
    """Decide definiteness of the generalized metric for (n, m); exit 1 when undecided."""
    from .multilinear import definiteness_decide

    verdict = definiteness_decide(n, m, budget=budget)
    return [dump_json(verdict.to_dict())], verdict.verdict != "exhausted"


@_command("counterexample")
@click.argument("which", type=click.Choice(["tetrahedron", "four-four"]))
@_output_opt
def counterexample_cmd(which):
    """Reproduce a known counterexample; exit 0 when it reproduces."""
    if which == "tetrahedron":
        from .geometry import tetrahedron_counterexample, tetrahedron_simplex_report

        report = tetrahedron_counterexample()
        record = report.to_dict()
        record["simplex_report"] = tetrahedron_simplex_report().to_dict()
        # Reproducing the EXPECTED failure is the pass condition.
        reproduced = (not report.simplex_holds) and (not report.reduction_holds)
    else:
        from .multilinear import counterexample_4_4_report

        record = counterexample_4_4_report()
        del record["metric_components"]
        reproduced = record["structurally_zero"] and record["pairwise_distinct"] \
            and record["metric_value"] == 0.0
    record["reproduced"] = reproduced
    return [dump_json(record)], reproduced


@_command("ode")
@click.option("--input", "input_path", required=True,
              help="Problem JSON (matrix catalog entry, initials, grid) or a path.")
@_tol_opt
@_output_opt
@click.option("--format", "fmt", default="jsonl", show_default=True,
              type=click.Choice(["jsonl", "csv"]))
def ode_cmd(input_path, tol, fmt):
    """Integrate a linear ODE problem and verify the contraction estimate."""
    from .io import problem_from_json
    from .ode import verify_estimate

    reports = verify_estimate(problem_from_json(input_path), **_tol(tol))
    if fmt == "csv":
        lines = _csv(("t", "lhs", "rhs", "gap"),
                     [(r.inputs["t"], r.lhs, r.rhs, r.gap) for r in reports])
    else:
        lines = [r.to_json() for r in reports]
    return lines, all(r.passed for r in reports)


@_command("campaign")
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
def campaign_cmd(fmt, **config):
    """Run a seeded randomized verification campaign."""
    result = run_campaign(CampaignConfig(**config))
    if fmt == "csv":
        sides = ("gap", "scale") if result.kind == IDENTITY else ("lhs", "rhs", "gap")
        header = ("trial", *sides)
        lines = _csv(header, [[f[c] for c in header] for f in result.failures])
    elif fmt == "json":
        lines = [dump_json({"failures": result.failures, "summary": result.summary()})]
    else:
        lines = list(result.json_lines())
    return lines, result.passed


if __name__ == "__main__":
    main()
