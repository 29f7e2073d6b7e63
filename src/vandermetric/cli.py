"""Command-line front end: a table of commands, each a body plus its options, parsed by argparse.

Exit codes: 0 all checks passed, 1 a mathematical check failed or the
definiteness search ran out of budget, 2 usage or input error.  Set
VANDERMETRIC_LOG to a logging level name (DEBUG, INFO, ...) for
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

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
# cannot be written; MemoryError, sizes too large for the machine.
_USAGE_ERRORS = (ArgumentError, SingularityError, ResourceError, StepSizeError,
                 OSError, KeyError, json.JSONDecodeError, MemoryError)


# name -> (body, options).  A body takes its options as keywords and returns
# (output lines, passed).
_COMMANDS = {}


def _command(name, *options):
    """Register body as the command name with its options, each (flags, add_argument keywords)."""
    def register(body):
        _COMMANDS[name] = (body, options)
        return body

    return register


def _opt(*flags, **kwargs):
    return flags, kwargs


_HELP = _opt("--help", action="help", help="Show this message and exit.")
_OUTPUT = _opt("--output", help="Write reports to a file instead of stdout.")
# No -h, and no prefix of an option name stands for it: `--tri 5` is an error.
_STRICT = {"allow_abbrev": False, "add_help": False}


def _parser():
    """The parser of every command, plus the --output that each one takes."""
    top = argparse.ArgumentParser(prog="vandermetric", **_STRICT,
                                  description="Vandermonde n-metric verification toolkit.")
    top.add_argument(*_HELP[0], **_HELP[1])
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (body, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=body.__doc__, description=body.__doc__, **_STRICT)
        for flags, kwargs in (*options, _OUTPUT, _HELP):
            if kwargs.get("default") is not None and "action" not in kwargs:
                kwargs = {**kwargs, "help": f"{kwargs.get('help', '')} [default: %(default)s]"}
            sub.add_argument(*flags, **kwargs)
    return top


def _attach_values(argv):
    """argv with each `--option value` of an option that takes a value as `--option=value`.

    argparse reads a token that starts with '-' and is not a plain number as
    an option; attached, `--y -0.5,0.5` and `--tol -inf` reach the command.
    """
    valued = {flag for _, options in _COMMANDS.values() for flags, kwargs in (*options, _OUTPUT)
              if "action" not in kwargs for flag in flags if flag.startswith("--")}
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in valued else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None):
    """Run the command of argv (default sys.argv[1:]).

    Writes its lines to stdout or to --output and exits 0 when they passed,
    1 when not, and 2 on a usage or input error.
    """
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    if "--help" in argv:  # help wins over an invalid value given with it
        argv = [*argv[:1], "--help"]
    args = vars(_parser().parse_args(argv))
    # Each call binds its own handler to the current stderr and level and
    # removes it on return, so no call writes to another call's stderr.
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level = os.environ.get("VANDERMETRIC_LOG", "WARNING").upper()
    root.setLevel(getattr(logging, level, logging.WARNING))
    root.addHandler(handler)
    body, _ = _COMMANDS[args.pop("command")]
    output = args.pop("output")
    try:
        lines, passed = body(**args)
        text = "\n".join(lines) + "\n"
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(EXIT_USAGE)
    finally:
        root.removeHandler(handler)
    sys.exit(EXIT_OK if passed else EXIT_CHECK_FAILED)


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


_INPUT = _opt("--input", dest="input_path", required=True, help="CSV point file.")
# --complex and --vectors set one flag; the last given wins.
_COMPLEX = (_opt("--complex", dest="complex_points", action="store_true", default=True,
                 help="Interpret CSV rows as (re, im) pairs (the default)."),
            _opt("--vectors", dest="complex_points", action="store_false",
                 help="Interpret CSV rows as vectors."))
_METRIC = _opt("--metric", default="vandermonde", choices=sorted(METRICS))
_Y = _opt("--y", dest="y_spec", required=True,
          help="Replacement point, comma-separated coordinates.")
_TOL = _opt("--tol", type=float, help="Relative tolerance.")
_SEED = _opt("--seed", type=int, default=0)


@_command("eval", _INPUT, *_COMPLEX, _METRIC)
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


@_command("simplex", _INPUT, *_COMPLEX, _METRIC, _Y, _TOL)
def simplex_cmd(input_path, complex_points, metric, y_spec, tol):
    """Check the simplex inequality for one tuple and replacement point."""
    from .io import read_points_csv

    t = read_points_csv(input_path, complex_points=complex_points)
    report = simplex_gap(t, _parse_y(y_spec, t.is_complex), metric=metric, **_tol(tol))
    return [report.to_json()], report.passed


@_command("extended", _INPUT, _Y, _opt("--k", type=int, help="Power; default checks all k."),
          _TOL)
def extended_cmd(input_path, y_spec, k, tol):
    """Check the weighted simplex inequality |y|^k d <= sum |z_i|^k d_i."""
    from .io import read_points_csv

    t = read_points_csv(input_path, complex_points=True)
    y = _parse_y(y_spec, complex_point=True)
    ks = range(t.n) if k is None else [k]
    reports = [extended_inequality_gap(t, y, kk, **_tol(tol)) for kk in ks]
    return [r.to_json() for r in reports], all(r.passed for r in reports)


@_command("equality-family", _opt("--q", type=float, default=1.0),
          _opt("--s", type=float, default=2.0), _TOL)
def equality_family_cmd(q, s, tol):
    """Evaluate the two-parameter exact-equality configuration."""
    from .geometry import equality_family, equality_gap_3

    report = equality_gap_3(*equality_family(q, s).quadruple(), **_tol(tol))
    return [dump_json({**report.to_dict(), "q": q, "s": s})], report.flags["equality"]


@_command("polygon",
          _opt("--input", dest="input_path", required=True,
               help='Polygon JSON {"R": ..., "angles": [...], "center": [re, im]} or a path.'),
          _opt("--check", default="all", choices=[*POLYGON_CHECK_NAMES, "all"]), _TOL,
          _opt("--emit-csv", action="store_true", help="Emit CSV rows instead of JSON."))
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


@_command("multilinear-verify", _opt("--n", type=int, default=3), _opt("--m", type=int, default=3),
          _opt("--trials", type=int, default=100), _SEED, _TOL)
def multilinear_verify_cmd(n, m, trials, seed, tol):
    """Alias: the multilinear-oracle, sum-identity and w-identity (q = 1..n) campaigns."""
    ops = [("multilinear-oracle", 1), ("sum-identity", 1)]
    ops += [("w-identity", q) for q in range(1, n + 1)]
    results = [run_campaign(CampaignConfig(op=op, seed=seed, trials=trials, tol=tol, n=n, m=m, q=q))
               for op, q in ops]
    ok = all(r.passed for r in results)
    summary = {"record": "summary", "n": n, "m": m, "trials": trials, "seed": seed, "pass": ok}
    return [line for r in results for line in r.json_lines()] + [dump_json(summary)], ok


@_command("definiteness", _opt("--n", type=int, required=True),
          _opt("--m", type=int, required=True), _opt("--budget", type=int, default=1_000_000))
def definiteness_cmd(n, m, budget):
    """Decide definiteness of the generalized metric for (n, m); exit 1 when undecided."""
    from .multilinear import definiteness_decide

    verdict = definiteness_decide(n, m, budget=budget)
    return [dump_json(verdict.to_dict())], verdict.verdict != "exhausted"


@_command("counterexample", _opt("which", choices=["tetrahedron", "four-four"]))
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


@_command("ode",
          _opt("--input", dest="input_path", required=True,
               help="Problem JSON (matrix catalog entry, initials, grid) or a path."),
          _TOL, _opt("--format", dest="fmt", default="jsonl", choices=["jsonl", "csv"]))
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


@_command("campaign", _opt("--op", required=True, choices=CAMPAIGN_OPS),
          _opt("--metric", default="vandermonde"), _opt("--trials", type=int, default=1000),
          _SEED, _TOL, _opt("--n", type=int, default=4), _opt("--m", type=int, default=3),
          _opt("--k", type=int), _opt("--q", type=int, default=1),
          _opt("--check", default="triangle"),
          _opt("--format", dest="fmt", default="jsonl", choices=["json", "jsonl", "csv"]))
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
