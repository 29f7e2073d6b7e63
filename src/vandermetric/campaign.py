"""Seeded randomized verification campaigns.

Every campaign is a pure function of its configuration: inputs are drawn
from a generator seeded with the campaign seed, trials are indexed in draw
order, and reports are emitted in trial order, so identical configurations
produce byte-identical output streams.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import batch
from .core import (BOUND, IDENTITY, IDENTITY_RTOL, INEQUALITY, INEQUALITY_RTOL, LINEAR,
                   dump_json, verdict)
from .errors import ArgumentError
from .geometry import (  # the scalar checks: bench/spans.py traces them under this module
    POLYGON_CHECKS,
    CyclicPolygon,  # noqa: F401
    ngon_check,  # noqa: F401
    ptolemy_gap,  # noqa: F401
    quadrilateral_check,  # noqa: F401
    random_sorted_angles,
    simplex_equality_ngon,  # noqa: F401
    triangle_check,  # noqa: F401
)
from .ode import (  # integrate and verify_estimate: bench/spans.py traces them under this module
    ESTIMATE_RTOL,
    MatrixFunction,
    ODEProblem,
    estimate_rows,
    growth_bounds,
    integrate,  # noqa: F401
    integrate_rows,
    step_size_error,
    verify_estimate,  # noqa: F401
)

log = logging.getLogger(__name__)

_MAX_RECORDED_FAILURES = 100

# The tolerance of a campaign whose config gives none: its claim kind's.
_DEFAULT_TOL = {INEQUALITY: INEQUALITY_RTOL, IDENTITY: IDENTITY_RTOL, BOUND: ESTIMATE_RTOL}

@dataclass
class CampaignConfig:
    op: str
    metric: str = "vandermonde"
    seed: int = 0
    trials: int = 1000
    tol: float | None = None
    n: int = 4
    m: int = 3
    k: int | None = None  # extended-inequality power; None = all
    q: int = 1  # extra-argument count for the extended identity
    check: str = "triangle"  # polygon campaign variant

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CampaignResult:
    config: CampaignConfig
    trials: int
    violations: int
    worst: float  # smallest normalized gap of an inequality, largest of an identity or bound
    checked: int  # rows the verdict checked; a campaign that checked none never passes
    kind: str  # the claim kind: an identity's failure records hold gap and scale, not the sides
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.checked > 0

    def summary(self) -> dict:
        return {
            "record": "summary",
            "config": self.config.to_dict(),
            "trials": self.trials,
            "violations": self.violations,
            "worst": self.worst,
            "pass": self.passed,
        }

    def json_lines(self):
        for f in self.failures:
            yield dump_json(f)
        yield dump_json(self.summary())


def run_campaign(config: CampaignConfig) -> CampaignResult:
    _validate(config)
    # Sides that overflow are expected: their rows fail the verdict, silently.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return _RUNNERS[config.op](config)


def _validate(config: CampaignConfig) -> None:
    """Reject a configuration no campaign can run, before drawing any input."""
    if config.op not in _RUNNERS:
        raise ArgumentError(f"unknown campaign op {config.op!r}; known: {sorted(_RUNNERS)}")
    if config.trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {config.trials}")
    if config.tol is not None and not (0.0 <= config.tol < math.inf):
        raise ArgumentError(f"tol must be a finite number >= 0, got {config.tol}")
    if config.n < 2 or config.m < 1:
        raise ArgumentError(f"need n >= 2 and m >= 1, got n={config.n}, m={config.m}")
    if config.op == "simplex" and config.metric not in _SIMPLEX_METRICS:
        raise ArgumentError(f"simplex campaign does not support metric {config.metric!r}")
    if config.op == "extended" and config.k is not None and not (0 <= config.k < config.n):
        raise ArgumentError(f"k must be in [0, {config.n - 1}], got {config.k}")
    if config.op == "polygon":
        if config.check not in POLYGON_CHECKS:
            raise ArgumentError(f"unknown polygon check {config.check!r}; "
                                f"known: {sorted(POLYGON_CHECKS)}")
        if POLYGON_CHECKS[config.check].size is None and config.n < 3:
            raise ArgumentError(f"a polygon needs n >= 3, got {config.n}")
    multilinear = config.op in ("multilinear-oracle", "sum-identity", "w-identity") or (
        config.op == "simplex" and config.metric == "generalized")
    if multilinear and config.m < 2:
        raise ArgumentError(f"multilinear campaigns need m >= 2, got {config.m}")
    if config.op == "w-identity" and not (1 <= config.q <= config.n):
        raise ArgumentError(f"q must be in [1, {config.n}], got {config.q}")


def _rng(config: CampaignConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed))


def _reduce(config, kind, domain, lhs, rhs, extra) -> CampaignResult:
    """Count and record the rows of lhs/rhs whose verdict fails.

    The tolerance is config.tol, or the kind's default when that is None.
    worst is the smallest normalized gap of an inequality and the largest
    of an identity or a bound; with no row to check it is NaN.
    """
    tol = _DEFAULT_TOL[kind] if config.tol is None else config.tol
    v = verdict(kind, domain, lhs, rhs, tol)
    bad = np.flatnonzero(~v.passed)
    scale = np.broadcast_to(v.scale, v.gap.shape)
    failures = []
    for t in bad[:_MAX_RECORDED_FAILURES]:
        if kind == IDENTITY:
            rec = {"gap": float(v.gap[t]), "scale": float(scale[t])}
        else:
            rec = {"lhs": float(lhs[t]), "rhs": float(rhs[t]),
                   "gap": float(rhs[t] - lhs[t])}
        rec.update(record="violation", trial=int(t), seed=config.seed)
        rec.update(extra(int(t)))
        failures.append(rec)
    normalized = v.normalized
    if not len(normalized):
        worst = math.nan
    elif kind == INEQUALITY:
        worst = float(np.min(normalized))
    else:
        worst = float(np.max(normalized))
    return CampaignResult(
        config=config,
        trials=len(normalized),
        violations=int(len(bad)),
        worst=worst,
        checked=len(normalized),
        kind=kind,
        failures=failures,
    )


def _complex_sample(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _jsonable_complex(z):
    return [[v.real, v.imag] for v in z]


# ---------------------------------------------------------------------------
# Campaigns


def _simplex_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n, m = config.trials, config.n, config.m
    if config.metric in ("vandermonde", "root"):
        z = _complex_sample(rng, (b, n))
        y = _complex_sample(rng, (b,))
        lhs, rhs = batch.simplex_sides_complex(z, y, root=config.metric == "root")
        extra = lambda t: {"points": _jsonable_complex(z[t]), "y": [y[t].real, y[t].imag]}
    elif config.metric == "euclidean3":
        x = rng.standard_normal((b, 3, m))
        y = rng.standard_normal((b, m))
        lhs, rhs = batch.simplex_sides_vectors(x, y)
        extra = lambda t: {"points": x[t].tolist(), "y": y[t].tolist()}
    else:  # "generalized"
        x = rng.standard_normal((b, n, m))
        y = rng.standard_normal((b, m))
        lhs, rhs = batch.simplex_sides_generalized(x, y)
        extra = lambda t: {"points": x[t].tolist(), "y": y[t].tolist()}
    return _reduce(config, INEQUALITY, LINEAR, lhs, rhs, extra)


def _extended_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n = config.trials, config.n
    z = _complex_sample(rng, (b, n))
    y = _complex_sample(rng, (b,))
    ks = list(range(n)) if config.k is None else [config.k]
    lhs, rhs = batch.extended_sides_complex(z, y, ks)

    def extra(t):
        k = ks[t // b]
        row = t % b
        return {"k": k, "points": _jsonable_complex(z[row]), "y": [y[row].real, y[row].imag]}

    return _reduce(config, INEQUALITY, LINEAR, lhs.ravel(), rhs.ravel(), extra)


def _equality_family_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b = config.trials
    log_lo, log_hi = np.log(0.01), np.log(100.0)
    q = np.exp(rng.uniform(log_lo, log_hi, size=b))
    s = np.exp(rng.uniform(log_lo, log_hi, size=b))
    z = np.empty((b, 3), dtype=complex)
    z[:, 0] = 1.0
    z[:, 1] = (-1.0 + 1j * np.sqrt(q * (1.0 + s))) / s
    z[:, 2] = (-1.0 - 1j * np.sqrt((1.0 + s) / q)) / s
    lhs, rhs = batch.simplex_sides_complex(z, np.zeros(b, dtype=complex))
    extra = lambda t: {"q": float(q[t]), "s": float(s[t])}
    return _reduce(config, IDENTITY, LINEAR, lhs, rhs, extra)


def _polygon_campaign(config: CampaignConfig) -> CampaignResult:
    """One row of the check's kernel per random polygon."""
    size, kernel, kind, _ = POLYGON_CHECKS[config.check]
    n = size or config.n
    rng = _rng(config)
    b = config.trials
    angles = random_sorted_angles(rng, b, n)
    radii = rng.uniform(0.5, 3.0, size=b)
    sides = kernel(angles, radii)
    if log.isEnabledFor(logging.DEBUG) and sides.log_rows is not None and sides.log_rows.any():
        log.debug("polygon %s: trials evaluated in the log domain: %s", config.check,
                  np.flatnonzero(sides.log_rows).tolist())
    extra = lambda t: {"R": float(radii[t]), "angles": angles[t].tolist()}
    return _reduce(config, kind, sides.domain, sides.lhs, sides.rhs, extra)


def _int_sample(rng, shape, bound):
    return rng.integers(-bound, bound + 1, size=shape)


def _multilinear_oracle_campaign(config: CampaignConfig) -> CampaignResult:
    """Permutation expansion against the product-difference form."""
    rng = _rng(config)
    b, n, m = config.trials, config.n, config.m
    points = rng.uniform(-1.0, 1.0, size=(b, n, m))
    lhs, rhs = _oracle_sides(points)
    extra = lambda t: {"points": points[t].tolist()}
    return _reduce(config, IDENTITY, LINEAR, lhs, rhs, extra)


def multilinear_oracle_exact(seed: int, trials: int, n: int, m: int, bound: int = 3) -> int:
    """Exact-integer run of the expansion/product oracle; returns the max gap.

    The bound keeps every intermediate int64 product well inside the
    representable range (worst case (bound * n * sqrt(2))^(n(n-1)/2) summed
    over n! permutations).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = _int_sample(rng, (trials, n, m), bound).astype(np.int64)
    lhs, rhs = _oracle_sides(points)
    return int(np.max(np.abs(lhs - rhs)))


def _oracle_sides(points):
    """Permutation expansion and product-difference form of each row, as [re | im] stacks."""
    return (np.concatenate(batch.expansion_batch(points), axis=1),
            np.concatenate(batch.pdf_batch(points), axis=1))


def _sum_identity_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n, m = config.trials, config.n, config.m
    points = rng.uniform(-1.0, 1.0, size=(b, n, m))
    y = rng.uniform(-1.0, 1.0, size=(b, m))
    lhs, rhs = batch.sum_identity_sides(points, y)
    extra = lambda t: {"points": points[t].tolist(), "y": y[t].tolist()}
    return _reduce(config, IDENTITY, LINEAR, lhs, rhs, extra)


def _w_identity_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n, m, q = config.trials, config.n, config.m, config.q
    points = rng.uniform(-1.0, 1.0, size=(b, n, m))
    y = rng.uniform(-1.0, 1.0, size=(b, m))
    lhs, rhs = batch.w_identity_sides(points, y, q)
    extra = lambda t: {"points": points[t].tolist(), "y": y[t].tolist(), "q": q}
    return _reduce(config, IDENTITY, LINEAR, lhs, rhs, extra)


def random_ode_problem(rng: np.random.Generator, m: int, t_end: float = 2.0,
                       steps: int = 100) -> ODEProblem:
    a0 = rng.uniform(-1.0, 1.0, size=(m, m))
    a1 = rng.uniform(-1.0, 1.0, size=(m, m))
    initials = rng.uniform(-1.0, 1.0, size=(3, m))
    grid = np.linspace(0.0, t_end, steps + 1)
    return ODEProblem(matrix=MatrixFunction.linear(a0, a1), initials=initials, grid=grid)


# Grid refinements an ode problem gets when step doubling rejects a step.
_MAX_REFINEMENTS = 3


def _ode_estimates(problems: list[ODEProblem]) -> list:
    """(problem integrated, lhs, rhs, near-collision mask) of each problem's estimate.

    The problems are linear and start on one grid.  Each round integrates
    the pending problems of one dimension m and one grid together, and a
    row that step doubling rejects goes to the next round on the grid its
    error estimate suggests.  Rows still rejected after _MAX_REFINEMENTS
    refinements raise the StepSizeError of the first in (m, trial) order.
    """
    problems = list(problems)
    out = [None] * len(problems)
    pending = sorted(range(len(problems)), key=lambda t: problems[t].matrix.dim)
    for refinement in range(_MAX_REFINEMENTS + 1):
        groups, rejections = {}, {}
        for t in pending:
            groups.setdefault((problems[t].matrix.dim, len(problems[t].grid)), []).append(t)
        for members in groups.values():
            group = [problems[t] for t in members]
            matrix = MatrixFunction.linear(np.stack([p.matrix.a0 for p in group]),
                                           np.stack([p.matrix.a1 for p in group]))
            grid = group[0].grid
            trajectories, rejected, errors = integrate_rows(
                matrix, np.stack([p.initials for p in group]), grid)
            accepted = np.flatnonzero(rejected < 0)
            alphas = growth_bounds(np.stack([matrix(t) for t in grid], axis=1)[accepted])
            sides = estimate_rows(trajectories[accepted], alphas, grid)
            for row, b in enumerate(accepted):
                out[members[b]] = (group[b], sides.lhs[row], sides.rhs[row],
                                  sides.near_collision[row])
            for b in np.flatnonzero(rejected >= 0):
                rejections[members[b]] = step_size_error(int(rejected[b]), float(errors[b]),
                                                         len(grid) - 1)
        pending = [t for t in pending if t in rejections]
        if not pending:
            return out
        if refinement == _MAX_REFINEMENTS:
            raise rejections[pending[0]]
        for t in pending:
            steps = rejections[t].suggested_steps
            log.debug("ode trial %d: %s; integrating again on %d steps", t, rejections[t], steps)
            grid = problems[t].grid
            problems[t] = replace(problems[t], grid=np.linspace(grid[0], grid[-1], steps + 1))


def _ode_campaign(config: CampaignConfig) -> CampaignResult:
    """Contraction-estimate bounds at every grid time, near collisions left out."""
    rng = _rng(config)
    dims = [2, 3, 4]
    problems = [random_ode_problem(rng, dims[t % len(dims)]) for t in range(config.trials)]
    estimates = _ode_estimates(problems)
    lhs, rhs, trials, times = [], [], [], []
    for t, (problem, t_lhs, t_rhs, near) in enumerate(estimates):
        if near.any():
            log.debug("ode trial %d: %d grid times near a collision left out", t, near.sum())
        keep = ~near
        lhs.append(t_lhs[keep])
        rhs.append(t_rhs[keep])
        trials.append(np.full(keep.sum(), t))
        times.append(problem.grid[keep])
    trials, times = np.concatenate(trials), np.concatenate(times)

    def extra(row):
        t = int(trials[row])
        return {"trial": t, "t": times[row], "problem": estimates[t][0].to_dict()}

    result = _reduce(config, BOUND, LINEAR, np.concatenate(lhs), np.concatenate(rhs), extra)
    return replace(result, trials=config.trials)


_SIMPLEX_METRICS = ("vandermonde", "root", "euclidean3", "generalized")

_RUNNERS = {
    "simplex": _simplex_campaign,
    "extended": _extended_campaign,
    "equality-family": _equality_family_campaign,
    "polygon": _polygon_campaign,
    "multilinear-oracle": _multilinear_oracle_campaign,
    "sum-identity": _sum_identity_campaign,
    "w-identity": _w_identity_campaign,
    "ode": _ode_campaign,
}

CAMPAIGN_OPS = tuple(_RUNNERS)
