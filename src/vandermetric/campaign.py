"""Seeded randomized verification campaigns.

Every campaign is a pure function of its configuration: inputs are drawn
from a generator seeded with the campaign seed, trials are indexed in draw
order, and reports are emitted in trial order, so identical configurations
produce byte-identical output streams.
"""

from __future__ import annotations

import importlib
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import core
from .core import (BOUND, ESTIMATE_RTOL, IDENTITY, IDENTITY_RTOL, INEQUALITY, INEQUALITY_RTOL,
                   LINEAR, LOG, checked_tol, dump_json, verdict)
from .errors import ArgumentError

if TYPE_CHECKING:
    from .ode import ODEProblem

log = logging.getLogger(__name__)

_MAX_RECORDED_FAILURES = 100

# The tolerance of a campaign whose config gives none: its claim kind's.
_DEFAULT_TOL = {INEQUALITY: INEQUALITY_RTOL, IDENTITY: IDENTITY_RTOL, BOUND: ESTIMATE_RTOL}

# The scalar checks and ODE entry points that bench/spans.py traces under
# this module, by defining module.  Each campaign imports the batch,
# geometry and ode modules only where it runs them, so these resolve on
# first use (__getattr__) and a campaign that runs none of them does not
# load their modules.
_TRACED = {**dict.fromkeys(("CyclicPolygon", "ngon_check", "ptolemy_gap", "quadrilateral_check",
                            "simplex_equality_ngon", "triangle_check"), "geometry"),
           "integrate": "ode", "verify_estimate": "ode"}


def __getattr__(name):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)


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
    if config.seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {config.seed}")
    checked_tol(config.tol)
    if config.n < 2 or config.m < 1:
        raise ArgumentError(f"need n >= 2 and m >= 1, got n={config.n}, m={config.m}")
    for name, (op, default) in _OP_FIELDS.items():
        if config.op != op and getattr(config, name) != default:
            raise ArgumentError(f"{name} is a field of the {op} campaign only, not of "
                                f"{config.op!r}; got {name}={getattr(config, name)!r}")
    if config.op == "simplex" and config.metric not in _SIMPLEX_METRICS:
        raise ArgumentError(f"simplex campaign does not support metric {config.metric!r}")
    if config.k is not None:
        if config.op != "extended":
            raise ArgumentError(f"k is a power of the extended campaign only, "
                                f"not of {config.op!r}")
        if not (0 <= config.k < config.n):
            raise ArgumentError(f"k must be in [0, {config.n - 1}], got {config.k}")
    if config.op == "polygon":
        from .geometry import POLYGON_CHECKS

        if config.check not in POLYGON_CHECKS:
            raise ArgumentError(f"unknown polygon check {config.check!r}; "
                                f"known: {sorted(POLYGON_CHECKS)}")
        if POLYGON_CHECKS[config.check].size is None and config.n < 3:
            raise ArgumentError(f"a polygon needs n >= 3, got {config.n}")
    size = _fixed_size(config)
    if size is not None and config.n not in (size, CampaignConfig.n):
        raise ArgumentError(f"this {config.op} campaign checks {size} points whatever n is; "
                            f"got n={config.n} (leave n out, or give {size})")
    multilinear = config.op in ("multilinear-oracle", "sum-identity", "w-identity") or (
        config.op == "simplex" and config.metric == "generalized")
    if multilinear and config.m < 2:
        raise ArgumentError(f"multilinear campaigns need m >= 2, got {config.m}")
    if config.op == "w-identity" and not (1 <= config.q <= config.n):
        raise ArgumentError(f"q must be in [1, {config.n}], got {config.q}")


def _rng(config: CampaignConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed))


def _judge_blocks(config, kind, name, blocks, extra) -> CampaignResult:
    """The verdict of a campaign's rows, judged block by block as they arrive.

    blocks yields (rows, lhs, rhs, domain), in any order: the sides of the
    rows in the slice rows, each a (K, rows, ...) stack whose row r of stack
    k is trial k B + rows.start + r, B = config.trials
    (core.replacement_blocks, batch.identity_blocks, _whole).  Each block is
    judged before the next is computed, in pieces of at most
    core.VERDICT_BLOCK_ELEMENTS side elements, at config.tol or the kind's
    default.  The reduction adds up the violations, keeps the
    _MAX_RECORDED_FAILURES failures of smallest trial, in trial order, each
    with extra(trial), and takes worst: the smallest normalized gap of an
    inequality, the largest of an identity or a bound, NaN with no row to
    check.  The verdict judges each row on its own, so any blocks in any
    order give the result of one whole-batch call.  A block in a new domain
    restarts the reduction: the blocks from there on cover the batch.  A
    named campaign's LOG verdict is logged at DEBUG.
    """
    b = config.trials
    tol = _DEFAULT_TOL[kind] if config.tol is None else config.tol
    # np.min and np.max propagate NaN, so a NaN in any piece makes worst NaN.
    extreme = np.min if kind == INEQUALITY else np.max
    domain, checked, violations = LINEAR, 0, 0
    failures, extremes = [], []  # failures are (trial, record), by trial

    def judge(lhs, rhs, first):
        """Add the verdict of trials first, first + 1, ... to the reduction."""
        nonlocal checked, violations
        v = verdict(kind, domain, lhs, rhs, tol)
        bad = np.flatnonzero(~v.passed)
        checked += len(lhs)
        violations += len(bad)
        extremes.append(extreme(v.normalized))
        if len(failures) == _MAX_RECORDED_FAILURES:  # only trials before the last kept
            bad = bad[:np.searchsorted(bad, failures[-1][0] - first)]
        scale = np.broadcast_to(v.scale, v.gap.shape)
        for r in bad[:_MAX_RECORDED_FAILURES].tolist():
            t = first + r
            if kind == IDENTITY:
                rec = {"gap": float(v.gap[r]), "scale": float(scale[r])}
            else:
                rec = {"lhs": float(lhs[r]), "rhs": float(rhs[r]), "gap": float(rhs[r] - lhs[r])}
            rec.update(record="violation", trial=t, seed=config.seed)
            rec.update(extra(t))
            failures.append((t, rec))
        failures.sort(key=lambda failure: failure[0])
        del failures[_MAX_RECORDED_FAILURES:]

    for rows, lhs, rhs, block_domain in blocks:
        if block_domain != domain:
            domain, checked, violations = block_domain, 0, 0
            failures.clear()
            extremes.clear()
        step = max(1, core.VERDICT_BLOCK_ELEMENTS // math.prod(lhs.shape[2:]))
        for k in range(len(lhs)):
            for start in range(0, lhs.shape[1], step):
                judge(lhs[k, start:start + step], rhs[k, start:start + step],
                      k * b + rows.start + start)
        del lhs, rhs  # before the next block's sides are computed
    if name and domain == LOG:
        log.debug("%s: %d trials evaluated as Lagrange log sums", name, b)
    log.debug("%s campaign: %d rows judged, %d verdict blocks, %d violations",
              config.op, checked, len(extremes), violations)
    worst = float(extreme(extremes)) if extremes else math.nan
    return CampaignResult(config=config, trials=checked, violations=violations, worst=worst,
                          checked=checked, kind=kind, failures=[rec for _, rec in failures])


def _whole(lhs, rhs, domain):
    """Whole lhs/rhs arrays as _judge_blocks' one block: row t is trial t."""
    return slice(0, len(lhs)), lhs[None], rhs[None], domain


def _complex_sample(rng, shape):
    """Complex standard normals: the first draws are the real parts, the next the imaginary.

    The generator fills only contiguous arrays, so each plane is drawn in
    pieces of core.VERDICT_BLOCK_ELEMENTS through one buffer and copied into
    place.  A normal draw takes the generator's values one at a time, so
    the pieces hold the values of one whole-plane draw, without its
    (B, n) float temporary.
    """
    z = np.empty(shape, dtype=complex)
    values = z.reshape(-1).view(float)  # re, im, re, im, ...
    buffer = np.empty(min(z.size, core.VERDICT_BLOCK_ELEMENTS))
    for plane in (values[0::2], values[1::2]):
        for start in range(0, z.size, len(buffer)):
            piece = buffer[:z.size - start]
            rng.standard_normal(out=piece)
            plane[start:start + len(piece)] = piece
    return z


def _jsonable_complex(z):
    return [[v.real, v.imag] for v in z]


# ---------------------------------------------------------------------------
# Campaigns


def _simplex_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n, m = config.trials, config.n, config.m
    if config.metric in ("vandermonde", "root"):
        points = _complex_sample(rng, (b, n))
        y = _complex_sample(rng, (b,))
        extra = lambda t: {"points": _jsonable_complex(points[t]), "y": [y[t].real, y[t].imag]}
    else:  # "euclidean3" or "generalized"
        points = rng.standard_normal((b, 3 if config.metric == "euclidean3" else n, m))
        y = rng.standard_normal((b, m))
        extra = lambda t: {"points": points[t].tolist(), "y": y[t].tolist()}
    return _judge_blocks(config, INEQUALITY, f"simplex {config.metric}",
                         core.replacement_blocks(points, y, config.metric), extra)


def _extended_campaign(config: CampaignConfig) -> CampaignResult:
    rng = _rng(config)
    b, n = config.trials, config.n
    z = _complex_sample(rng, (b, n))
    y = _complex_sample(rng, (b,))
    ks = list(range(n)) if config.k is None else [config.k]

    def extra(t):
        k = ks[t // b]
        row = t % b
        return {"k": k, "points": _jsonable_complex(z[row]), "y": [y[row].real, y[row].imag]}

    blocks = core.replacement_blocks(z, y, "vandermonde", ks)
    return _judge_blocks(config, INEQUALITY, "extended", blocks, extra)


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
    extra = lambda t: {"q": float(q[t]), "s": float(s[t])}
    # y = 0 for every row, as a read-only view of one zero.
    y = np.broadcast_to(0j, (b,))
    return _judge_blocks(config, IDENTITY, "equality-family",
                         core.replacement_blocks(z, y, "vandermonde"), extra)


def _polygon_campaign(config: CampaignConfig) -> CampaignResult:
    """One row of the check's kernel per random polygon."""
    from .geometry import POLYGON_CHECKS, random_sorted_angles

    size, kernel, kind, _ = POLYGON_CHECKS[config.check]
    n = size or config.n
    rng = _rng(config)
    b = config.trials
    angles = random_sorted_angles(rng, b, n)
    radii = rng.uniform(0.5, 3.0, size=b)
    sides = kernel(angles, radii)
    if sides.domain == LOG:
        logged = b
    else:
        logged = 0 if sides.log_rows is None else np.count_nonzero(sides.log_rows)
    if logged:
        log.debug("polygon %s: %d trials evaluated in the log domain", config.check, logged)
    extra = lambda t: {"R": float(radii[t]), "angles": angles[t].tolist()}
    return _judge_blocks(config, kind, None, [_whole(sides.lhs, sides.rhs, sides.domain)],
                         extra)


def _int_sample(rng, shape, bound):
    return rng.integers(-bound, bound + 1, size=shape)


def _multilinear_oracle_campaign(config: CampaignConfig) -> CampaignResult:
    """Permutation expansion against the product-difference form."""
    from . import batch

    rng = _rng(config)
    b, n, m = config.trials, config.n, config.m
    points = rng.uniform(-1.0, 1.0, size=(b, n, m))
    lhs = np.concatenate(batch.expansion_batch(points), axis=1)
    rhs = np.concatenate(batch.pdf_batch(points), axis=1)
    extra = lambda t: {"points": points[t].tolist()}
    return _judge_blocks(config, IDENTITY, None, [_whole(lhs, rhs, LINEAR)], extra)


def multilinear_oracle_exact(seed: int, trials: int, n: int, m: int, bound: int = 3) -> int:
    """Exact-integer run of the expansion/product oracle; returns the max gap.

    The points are ints in [-bound, bound], bound an int >= 1, and both
    sides are evaluated in int64 by the kernels of the float campaign:
    the expansion by batch.expansion_batch's subset recursion, the
    product-difference form by batch.pdf_batch.  A pair difference on a
    coordinate plane has modulus at most 2 bound sqrt(2), so each side,
    and every partial product of the form, lies within
    (2 bound sqrt(2))^(n(n-1)/2); at bound 3 that passes 2^63 from n = 7
    on.  Past it the check holds modulo 2^64, the ring int64 arithmetic
    computes in: it never fails falsely, but a discrepancy that is a
    multiple of 2^64 goes unseen.  The gap is the largest distance
    between the sides in that ring, at most 2^63.  expansion_batch logs
    its DEBUG line, as for the float campaign.  The other arguments
    follow the multilinear-oracle campaign's rules (ArgumentError);
    n > 8 is a ResourceError.
    """
    from . import batch

    _validate(CampaignConfig(op="multilinear-oracle", seed=seed, trials=trials, n=n, m=m))
    if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)) or bound < 1:
        raise ArgumentError(f"bound must be an int >= 1, got {bound!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = _int_sample(rng, (trials, n, m), bound).astype(np.int64)
    lhs = np.concatenate(batch.expansion_batch(points), axis=1)
    rhs = np.concatenate(batch.pdf_batch(points), axis=1)
    # The distance in Z/2^64: numpy's abs of -2^63 is -2^63.
    gap = (lhs - rhs).view(np.uint64)
    return int(np.max(np.minimum(gap, -gap)))


def _identity_campaign(config: CampaignConfig) -> CampaignResult:
    """The replacement identity (sum-identity) or its extension with q tail factors (w-identity).

    sum-identity is q = 1 (_validate), and its records hold no q.
    """
    from . import batch

    rng = _rng(config)
    b, n, m, q = config.trials, config.n, config.m, config.q
    points = rng.uniform(-1.0, 1.0, size=(b, n, m))
    y = rng.uniform(-1.0, 1.0, size=(b, m))
    tail = {"q": q} if config.op == "w-identity" else {}
    extra = lambda t: {"points": points[t].tolist(), "y": y[t].tolist(), **tail}
    return _judge_blocks(config, IDENTITY, config.op,
                         batch.identity_blocks(points, y, q), extra)


def random_ode_problem(rng: np.random.Generator, m: int, t_end: float = 2.0,
                       steps: int = 100) -> ODEProblem:
    from .ode import MatrixFunction, ODEProblem

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
    the pending problems of one grid in one integrate_rows call, zero-padded
    to the widest m (which keeps every row's bits), then bounds alpha and
    the estimate per m on the unpadded rows.  A row that step doubling
    rejects goes to the next round on the grid its error estimate suggests.
    Rows still rejected after _MAX_REFINEMENTS refinements raise the
    StepSizeError of the first in (m, trial) order.
    """
    from .ode import MatrixFunction, estimate_rows, growth_bounds, integrate_rows, step_size_error

    problems = list(problems)
    out = [None] * len(problems)
    pending = sorted(range(len(problems)), key=lambda t: problems[t].matrix.dim)
    for refinement in range(_MAX_REFINEMENTS + 1):
        groups, rejections = {}, {}
        for t in pending:
            groups.setdefault(problems[t].grid.tobytes(), []).append(t)
        for members in groups.values():
            group = [problems[t] for t in members]
            grid = group[0].grid
            dims = np.array([p.matrix.dim for p in group])
            width = dims.max()
            a0, a1 = np.zeros((2, len(group), width, width))
            initials = np.zeros((len(group), 3, width))
            for b, (p, m) in enumerate(zip(group, dims)):
                a0[b, :m, :m], a1[b, :m, :m] = p.matrix.a0, p.matrix.a1
                initials[b, :, :m] = p.initials
            trajectories, rejected, errors = integrate_rows(MatrixFunction.linear(a0, a1),
                                                            initials, grid)
            log.debug("ode round %d: %d problems, m %d..%d padded to %d, %d steps, %d rejected",
                      refinement, len(group), dims.min(), width, width, len(grid) - 1,
                      (rejected >= 0).sum())
            for m in range(dims.min(), width + 1):
                accepted = np.flatnonzero((dims == m) & (rejected < 0))
                if not len(accepted):
                    continue
                rows = MatrixFunction.linear(a0[accepted, :m, :m], a1[accepted, :m, :m])
                alphas = growth_bounds(np.swapaxes(rows(grid), 0, 1))
                sides = estimate_rows(trajectories[accepted, :, :, :m], alphas, grid)
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

    block = _whole(np.concatenate(lhs), np.concatenate(rhs), LINEAR)
    return replace(_judge_blocks(config, BOUND, None, [block], extra), trials=config.trials)


_SIMPLEX_METRICS = ("vandermonde", "root", "euclidean3", "generalized")

# Fields that one op alone reads, with their defaults.  Every other op takes
# the default only, so no summary names a setting its campaign did not check.
_OP_FIELDS = {"metric": ("simplex", "vandermonde"), "check": ("polygon", "triangle"),
              "q": ("w-identity", 1)}


def _fixed_size(config: CampaignConfig) -> int | None:
    """The number of points the campaign checks whatever n says, or None when n sets it.

    n must then be that number or its default: any other n is a size the
    campaign would echo without checking it.  A non-simplex config has
    the default metric.
    """
    if config.op == "polygon":
        from .geometry import POLYGON_CHECKS

        return POLYGON_CHECKS[config.check].size
    if config.op in ("ode", "equality-family") or config.metric == "euclidean3":
        return 3
    return None


_RUNNERS = {
    "simplex": _simplex_campaign,
    "extended": _extended_campaign,
    "equality-family": _equality_family_campaign,
    "polygon": _polygon_campaign,
    "multilinear-oracle": _multilinear_oracle_campaign,
    "sum-identity": _identity_campaign,
    "w-identity": _identity_campaign,
    "ode": _ode_campaign,
}

CAMPAIGN_OPS = tuple(_RUNNERS)
