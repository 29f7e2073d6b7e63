"""Row kernels: B rows give the bits of each row alone and the streams of the per-trial loops."""

import functools
import hashlib
import itertools
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vandermetric import (
    CampaignConfig,
    CyclicPolygon,
    MatrixFunction,
    ODEProblem,
    StepSizeError,
    integrate,
    ngon_check,
    ptolemy_gap,
    quadrilateral_check,
    run_campaign,
    simplex_equality_ngon,
    triangle_check,
    vandermonde_metric,
    verify_estimate,
)
from vandermetric.campaign import (
    _ode_estimates,
    _rng,
    multilinear_oracle_exact,
    random_ode_problem,
)
from conftest import DISPATCH_SETS, run_at_lowered_dispatch
from vandermetric import batch, campaign, core, geometry
from vandermetric.batch import expansion_batch
from vandermetric.core import (LINEAR, LOG, _pair_indices, replacement_sides, vandermonde_log_rows,
                               vandermonde_rows)
from vandermetric.geometry import POLYGON_CHECKS, random_sorted_angles
from vandermetric.multilinear import (
    DefinitenessVerdict,
    MultilinearMapSpec,
    _blocks,
    _build_witness,
    definiteness_decide,
    expansion_terms,
    ordered_pairs,
    permutation_expansion,
    permutation_sign,
)
from vandermetric.ode import estimate_rows, growth_bounds, integrate_rows

SRC = Path(__file__).resolve().parents[1] / "src"

log = logging.getLogger(__name__)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [4, 6, 13, 25, 40])
def test_fold_rows_match_each_row_alone(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
    z[0, 1] = z[0, 0]  # a zero factor
    z[1] *= 1e-80  # the partial product drops below 1e-300 by the fourth factor
    values, log_rows = vandermonde_rows(z)
    logs = vandermonde_log_rows(z)
    assert values[0] == 0.0 and not log_rows[0] and logs[0] == -np.inf
    assert log_rows[1]
    assert log_rows[2:].all() == (n > 12)
    for t in range(len(z)):
        alone, alone_log = vandermonde_rows(z[t:t + 1])
        assert bits(alone) == bits(values[t:t + 1]) and alone_log[0] == log_rows[t]
        assert bits(vandermonde_log_rows(z[t:t + 1])) == bits(logs[t:t + 1])
    shuffled = rng.permuted(z, axis=1)
    assert bits(vandermonde_rows(shuffled)[0]) == bits(values)


def test_fold_log_domain_row_keeps_a_finite_value():
    # Sorted by real part the first two factors are 1e-200 and 1e-150, so the
    # partial product leaves the safe range; the whole product is about 1e100.
    row = np.array([[1e200, 0.0, 1e-150, 1e-200]], dtype=complex)
    values, log_rows = vandermonde_rows(row)
    assert log_rows[0]
    assert values[0] == pytest.approx(1e100, rel=1e-12)
    assert vandermonde_metric(list(row[0])) == values[0]


POLYGON_CASES = [("triangle", 3), ("quadrilateral", 4), ("ptolemy", 4), ("ngon", 7),
                 ("ngon", 13), ("ngon", 25), ("simplex-equality", 6),
                 ("simplex-equality", 13), ("simplex-equality", 40)]
SCALAR_CHECKS = {"triangle": triangle_check, "quadrilateral": quadrilateral_check,
                 "ptolemy": ptolemy_gap, "ngon": ngon_check,
                 "simplex-equality": simplex_equality_ngon}


@pytest.mark.parametrize("check,n", POLYGON_CASES)
def test_polygon_kernel_rows_match_each_row_alone(check, n):
    kernel = POLYGON_CHECKS[check][1]
    rng = np.random.default_rng(n)
    angles = random_sorted_angles(rng, 40, n)
    radii = rng.uniform(0.5, 3.0, size=40)
    whole = kernel(angles, radii)
    for t in range(40):
        alone = kernel(angles[t:t + 1], radii[t:t + 1])
        assert bits(alone.lhs) == bits(whole.lhs[t:t + 1])
        assert bits(alone.rhs) == bits(whole.rhs[t:t + 1])
        assert alone.domain == whole.domain
        if whole.log_rows is not None:
            assert alone.log_rows[0] == whole.log_rows[t]
    report = SCALAR_CHECKS[check](CyclicPolygon(R=float(radii[0]), angles=tuple(angles[0])))
    assert bits(np.array([report.lhs, report.rhs])) == bits(whole.lhs[:1]) + bits(whole.rhs[:1])


def test_batched_integration_and_estimate_match_each_row_alone():
    rng = np.random.default_rng(3)
    rows, m = 6, 3
    a0 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
    a1 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
    initials = rng.uniform(-1.0, 1.0, size=(rows, 3, m))
    a0[2] *= 4.0
    grid = np.linspace(0.0, 2.0, 41)
    matrix = MatrixFunction.linear(a0, a1)
    trajectories, rejected, _ = integrate_rows(matrix, initials, grid)
    # On this coarse grid step doubling rejects four rows, at different steps.
    assert rejected.tolist() == [26, 22, 0, -1, -1, 12]
    accepted = np.flatnonzero(rejected < 0)
    alphas = growth_bounds(np.stack([matrix(t) for t in grid], axis=1))[accepted]
    sides = estimate_rows(trajectories[accepted], alphas, grid)
    for r in range(rows):
        problem = ODEProblem(matrix=MatrixFunction.linear(a0[r], a1[r]),
                             initials=initials[r], grid=grid)
        if rejected[r] >= 0:
            with pytest.raises(StepSizeError, match=f"^step {rejected[r]} "):
                integrate(problem)
            continue
        alone = integrate(problem)
        assert bits(alone) == bits(trajectories[r])
        row = int(np.searchsorted(accepted, r))
        reports = verify_estimate(problem, alone)
        assert bits(np.array([rep.lhs for rep in reports])) == bits(sides.lhs[row])
        assert bits(np.array([rep.rhs for rep in reports])) == bits(sides.rhs[row])
        near = [rep.flags["near_collision"] for rep in reports]
        assert near == sides.near_collision[row].tolist()


# The per-problem refinement the ode campaign ran before it refined rejected
# rows through integrate_rows; the reference for the two tests below.
def _integrate_refining(problem: ODEProblem, max_refinements: int = 3):
    """Integrate, refining the grid when step doubling rejects a step.

    Returns the (possibly refined) problem together with its trajectories,
    since the verification has to run on the grid actually integrated.
    """
    for _ in range(max_refinements):
        try:
            return problem, integrate(problem)
        except StepSizeError as exc:
            steps = exc.suggested_steps or 2 * (len(problem.grid) - 1)
            log.debug("ode: %s; integrating again on %d steps", exc, steps)
            grid = np.linspace(problem.grid[0], problem.grid[-1], steps + 1)
            problem = ODEProblem(matrix=problem.matrix, initials=problem.initials,
                                 grid=grid, alpha=problem.alpha)
    return problem, integrate(problem)


def test_refined_ode_rows_equal_the_scalar_refinement():
    config = CampaignConfig(op="ode", seed=1100, trials=30)
    rng = _rng(config)
    problems = [random_ode_problem(rng, (2, 3, 4)[t % 3]) for t in range(config.trials)]
    estimates = _ode_estimates(problems)
    refined = [t for t, (problem, *_) in enumerate(estimates) if len(problem.grid) > 101]
    assert len(refined) == 4  # step doubling rejects these on the 100-step grid
    for t, (problem, lhs, rhs, near) in enumerate(estimates):
        scalar_problem, trajectories = _integrate_refining(problems[t])
        reports = verify_estimate(scalar_problem, trajectories)
        assert bits(problem.grid) == bits(scalar_problem.grid)
        assert bits(lhs) == bits(np.array([rep.lhs for rep in reports]))
        assert bits(rhs) == bits(np.array([rep.rhs for rep in reports]))
        assert near.tolist() == [rep.flags["near_collision"] for rep in reports]


def test_refinement_rounds_equal_the_scalar_refinement(monkeypatch):
    # On a 5-step grid the rows are refined to several grid sizes, some twice.
    rng = np.random.default_rng(7)
    problems = [random_ode_problem(rng, (2, 3, 4)[t % 3], steps=5) for t in range(6)]
    estimates = _ode_estimates(problems)
    for t, (problem, lhs, rhs, near) in enumerate(estimates):
        scalar_problem, trajectories = _integrate_refining(problems[t])
        reports = verify_estimate(scalar_problem, trajectories)
        assert bits(problem.grid) == bits(scalar_problem.grid)
        assert bits(lhs) == bits(np.array([rep.lhs for rep in reports]))
        assert bits(rhs) == bits(np.array([rep.rhs for rep in reports]))
        assert near.tolist() == [rep.flags["near_collision"] for rep in reports]
    # With one refinement, trials 0 (refined to 40 steps) and 3 (to 30 steps)
    # are still rejected at m = 2; the error raised is trial 0's.
    failed = {}
    for t in range(len(problems)):
        try:
            _integrate_refining(problems[t], max_refinements=1)
        except StepSizeError as exc:
            failed[t] = str(exc)
    assert sorted(failed) == [0, 3, 4, 5]
    monkeypatch.setattr("vandermetric.campaign._MAX_REFINEMENTS", 1)
    with pytest.raises(StepSizeError) as exc_info:
        _ode_estimates(problems)
    assert str(exc_info.value) == failed[0]


def test_rows_rejected_after_the_last_refinement_raise(cli, monkeypatch):
    config = CampaignConfig(op="ode", seed=1100, trials=30)
    rng = _rng(config)
    problems = [random_ode_problem(rng, (2, 3, 4)[t % 3]) for t in range(config.trials)]
    failed = []
    for t in sorted(range(config.trials), key=lambda t: (problems[t].matrix.dim, t)):
        try:
            integrate(problems[t])
        except StepSizeError as exc:
            failed.append(str(exc))
    assert len(failed) == 4
    monkeypatch.setattr("vandermetric.campaign._MAX_REFINEMENTS", 0)
    with pytest.raises(StepSizeError) as exc_info:
        run_campaign(config)
    assert str(exc_info.value) == failed[0]
    result = cli(["campaign", "--op", "ode", "--seed", "1100", "--trials", "30"])
    assert result.exit_code == 2
    assert f"error: {failed[0]}" in result.output


def digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


# sha256 of each campaign's JSONL, recorded with the per-trial loops these
# kernels replaced; the ptolemy case runs at tol 0 so that 100 violation
# records pin the gaps of its rows bit for bit.  simplex-equality was
# recorded again when its sides became the lockstep fold of
# core.replacement_sides: its worst moved by 6 ulps.
GOLDEN_CAMPAIGNS = [
    (dict(check="triangle"), "d50e43c5cb6f2da50dce41248974e6d7b4841f61fefc94936dec36df0f9b90b8"),
    (dict(check="quadrilateral"),
     "5b8164374710233dbda6cc3d7f4d99c348edd5cbec2270f3b3271bc687db7073"),
    (dict(check="ptolemy", tol=0.0),
     "ab3129988d89e7d61fb480f84b819d128e87c7bf731aec2ce932048c26f97de9"),
    (dict(check="ngon", n=7), "ea9f599a9c65157a08a41bc465bf0d649f784c9cae3fae9ede6193c7321b7820"),
    (dict(check="simplex-equality", n=6),
     "57632659c7c87786fb450827edecfb360d87f472d8ba237eb4d480351ff6b845"),
]


@pytest.mark.parametrize("kwargs,expected", GOLDEN_CAMPAIGNS)
def test_polygon_campaign_stream_is_unchanged(kwargs, expected):
    result = run_campaign(CampaignConfig(op="polygon", seed=31, trials=400, **kwargs))
    assert digest(result.json_lines()) == expected


def test_ode_campaign_stream_is_unchanged():
    result = run_campaign(CampaignConfig(op="ode", seed=1100, trials=30))
    assert digest(result.json_lines()) == (
        "b10c98219cb607ad416205de546c9d82fd1de6844b91a8a17edd4e15f9488dab")


def test_scalar_reports_are_unchanged():
    """Report JSON of the five polygon checks and of verify_estimate, recorded likewise.

    The simplex-equality reports were recorded again with the lockstep sides
    of core.replacement_sides, which moved them by at most 8 ulps.
    """
    rng = np.random.default_rng(41)
    lines = []
    for check, n in (("triangle", 3), ("quadrilateral", 4), ("ptolemy", 4), ("ngon", 7),
                     ("simplex-equality", 6)):
        for _ in range(50):
            poly = CyclicPolygon.random(n, rng, R=float(rng.uniform(0.5, 3.0)))
            lines.append(SCALAR_CHECKS[check](poly).to_json())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c279b6b86d6edb760887d37ca3c60dc1a5fdcc508257d8fc6b9c51b4570eae54")
    rng = np.random.default_rng(np.random.SeedSequence(1100))
    lines = []
    for t in range(30):
        problem, trajectories = _integrate_refining(random_ode_problem(rng, (2, 3, 4)[t % 3]))
        lines += [r.to_json() for r in verify_estimate(problem, trajectories)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "0e8b20a547bab7c0683ccb306aab46d1583a36e8a8802e1f15539b583c192091")


@pytest.mark.parametrize("args", [
    ["--op", "simplex", "--metric", "generalized", "--n", "60", "--m", "3", "--trials", "5"],
    ["--op", "simplex", "--metric", "generalized", "--n", "40", "--m", "5", "--trials", "5"],
])
def test_overflowing_campaign_leaves_stderr_empty(args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("VANDERMETRIC_LOG", None)
    proc = subprocess.run([sys.executable, "-m", "vandermetric.cli", "campaign", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0  # products past the float range, compared as log sums
    assert proc.stderr == ""
    assert math.isfinite(json.loads(proc.stdout.splitlines()[-1])["worst"])


def coincident_ode_problems(monkeypatch):
    """Make every drawn ODE problem start two trajectories at one point."""
    draw = random_ode_problem

    def coincident(rng, m):
        problem = draw(rng, m)
        problem.initials[1] = problem.initials[0]
        return problem

    monkeypatch.setattr("vandermetric.campaign.random_ode_problem", coincident)


def test_campaigns_log_log_domain_refined_and_skipped_rows(caplog, monkeypatch):
    configs = [CampaignConfig(op="polygon", check="simplex-equality", n=13, seed=3, trials=5),
               CampaignConfig(op="ode", seed=1100, trials=30),
               CampaignConfig(op="simplex", n=13, seed=3, trials=5),
               CampaignConfig(op="simplex", metric="root", n=40, seed=3, trials=7),
               CampaignConfig(op="simplex", metric="generalized", n=13, m=3, seed=3, trials=5),
               CampaignConfig(op="extended", n=13, seed=3, trials=6)]
    quiet = ["\n".join(run_campaign(c).json_lines()) for c in configs]
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        loud = ["\n".join(run_campaign(c).json_lines()) for c in configs]
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records]
    assert "polygon simplex-equality: 5 trials evaluated in the log domain" in messages
    assert [m for m in messages if "Lagrange" in m] == [
        "simplex vandermonde: 5 trials evaluated as Lagrange log sums",
        "simplex root: 7 trials evaluated as Lagrange log sums",
        "simplex generalized: 5 trials evaluated as Lagrange log sums",
        "extended: 6 trials evaluated as Lagrange log sums"]
    refined = [m.split(":")[0] for m in messages if "integrating again on 300 steps" in m]
    assert refined == [f"ode trial {t}"
                       for t in (21, 4, 11, 29)]  # by dimension m = 2, 3, 4, then trial
    assert sum("error estimate" in m and "integrating again on 300 steps" in m
               for m in messages) == 4
    # One integration per round: all 30 problems zero-padded to m = 4, then
    # the four refined rows together on their common 300-step grid.
    assert [m for m in messages if m.startswith("ode round")] == [
        "ode round 0: 30 problems, m 2..4 padded to 4, 100 steps, 4 rejected",
        "ode round 1: 4 problems, m 2..4 padded to 4, 300 steps, 0 rejected"]

    # Coincident initial points keep two trajectories together at every grid time.
    coincident_ode_problems(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        run_campaign(CampaignConfig(op="ode", seed=2, trials=2))
    assert [r.getMessage() for r in caplog.records] == [
        "ode round 0: 2 problems, m 2..3 padded to 3, 100 steps, 0 rejected",
        *[f"ode trial {t}: 101 grid times near a collision left out" for t in range(2)],
        "ode campaign: 0 rows judged, 0 verdict blocks, 0 violations"]


def test_ode_campaign_that_checks_no_row_fails(monkeypatch):
    coincident_ode_problems(monkeypatch)
    result = run_campaign(CampaignConfig(op="ode", seed=1, trials=3))
    assert (result.trials, result.checked, result.violations) == (3, 0, 0)
    assert not result.passed
    summary = list(result.json_lines())[-1]
    assert '"pass": false' in summary and '"worst": "nan"' in summary


# ---------------------------------------------------------------------------
# The oracle kernels against their references


def _signed_64(v):
    """A Python int reduced to the int64 it wraps to."""
    return (v + 2 ** 63) % 2 ** 64 - 2 ** 63


def _scalar_expansion(points):
    """multilinear.permutation_expansion of each row, as (B, P) re and im arrays.

    On int64 rows the scalar expansion is exact in Python ints, each then
    reduced to the int64 it wraps to.
    """
    B, n, m = points.shape
    spec = MultilinearMapSpec(n=n, m=m)
    rows = [permutation_expansion(spec, [tuple(p) for p in row]) for row in points]
    if points.dtype == np.int64:
        rows = [[_signed_64(v) for v in row] for row in rows]
    values = np.array(rows, dtype=points.dtype).reshape(B, -1, 2)
    return values[..., 0], values[..., 1]


def _numpy_expansion(points):
    """The scalar expansion of float rows as one numpy pass over multilinear.expansion_terms.

    Each term is the product of its arguments' complex values per plane;
    the terms are summed with their signs.
    """
    signs, indices = expansion_terms(points.shape[1])
    t1, t2 = _pair_indices(points.shape[2])
    planes = points[:, :, t1] + 1j * points[:, :, t2]
    values = np.array([[signs @ np.prod(row[indices, k], axis=1) for k in range(len(t1))]
                       for row in planes])
    return values.real, values.imag


# The kernel's float gap to the scalar expansion, relative to max(|expansion|, 1).
# Against pdf_batch it measured at most 2.1e-13 at n = 8, m = 4 over 1000 rows.
EXPANSION_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _float_rows(n):
    """(points, re, im): float rows in R^4 and their scalar expansion.

    The scalar expansion takes about half a second per row and plane at
    n = 8, so n >= 7 gets one row, expanded by the numpy pass; below, row 0
    holds two equal points, where the expansion is 0.  The rows in R^m and
    their expansion are the first m coordinates and the planes within them,
    so one reference serves every m.
    """
    points = np.random.default_rng(n).uniform(-1.0, 1.0, size=(3 if n <= 6 else 1, n, 4))
    if len(points) > 1:
        points[0, 1] = points[0, 0]
    return (points, *(_scalar_expansion if n <= 6 else _numpy_expansion)(points))


def test_the_numpy_expansion_is_the_scalar_expansion():
    points, *scalar = _float_rows(6)
    for got, want in zip(_numpy_expansion(points), scalar):
        scale = np.maximum(np.max(np.abs(want), axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(got - want) <= EXPANSION_RTOL * scale)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 9) for m in range(2, 5)])
def test_expansion_batch_is_the_scalar_expansion_in_floats(n, m):
    points, *scalar = _float_rows(n)
    planes = [k for k, pair in enumerate(ordered_pairs(4)) if max(pair) < m]
    for got, want in zip(expansion_batch(points[:, :, :m]), scalar):
        want = want[:, planes]
        assert got.dtype == np.float64 and got.shape == want.shape
        scale = np.maximum(np.max(np.abs(want), axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(got - want) <= EXPANSION_RTOL * scale)


def expansion_loop(points):
    """The expansion as a loop over permutations, one projected fold per permutation."""
    B, n, m = points.shape
    t1, t2 = _pair_indices(m)
    acc_re = np.zeros((B, len(t1)), dtype=points.dtype)
    acc_im = np.zeros((B, len(t1)), dtype=points.dtype)
    for perm in itertools.permutations(range(n)):
        idx = [j for j, power in enumerate(perm) for _ in range(power)]
        args = points[:, idx, :]
        ar, ai = args[:, :, t1], args[:, :, t2]
        re, im = ar[:, 0, :].copy(), ai[:, 0, :].copy()
        for k in range(1, len(idx)):
            a, b = ar[:, k, :], ai[:, k, :]
            re, im = re * a - im * b, re * b + im * a
        if permutation_sign(perm) > 0:
            acc_re += re
            acc_im += im
        else:
            acc_re -= re
            acc_im -= im
    return acc_re, acc_im


EXPANSION_CASES = [(b, n, m) for b in (1, 7) for n in range(2, 7) for m in range(2, 5)]


@pytest.mark.parametrize("b,n,m", EXPANSION_CASES)
def test_expansion_batch_equals_the_permutation_loop(b, n, m):
    # int64 is the ring Z/2^64, so any order of the terms gives the same bits;
    # in floats the two orders agree within EXPANSION_RTOL.
    rng = np.random.default_rng(100 * b + 10 * n + m)
    real = rng.uniform(-1.0, 1.0, size=(b, n, m))
    real[0, 1] = real[0, 0]  # a zero difference
    whole = rng.integers(-3, 4, size=(b, n, m)).astype(np.int64)
    for got, want in zip(expansion_batch(whole), expansion_loop(whole)):
        assert got.dtype == want.dtype == np.int64
        assert bits(got) == bits(want)
    for got, want in zip(expansion_batch(real), expansion_loop(real)):
        assert got.dtype == want.dtype == np.float64
        scale = np.maximum(np.max(np.abs(want), axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(got - want) <= EXPANSION_RTOL * scale)


def _wrapping_inputs(n, m):
    """Rows at bound 3, then rows at bound 2^40, whose products wrap in int64 from n = 3."""
    rng = np.random.default_rng(10 * n + m)
    return np.concatenate([rng.integers(-3, 4, size=(3, n, m)),
                           rng.integers(-2 ** 40, 2 ** 40 + 1, size=(2, n, m))]).astype(np.int64)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(2, 5)])
def test_expansion_batch_is_the_python_int_expansion_in_int64(n, m):
    points = _wrapping_inputs(n, m)
    for got, want in zip(expansion_batch(points), _scalar_expansion(points)):
        assert got.dtype == np.int64
        assert bits(got) == bits(want)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(6, 9) for m in range(2, 5)])
def test_expansion_batch_equals_pdf_batch_in_int64(n, m):
    # At bound 1 a pair difference has modulus at most 2 sqrt(2), so each
    # side stays within (2 sqrt(2))^28 = 2^42 and neither wraps.
    points = np.random.default_rng(10 * n + m).integers(-1, 2, size=(20, n, m))
    for got, want in zip(expansion_batch(points), batch.pdf_batch(points)):
        assert got.dtype == want.dtype == np.int64
        assert bits(got) == bits(want)


def test_expansion_batch_rows_chunked_one_at_a_time_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(64)

    def chunked(n, m):
        """Two full chunks and a partial one of 5 rows, each chunk run from its plan."""
        return 2 * (batch.LAPLACE_CHUNK_ELEMENTS // batch._laplace_elements(n, m)) + 5, n, m

    # One row in R^2 is one element wide, where the sums of 8 terms at n = 8
    # must still be added left to right.
    inputs = (rng.uniform(-1.0, 1.0, size=(40, 6, 4)), rng.uniform(-1.0, 1.0, size=(40, 8, 2)),
              _wrapping_inputs(6, 4), rng.uniform(-1.0, 1.0, size=chunked(6, 4)),
              rng.integers(-2 ** 40, 2 ** 40 + 1, size=chunked(6, 4)),
              rng.uniform(-1.0, 1.0, size=chunked(8, 2)))
    whole = [expansion_batch(points) for points in inputs]
    monkeypatch.setattr(batch, "LAPLACE_CHUNK_ELEMENTS", 1)  # one row per chunk
    for points, want in zip(inputs, whole):
        for got, w in zip(expansion_batch(points), want):
            assert bits(got) == bits(w)


def _ngon_rows(sides):
    """The per-row arrays of an n-gon check: lhs, rhs and its log-domain rows."""
    return sides.lhs, sides.rhs, sides.log_rows


# Each kernel that chunks its rows through core._by_rows, on (B, 6)
# complex points z, (B, 5, 3) vectors x with y (B, 3), or (B, 6) n-gon
# angles with radii r, and the elements of one of its rows: 16 per pair
# factor (core._pair_rows), 4 per projected point of the generalized log
# sums, and the copy, differences, pool and fold buffers of pdf_batch.
CHUNK_SEAM_CASES = {
    "vandermonde_rows": (lambda z, x, y, a, r: core.vandermonde_rows(z), 16 * 15),
    "vandermonde_log_rows": (lambda z, x, y, a, r: (vandermonde_log_rows(z),), 16 * 15),
    "lagrange_log_rows": (lambda z, x, y, a, r: core.lagrange_log_rows(x, y), 16 * 10),
    "pairwise_distances": (lambda z, x, y, a, r: (core.pairwise_distances(x),), 16 * 10),
    "ngon_sides": (lambda z, x, y, a, r: _ngon_rows(geometry.ngon_sides(a, r)), 16 * 15),
    "generalized log sums": (lambda z, x, y, a, r: core._lagrange_sides(x, y, "generalized", (0,)),
                             4 * 3 * 5),
    "pdf_batch": (lambda z, x, y, a, r: batch.pdf_batch(x), (5 + 10) * 3 + (2 * 10 + 6) * 3),
}


@pytest.mark.parametrize("name", sorted(CHUNK_SEAM_CASES))
def test_rows_chunked_three_at_a_time_keep_their_bits(monkeypatch, name):
    # Three rows a chunk: B = 7 leaves a short last chunk, and B = 0 runs one
    # empty chunk, whose outputs keep their shapes with no rows.
    kernel, per_row = CHUNK_SEAM_CASES[name]
    rng = np.random.default_rng(34)

    def inputs(b):
        return (rng.standard_normal((b, 6)) + 1j * rng.standard_normal((b, 6)),
                rng.uniform(-1.0, 1.0, (b, 5, 3)), rng.uniform(-1.0, 1.0, (b, 3)),
                random_sorted_angles(rng, b, 6), rng.uniform(0.5, 2.0, b))

    seven, empty = inputs(7), inputs(0)
    whole = kernel(*seven)
    by_rows, chunks = core._by_rows, []

    def counted(chunk_kernel, step, *arrays):
        sizes = []
        chunks.append(sizes)

        def chunk(*rows):
            sizes.append(len(rows[0]))
            return chunk_kernel(*rows)

        return by_rows(chunk, step, *arrays)

    for module in (core, batch, geometry):
        monkeypatch.setattr(module, "_by_rows", counted)
    # One element short of three rows is two: the kernel counts per_row a row.
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * per_row - 1)
    kernel(*seven)
    assert chunks[0] == [2, 2, 2, 1]
    chunks.clear()
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * per_row)
    got = kernel(*seven)
    assert chunks[0] == [3, 3, 1]
    assert [(g.shape, g.dtype) for g in got] == [(w.shape, w.dtype) for w in whole]
    assert list(map(bits, got)) == list(map(bits, whole))
    # 7 is the batch axis, the only axis of that length.
    shapes = [(tuple(0 if d == 7 else d for d in w.shape), w.dtype) for w in whole]
    assert [(g.shape, g.dtype) for g in kernel(*empty)] == shapes


@pytest.mark.parametrize("aliased", [True, False], ids=["out is a", "separate out"])
@pytest.mark.parametrize("kind", ["normals", "signed zeros", "wrapping int64"])
def test_product_calls_are_the_complex_product_element_by_element(kind, aliased):
    # re = a0 b0 - a1 b1 and im = a0 b1 + a1 b0 in Python arithmetic, with
    # out aliased to a, as the folds and the expansion steps pass it, or a
    # separate out, as the power table gets it, and a separate scratch; the
    # bytes show a flipped zero sign, and int64 products wrap.
    rng = np.random.default_rng(33)
    if kind == "normals":
        a, b = rng.standard_normal((2, 2, 60))
    elif kind == "signed zeros":
        every = itertools.product([-1.0, -0.0, 0.0, 1.0], repeat=4)
        a, b = np.array(list(every)).T.reshape(2, 2, -1)
    else:
        a, b = rng.integers(-2**62, 2**62, (2, 2, 60))
    reduce = _signed_64 if a.dtype == np.int64 else float
    rows = list(zip(*a.tolist(), *b.tolist()))
    want = np.array([[reduce(a0 * b0 - a1 * b1) for a0, a1, b0, b1 in rows],
                     [reduce(a0 * b1 + a1 * b0) for a0, a1, b0, b1 in rows]], a.dtype)
    out = a if aliased else np.empty_like(a)
    for call, arguments in batch._product_calls(a, b, out, np.empty_like(a)):
        call(*arguments)
    assert bits(out) == bits(want)


# sha256 of expansion_batch's re then im bytes for 200 rows in R^3 at each
# n: standard normals, floats in {-1, 0, 1} (most outputs are exact zeros,
# so a sign flipped on a zero shows) and int64 at bound 3.
EXPANSION_PINS = {
    2: ("6cbba5ddd42e8604061c94221e88d04cf88907c4b1e0592a5aef6b1deecdd431",
        "03876103fbc615a554af9ce7a7e90da90874b7281a08cb162d12c021d5a64348",
        "f391af29442be97e0f07740a50cd433a732b7709cad6e201d3c5ff11c419c442"),
    3: ("59a6529476e4b56f1313e5aa56a540a767a7f9e37ccaa34cc4d5eecfe055a0e7",
        "f1af3ee22a2698bedb9c9c0f49f50dc204231c725149db4ae5f2b548b3edd87c",
        "12f8a8335c5f7e634cc00f858de09a7ca241e7b34c3eb7c274691c8d375c3491"),
    4: ("a9918ea638c528a8c02f8fdb4d4db06e3a5fb716d595abf588dce8ee218a98f5",
        "e33a7705c853d3c33fc617172d61cfd6b84b28a7be212282717cc758a2e4ec83",
        "c212a3b0cdd74a185b3a8d0b80775c6d75a0360410a4b88f9bb2fcd787038277"),
    5: ("c4325c9c115bb956357e378d90970043055831690405fc616f1750eadc91e66c",
        "3128f7582b4538d2cfe80b1c66e36fdc888579804589262eddc86db867c71920",
        "2a2a13649f27952a53c09504d37473db5ee585d44b4497b58364b865d4a2505d"),
    6: ("39d50e2bab827933ffa689b9511f621bf70b3afd2b591f77e09b4a3d55828e47",
        "e522aae2fce890c774aaa8e7008c9a6e08e4983aca4e3fe83caf962ec192e74d",
        "c6efe4a235c5d74466000e7e4d4eb2d7b02493d3a070511b7f4988a0bee56a1a"),
    7: ("dd44458eda1f97e5ec2b5f584c5e7d8e3318dcdd4baf42434d3ca7af7534b2ce",
        "61a025f654f476355468c52274acff24e56337792dfa07c5f6e8ae0d50b4b402",
        "976c171a45dd1fb0fea39ad8ce5b7b28a4e30034a66500b7be084892d59296fe"),
    8: ("c6c11d903a5fef83416057751d1e7d39b7a438e01e1b721316d439093e0cb440",
        "0997b00184091c486b047109933e3877f29d6813c472858c31d63254e489f6f0",
        "2be3bc2a3a1537b39918e62468fa3b4439abfec4816a81cd1f9c813aca276462"),
}


@pytest.mark.parametrize("n", sorted(EXPANSION_PINS))
def test_expansion_batch_bits_are_pinned(n):
    rng = np.random.default_rng(700 + n)
    shape = (200, n, 3)
    inputs = (rng.standard_normal(shape), rng.integers(-1, 2, shape).astype(np.float64),
              rng.integers(-3, 4, shape).astype(np.int64))
    got = tuple(hashlib.sha256(b"".join(map(bits, expansion_batch(points)))).hexdigest()
                for points in inputs)
    assert got == EXPANSION_PINS[n]


def _identity_inputs(seed, n, m):
    """200 rows of (points, y) in R^m: standard normals, floats in {-1, 0, 1}, int64 at bound 3."""
    rng = np.random.default_rng(seed)
    shapes = (200, n, m), (200, m)
    return ([rng.standard_normal(s) for s in shapes],
            [rng.integers(-1, 2, s).astype(np.float64) for s in shapes],
            [rng.integers(-3, 4, s).astype(np.int64) for s in shapes])


# sha256 of w_identity_sides' lhs then rhs bytes at each (n, q), over
# m = 2, 3, 4 in turn, for each kind of _identity_inputs: the floats in
# {-1, 0, 1} give exact zeros and coincident coordinates, so a sign flipped
# on a zero shows, and q runs through 1..n, so the fold's tail steps number
# 0 to n - 1 and its product ends in either of its two accumulators.
IDENTITY_PINS = {
    (2, 1): ('30c2b4af2a2d2822da26b7eafcbdfcc6f153cadc817d9bab8a301225f72b9368',
             '131d0b761e88c60f86cd7000c3e03c3edc2d8a7e5785236e8aee0628054205a2',
             '802617ef1c034fb18b39fa7258e4696f8257036405c0f10e6039cb2dae11c601'),
    (2, 2): ('49b6b66fa955b9ed43c95e8ecf99edaa545d9cf6cb7011b1061a371333b36bb3',
             'aa02f43abaef684665bfc98aa28e56ba8648a39a167a4d7d8f66a0fb72e64ee1',
             '8938d2fccb8c331f704bec1660819b29b01db62cc61059c12c31a441fbc08458'),
    (3, 1): ('80f93f56642f23c5eef03abf84c0840e8a697379b7e47109bd6a05fcc9e5dc69',
             'd6e59d1f2de9983296b2ea9b23deb49a654b6bb7a41a714cfaaa04fc8af05487',
             'f5b40d9595a823e6a066b54059acea3e85bdf22762d98b9e06ba56429bf642af'),
    (3, 2): ('770dc88988a05f4a052a40011eaf415d39f9ad6f895742e3191408dd88b8c898',
             '46b3aa18c080f8afd75575d677f44787b0231d265d9c019c4086a15beb52fbc9',
             '5d3a2b7fe409f6c2a7dd83a677cb65a19a65fc7ddac474d7e783205592ed994f'),
    (3, 3): ('91dde6cf97b7974fd4c92c6000a16d46f130fc5021eabf2b48344d90c5268857',
             '730a95673139c24a2cb45c9e2c1979a7c29afbcf822a200d0a11ad934c209466',
             'dd69583c9b9a1059e278bd035c5c393e8da488456873bea0d68501e20fb10571'),
    (4, 1): ('fe0745b2531265900a6acbc12610686dea9eab39db297c9cfc61b0717463a8bd',
             '9f2d3d17b33c6b883ee7df93d831bfec27b13c1e2fd1ebf6e35247d388a41e1e',
             'b98a33234cedd50db69d03ba9a2bb8a3159f0ff828abd85beb49103b4ee456ce'),
    (4, 2): ('015ae30710527fccd8bd92e1dc161133d9202742d83b313e223a2ba02c85a6e4',
             '394c0a9c81ca6d0778f420ae5d9e5f5869501364e8efcce8427a90dec886b31f',
             'd6761ad7f4144008762a0cf69ec5c713cd8240229f68b248ebe9e235ce77a80a'),
    (4, 3): ('ab2e3f5702d0942531a9af3da963bd9592a788fd416648413f14c59f6e732c2a',
             '985a8a72d3a415b7baff3d41683aecb7b9d3ba6788566c3a3436e718646b1aa7',
             '074f7d2ac2ea811a20eb79cb0e1aa83a39bcdf6f6dc62bcd62cb6404bed2fbbc'),
    (4, 4): ('6d5b1a5a06581a7bb0c1f850c5314bf256ae4588c88d98c505bb465cbe7140fb',
             '5a62fc3ee173a704493083195390a1d7f7dbc140a920f57eaa63d3dafe8e2045',
             '03f6bc55c1423eabd93ebbd095bc06c003308dfe4b44fc22e9b64da361cb3608'),
    (5, 1): ('7e4779bb6540f4c35b4c00e055bf5a69ce498d1c275ba8045b500efe2c82ad7a',
             'ba7b7dbf81cf98307ecf94ff27d8d1a21c49cc01c91038ad8a50a342a5f5e386',
             'f0e29e470ec765c8c79c774b26bf8ba2f652ca83bbab72db3d1c407f166d104a'),
    (5, 2): ('dd7a06e79b56a867823edcf72c6b246d8164137e8f2e6d765733a15f6305b9b9',
             '2cef95572f80d52324d079cf1d672f9b46e256f2f981e2ada52064997cfc1527',
             'a22f29c3acc370780c113b8cab2186bb90dce7eea70dccf4774332254b205014'),
    (5, 3): ('9426f3dfc2eab0d6c4af92bb57d4625a9c551aa547b493c6282326afc1b0c8b2',
             '4d3aa07dc1b1fb7d6ec22ae53404e4d0da9b5f3b859cd2e0cfd1aaabb44ddd6a',
             '27143bd050eeefca8c3728e6983adf2594806074b2e4b416bb11fba0d15d9194'),
    (5, 4): ('9013b900b1345a3adcba5b1eb741efceb60c3204c6192baf78f123b8d8bd277c',
             '73ab2b911b6a196f1c54e89fc6d3871221c86c041c2b2da7437d72b8df12d777',
             '65d267a26f839208d0cf5887ab8d4c4772725b6fdd0acaf47c39be52b41bbd49'),
    (5, 5): ('fdffe4eaf1db9437195cd536b0b61c241b413f835f6a288db0b3816174a8fe33',
             '4dc2036046348eb1ee6a5148c74699c17f897783bffc432c80b3b6c0874ec77e',
             '1aed50de5cb76ec3f5ce01b445868f08ca05c1852bba690789e15548846d7fcc'),
    (6, 1): ('ae9db75bdff99290f5c02e53e09d0eb37103408181b4b33ff7dcc83ae2613bfd',
             'f00c0da362f6d24c8f68321273066f0414ac681325c64b9e9c04bddd6e1d5a3d',
             '5802aadfa98265d3ed15d51c2b00105392e41dba26768fb97f842ffe50c75582'),
    (6, 2): ('d173e6abd5638947a9b8fe7f7b14ded3df979310af7ab32367248caef1e411ac',
             '642bba5b4675b1e73b9e10a8211f3206f48bcf3875421f18f7c74c1cb0f2438a',
             '7a175372b07042e3f9e4861ea1d7c176e4b2f920d52f6a0d5858b44e1febbfe6'),
    (6, 3): ('daf73198b0992b587c9f61eaf45d8aa2747c0e66a1d64fd254cae9b46802b110',
             '1efe95ea01930dc952a79380c1fda5dc0984484cbff9d4e5e78e0a30f05381d4',
             'e814e0d9210a61c4e2041d48747d176abb93535615f7a12e782e96fba93b08b0'),
    (6, 4): ('623ba2e2b7f4ce1e034ea46e2b1fc3fb92986db99246b658558404942f58010c',
             '3d1d46f003f4b0599a2e317f1e9a9672bbc7a164038d684abb1946e5d39ad2da',
             '9f387fe89849e6be12acac61ded085b3398194db3d2b0f4fcd73018b3f32f101'),
    (6, 5): ('304ee32c9c0db01d60270068f18ec186bea66753e3a6ae9ba238b35475548a23',
             'edc2df11379b0e7107af1f0c21b94dabeff5576eee399b6345ea33bec5ca2172',
             '4ac3b6f193ca6efc322ff14f0bd8110103d59d8ea6cab0d53fc66f5a441cb0ee'),
    (6, 6): ('a1af132bfbfd584772894b23bafb35ef3c9ee995f9a0557c10abab6f74d3199d',
             '58ff487074fd31fa2f39ec17ea10bdb6af107b7fa1992ba7a90a2ac47f8b2065',
             'b22b56d44b8a34d271fbfa24a7390fe4ac16a964011591db77b2d85f5ee2e2e2'),
}

# sha256 of sum_identity_sides' lhs then rhs bytes at (n, m), per kind.
SUM_IDENTITY_PINS = {
    (4, 3): ('491c9d76b8f3e9b05e613a4c79bd740a9c27b5442bb777915dacae29719459b3',
             'e8dfc4d09472476c7d4480f24523ab38236cff0e8e6acf150d7ca0c48e3bf09c',
             '44d00918f87f897c707617a59b2feaa72172826e0c1dacc64f9d901b42575f11'),
    (6, 4): ('8b1cb1936a4a3ad6a7da09506f35f0f4270a2472f08c38299b5bd5467fefffac',
             '5b4d3a9c31587f23c0dcc31f4c927ae42f4bc59597c8e7ac7a9cd333c2d59b73',
             'f9fbbb167a7438c8d95d135855c8f543d0f5ba1d5928e1fac4a48e1c54f0d6df'),
}


@pytest.mark.parametrize("n,q", sorted(IDENTITY_PINS))
def test_w_identity_sides_bits_are_pinned(n, q):
    got = []
    for kind in range(3):
        digest = hashlib.sha256()
        for m in (2, 3, 4):
            for side in batch.w_identity_sides(*_identity_inputs(800 + 10 * n + m, n, m)[kind], q):
                digest.update(bits(side))
        got.append(digest.hexdigest())
    assert tuple(got) == IDENTITY_PINS[n, q]


@pytest.mark.parametrize("n,m", sorted(SUM_IDENTITY_PINS))
def test_sum_identity_sides_bits_are_pinned(n, m):
    got = tuple(hashlib.sha256(b"".join(map(bits, batch.sum_identity_sides(*inputs)))).hexdigest()
                for inputs in _identity_inputs(900 + n, n, m))
    assert got == SUM_IDENTITY_PINS[n, m]


# sha256 of pdf_batch's re then im bytes at each n, over m = 2, 3, 4 in turn,
# for each kind of _identity_inputs' points; at n = 1 every row is the empty
# product 1 + 0i.
PDF_PINS = {
    1: ("58d389293658d2aa0f6bc3cc45e32db767cfdf5292475efc3cf1d165088a57d0",
        "58d389293658d2aa0f6bc3cc45e32db767cfdf5292475efc3cf1d165088a57d0",
        "1a309eae2e631784090db904dc7def53f52596f11716ab8b1bc4a681879d8d2c"),
    2: ("82b744d175eb1b334bc72f06f674c208e18402d1b9899552ae49b5440d0b84eb",
        "12dd8a8ab4860e7cffc849f54ef7551e3311b6f1333ccdfb2ddde733b23f6e2b",
        "6243805dfab4b4d0993107f8f3e9e74bfa19375f3e18d8c513e8c9b80428603d"),
    3: ("fe4f8196140a197a69237c3c2153bbc44187792f6d7c74d4091100c411bba05b",
        "ea3d0009cbb1177b0fdb8ffcd2a7729a02964fc89b47c06a01eec29f56a44ed9",
        "3f8d392f0505d06ae825d85f3d90413797cda4a64b1023faeb7f0701758ed2bd"),
    4: ("66ab227fd7cb957e3cf27a79b8088705a602ca083906e8cddd7af46ef392aa57",
        "943b5796dd66c3c24190b3a16d201a32b441918cf973fac7b1e49516a411dc44",
        "64f2f7b97ad55c1a1242b3c702b26b0f4d4111cfe17b1ddc19b44e2b14d5b668"),
    5: ("537c9bf6b24a98e70b3840e8ec3177d27f49b9aee85e15c3cbdc32dcd7cfbd84",
        "77203699aab444cf3a98293b07c0910379c58e380660a289c8c79130cde05fde",
        "e2f5762810274b2e9093d187e26722edc2f855a3a34c8cfa182eafcf929a0fa6"),
    6: ("8d619a038d53f0a1e2020995c26a45cc566cf8ec2286621614cb9a99f2e3ff5f",
        "8771bdd03f0e16b2da767447a1ac73242ae66c6f7b06a05d759b9796b418de87",
        "8413bf3616ce3c7d7ce9cf557c5786023a89d6b457e3af1c1c92455c6537512e"),
    7: ("b49a327f48a609044a6df12f4aabc4bcfd41b65ae36677f5010328c6efd78b32",
        "356c63f7bac6321d5dd20b1f546d9f694f907d5f544af6f6f4ad5469b24668a6",
        "500dc084cdb4078a72e1bd8c824d20f3f0486bee6fd27e18cb8cc9ee5dce631c"),
    8: ("1c99782fbe73571fa29057a340bb3c7c574b3e33733cdb07824bf0a7b07531b3",
        "9266625e1ce53093a694a48fb6d6b0fb2a6c6d32484e020300ce4e95a5bb645f",
        "7012a425ca429a3775d5847f7e6e84e3755bacd979623521f6464caaab80a237"),
}


@pytest.mark.parametrize("n", sorted(PDF_PINS))
def test_pdf_batch_bits_are_pinned(n):
    got = []
    for kind in range(3):
        digest = hashlib.sha256()
        for m in (2, 3, 4):
            points, _ = _identity_inputs(600 + 10 * n + m, n, m)[kind]
            digest.update(b"".join(map(bits, batch.pdf_batch(points))))
        got.append(digest.hexdigest())
    assert tuple(got) == PDF_PINS[n]


def test_exact_oracle_logs_its_kernel_and_keeps_the_gap(caplog, monkeypatch):
    quiet = multilinear_oracle_exact(seed=906, trials=300, n=6, m=4)
    monkeypatch.setenv("VANDERMETRIC_LOG", "DEBUG")
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        loud = multilinear_oracle_exact(seed=906, trials=300, n=6, m=4)
    assert loud == quiet == 0
    assert [r.getMessage() for r in caplog.records] == [
        "expansion_batch n=6: 192 terms per row and plane by subset recursion, "
        "300 rows in 5 chunks of 63"]


@pytest.mark.parametrize("plant,gap", [(-2 ** 63, 2 ** 63), (1, 1), (-1, 1)])
def test_exact_oracle_reads_a_planted_gap_as_its_distance_in_the_ring(monkeypatch, plant, gap):
    # -2^63 is 2^63 in Z/2^64, and numpy's abs of it is -2^63, a negative gap.
    pdf_batch = batch.pdf_batch

    def planted(points):
        re, im = pdf_batch(points)
        re[:1, :1] += np.int64(plant)
        return re, im

    monkeypatch.setattr(batch, "pdf_batch", planted)
    assert multilinear_oracle_exact(seed=5, trials=20, n=4, m=3) == gap


# to_dict() of the decider, recorded with the per-assignment label pass.
GOLDEN_DECISIONS = [
    ((4, 5, 1_000_000), {
        "n": 4, "m": 5, "verdict": "counterexample", "assignments_tried": 46881,
        "witness_matrix": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [1, 1, 1, 0, 0]],
        "assignment": [{"tau": t, "kills": k} for t, k in [
            ([1, 2], [1, 2]), ([1, 3], [1, 2]), ([1, 4], [1, 2]), ([1, 5], [1, 3]),
            ([2, 3], [1, 2]), ([2, 4], [1, 2]), ([2, 5], [1, 3]), ([3, 4], [1, 2]),
            ([3, 5], [1, 3]), ([4, 5], [1, 4])]]}),
    ((5, 4, 1_000_000), {
        "n": 5, "m": 4, "verdict": "counterexample", "assignments_tried": 1013,
        "witness_matrix": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 0, 0],
                           [2, 2, 2, 2]],
        "assignment": [{"tau": t, "kills": k} for t, k in [
            ([1, 2], [1, 2]), ([1, 3], [1, 2]), ([1, 4], [1, 3]), ([2, 3], [1, 2]),
            ([2, 4], [1, 3]), ([3, 4], [1, 4])]]}),
    ((6, 3, 1_000_000), {
        "n": 6, "m": 3, "verdict": "counterexample", "assignments_tried": 18,
        "witness_matrix": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [2, 2, 2], [3, 3, 3]],
        "assignment": [{"tau": t, "kills": k} for t, k in [
            ([1, 2], [1, 2]), ([1, 3], [1, 3]), ([2, 3], [1, 4])]]}),
    ((4, 6, 100_000), {"n": 4, "m": 6, "verdict": "exhausted", "assignments_tried": 100000}),
]


@pytest.mark.parametrize("args,expected", GOLDEN_DECISIONS)
def test_decider_outputs_are_unchanged(args, expected):
    n, m, budget = args
    assert definiteness_decide(n, m, budget=budget).to_dict() == expected


def test_oracles_log_at_debug_and_keep_their_output(cli, caplog, monkeypatch):
    commands = [["campaign", "--op", "multilinear-oracle", "--n", "5", "--m", "3",
                 "--trials", "50", "--seed", "3"],
                ["definiteness", "--n", "3", "--m", "5"]]
    quiet = [cli(args).stdout for args in commands]
    monkeypatch.setenv("VANDERMETRIC_LOG", "DEBUG")
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        loud = [cli(args).stdout for args in commands]
    assert loud == quiet and '"verdict": "definite"' in quiet[1]
    assert [r.getMessage() for r in caplog.records] == [
        "expansion_batch n=5: 80 terms per row and plane by subset recursion, "
        "50 rows in 1 chunks of 50",
        "multilinear-oracle campaign: 50 rows judged, 1 verdict blocks, 0 violations",
        "definiteness_decide n=3 m=5: definite after 59049 assignments in 3 chunks"]


def test_reduce_logs_its_verdict_blocks_and_keeps_the_streams(cli, caplog, monkeypatch):
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", 1000)
    commands = [["campaign", "--op", "simplex", "--n", "5", "--trials", "2500", "--seed", "4"],
                ["campaign", "--op", "sum-identity", "--n", "4", "--m", "3", "--trials", "500",
                 "--seed", "4"],
                ["campaign", "--op", "ode", "--trials", "12", "--seed", "4"]]
    quiet = [cli(args) for args in commands]
    monkeypatch.setenv("VANDERMETRIC_LOG", "DEBUG")
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        loud = [cli(args) for args in commands]
    assert [r.exit_code for r in quiet + loud] == [0] * 6
    assert [r.stdout for r in loud] == [r.stdout for r in quiet]
    # (500, 6) identity sides take 166 rows a block; the ode campaign judges
    # every grid time of each trial, 101 or 301 on a refined grid.
    assert [r.getMessage() for r in caplog.records if "rows judged" in r.getMessage()] == [
        "simplex campaign: 2500 rows judged, 3 verdict blocks, 0 violations",
        "sum-identity campaign: 500 rows judged, 4 verdict blocks, 0 violations",
        "ode campaign: 1412 rows judged, 2 verdict blocks, 0 violations"]


def decide_loop(n, m, budgets):
    """The per-assignment definiteness loop with its union-find, witness unverified.

    One walk gives the verdict at every budget of budgets, by budget: a
    budget that runs out before the walk ends is exhausted there.
    """
    pending = sorted(set(budgets))
    out = {}
    pairs_n, pairs_m = ordered_pairs(n), ordered_pairs(m)
    taus_by_coord = [[k for k, t in enumerate(pairs_m) if r in t] for r in range(m)]

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tried = 0
    for assignment in itertools.product(range(len(pairs_n)), repeat=len(pairs_m)):
        while pending and tried >= pending[0]:
            out[pending.pop(0)] = DefinitenessVerdict(n=n, m=m, verdict="exhausted",
                                                      assignments_tried=tried)
        if not pending:
            return out
        tried += 1
        labels = []
        for r in range(m):
            parent = list(range(n))
            for k in taus_by_coord[r]:
                a, b = pairs_n[assignment[k]]
                ra, rb = find(parent, a), find(parent, b)
                if ra != rb:
                    parent[ra] = rb
            labels.append([find(parent, i) for i in range(n)])
        if all(any(labels[r][a] != labels[r][b] for r in range(m)) for a, b in pairs_n):
            chosen = tuple((pairs_m[k], pairs_n[assignment[k]]) for k in range(len(pairs_m)))
            found = DefinitenessVerdict(n=n, m=m, verdict="counterexample", assignments_tried=tried,
                                        witness=_build_witness(labels, n, m), assignment=chosen)
            return {**out, **{budget: found for budget in pending}}
    definite = DefinitenessVerdict(n=n, m=m, verdict="definite", assignments_tried=tried)
    return {**out, **{budget: definite for budget in pending}}


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3)])
def test_decider_equals_the_assignment_loop(n, m):
    total = len(ordered_pairs(n)) ** len(ordered_pairs(m))
    budgets = (1, 224, 225, total - 1, total)
    loop = decide_loop(n, m, budgets)
    for budget in budgets:
        got, want = definiteness_decide(n, m, budget=budget), loop[budget]
        assert got == want and got.to_dict() == want.to_dict()


# (first, cap): blocks of one size, then blocks that grow from the first size.
@pytest.mark.parametrize("first,cap", [(12, 12), (40, 40), (300, 300), (12, 300), (40, 1 << 20)])
def test_decider_blocks_of_any_size_give_the_same_verdicts(monkeypatch, first, cap):
    cases = [(3, 4, 10**6), (3, 4, 500), (4, 4, 10**6), (4, 4, 200), (5, 3, 10**6)]
    want = [definiteness_decide(n, m, budget=b) for n, m, b in cases]
    monkeypatch.setattr("vandermetric.multilinear.DECIDE_CHUNK", first)
    monkeypatch.setattr("vandermetric.multilinear.DECIDE_CHUNK_MAX", cap)
    assert [definiteness_decide(n, m, budget=b) for n, m, b in cases] == want


@pytest.mark.parametrize("base,width,limit,size,cap", [
    (3, 10, 3 ** 10, 16384, 262144), (6, 6, 6 ** 6, 13107, 13107), (6, 15, 40000, 100, 3000),
    (10, 6, 777, 9362, 149796), (15, 3, 15 ** 3, 1, 100), (3, 3, 27, 1, 1)])
def test_decider_block_plan_covers_the_assignments_in_order(base, width, limit, size, cap):
    """Each block is its grid of consecutive assignment numbers, from 0 past limit - 1.

    Blocks start aligned, the first holds at most size assignments and
    each later one at most twice the bound before it, up to cap.
    """
    expected, bound = 0, size
    for start, fixed, axes in _blocks(base, width, limit, size, cap):
        assert start == expected < limit
        digits = itertools.product(*([[d] for d in fixed] + [a.tolist() for a in axes]))
        numbers = [sum(d * base ** (width - 1 - k) for k, d in enumerate(ds)) for ds in digits]
        assert numbers == list(range(start, start + len(numbers)))
        assert len(numbers) <= max(1, bound)
        expected, bound = start + len(numbers), min(2 * bound, cap)
    assert expected >= limit and expected - limit < base ** (width - 1)


# sha256 of the multilinear-oracle JSONL at tol 0: 100 violation records pin
# the gaps of their rows.  Recorded again when the expansion became the
# subset recursion, which moved the gaps of most records by a few ulps.
GOLDEN_ORACLES = [
    ((6, 4), "5220d26b950c12ed6b84ce90b891c14e67f206bf97c7f320b2777480cd6cde46"),
    ((5, 3), "f5f60625c971f846074f073b5e496dafa94bf31720794591abc575f38674abc3"),
]


@pytest.mark.parametrize("size,expected", GOLDEN_ORACLES)
def test_multilinear_oracle_stream_is_unchanged(size, expected):
    n, m = size
    config = CampaignConfig(op="multilinear-oracle", seed=10 * n + m, trials=300, tol=0.0,
                            n=n, m=m)
    assert digest(run_campaign(config).json_lines()) == expected


@pytest.mark.parametrize("n,m", [(2, 2), (4, 3), (6, 4)])
def test_pdf_batch_is_the_left_side_of_the_identity(n, m):
    # Both fold x's pair differences in pair order: x is the identity's tuple 0.
    rng = np.random.default_rng(100 + 10 * n + m)
    for points, y in ((rng.uniform(-1.0, 1.0, (9, n, m)), rng.uniform(-1.0, 1.0, (9, m))),
                      (rng.integers(-3, 4, (9, n, m)), rng.integers(-3, 4, (9, m)))):
        lhs, _ = batch.w_identity_sides(points, y, 1)
        pdf = np.concatenate(batch.pdf_batch(points), axis=1)
        assert lhs.dtype == pdf.dtype == points.dtype
        assert bits(lhs) == bits(pdf)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("n,m", [(0, 3), (1, 3), (4, 1)])
def test_expansion_and_pdf_batch_agree_on_one_point_and_on_one_coordinate(n, m, dtype):
    # No point or one point is the empty product 1 + 0i per plane; one
    # coordinate has no plane, so both kernels return (B, 0) sides.
    points = np.random.default_rng(n).integers(-3, 4, (5, n, m)).astype(dtype)
    expansion, pdf = expansion_batch(points), batch.pdf_batch(points)
    want = (np.ones((5, m * (m - 1) // 2), dtype), np.zeros((5, m * (m - 1) // 2), dtype))
    for got in expansion, pdf:
        assert [(side.shape, side.dtype) for side in got] == [(side.shape, dtype) for side in want]
        assert list(map(bits, got)) == list(map(bits, want))


@pytest.mark.parametrize("m", range(2, 10))
def test_vector_distance_pool_is_the_norm_of_the_gathered_differences(m):
    # Below 8 coordinates the pool folds coordinate-major, from 8 on it calls
    # np.linalg.norm: both are the norm of the old gathered pool bit for bit.
    rng = np.random.default_rng(m)
    n = 5
    j, i = _pair_indices(n)
    for x, y in ((rng.standard_normal((257, n, m)), rng.standard_normal((257, m))),
                 (rng.integers(-3, 4, (257, n, m)), rng.integers(-3, 4, (257, m)))):
        xt = np.swapaxes(x, 0, 1)
        want = np.linalg.norm(np.concatenate([xt[i] - xt[j], y[None] - xt]), axis=2)
        got = core._distances(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert bits(got) == bits(want)


def test_w_identity_sides_on_int64_rows_past_the_float_mantissa():
    # Pair differences up to 2^21 make products past 2^53, which wrap in
    # int64 exactly as the reference's; a float pool would round them.  B
    # leaves a short last chunk, and the sides are transposed views of
    # component-major arrays.
    n, m, q = 4, 3, 2
    rng = np.random.default_rng(23)
    b = 2 * core._chunk_rows(batch._projected_elements(n, m)) + 5
    points, y = rng.integers(-2**20, 2**20, (b, n, m)), rng.integers(-2**20, 2**20, (b, m))
    lhs, rhs = batch.w_identity_sides(points, y, q)
    want = replacement_sides_loop(
        points, y, lambda p, tail: np.concatenate(_projected_loop(p, tail, q), axis=1))
    for got, ref in zip((lhs, rhs), want):
        assert got.shape == ref.shape == (b, m * (m - 1)) and got.dtype == ref.dtype == np.int64
        assert got.T.flags.c_contiguous
        assert bits(got) == bits(ref)


# ---------------------------------------------------------------------------
# The shared-factor replacement pass against the copy-per-slot path it replaced


def _dv_loop(z):
    j_idx, i_idx = _pair_indices(z.shape[1])
    return np.prod(np.abs(z[:, i_idx] - z[:, j_idx]), axis=1)


def _pairwise_loop(x):
    j_idx, i_idx = _pair_indices(x.shape[1])
    d = np.linalg.norm(x[:, i_idx, :] - x[:, j_idx, :], axis=2)
    return np.prod(d, axis=1)


def _root_of(metric):
    return lambda points: metric(points) ** (2.0 / (points.shape[1] * (points.shape[1] - 1)))


def replacement_sides_loop(points, y, side):
    """lhs = side(points, y) and rhs = sum_i side(points with slot i -> y, points[:, i])."""
    lhs = side(points, y)
    rhs = np.zeros_like(lhs)
    for i in range(points.shape[1]):
        replaced = points.copy()
        replaced[:, i] = y
        rhs += side(replaced, points[:, i])
    return lhs, rhs


def _projected_loop(points, tail, q):
    j_idx, i_idx = _pair_indices(points.shape[1])
    args = points[:, i_idx, :] - points[:, j_idx, :]
    if q > 1:
        args = np.concatenate([args, np.repeat(tail[:, None, :], q - 1, axis=1)], axis=1)
    t1, t2 = _pair_indices(points.shape[2])
    ar, ai = args[:, :, t1], args[:, :, t2]
    re, im = ar[:, 0, :].copy(), ai[:, 0, :].copy()
    for k in range(1, args.shape[1]):
        a, b = ar[:, k, :], ai[:, k, :]
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _generalized_loop(points):
    """The l2 norm over the coordinate planes (s, t) of _dv_loop of x[s] + i x[t], in order."""
    return np.sqrt(sum(_dv_loop(points[:, :, s] + 1j * points[:, :, t]) ** 2
                       for s, t in zip(*_pair_indices(points.shape[2]))))


def _replacement_inputs(rng, b, n, m, whole):
    """(points, y) with coincident points in row 0 and y equal to a point in row 1."""
    shape = (b, n) if m is None else (b, n, m)
    y_shape = (b,) if m is None else (b, m)
    if whole:
        points, y = rng.integers(-3, 4, size=shape), rng.integers(-3, 4, size=y_shape)
    elif m is None:
        points = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(y_shape) + 1j * rng.standard_normal(y_shape)
    else:
        points, y = rng.uniform(-1.0, 1.0, size=shape), rng.uniform(-1.0, 1.0, size=y_shape)
    points[0, 1] = points[0, 0]
    if b > 1:
        y[1] = points[1, n - 1]
    return points, y


# (kernel call, reference call, n, m, q): q is 0 for the product pass,
# None for the product pass on each coordinate plane (the generalized
# metric), else the projected pass with q - 1 tail factors.
REPLACEMENT_CASES = [
    *[(f"simplex-n{n}-root{root}",
       lambda z, y, root=root: batch.simplex_sides_complex(z, y, root=root),
       lambda z, y, root=root: replacement_sides_loop(
           z, y, lambda p, _: (_root_of(_dv_loop) if root else _dv_loop)(p)),
       n, None, 0)
      for n in [*range(2, 14), 60] for root in (False, True)],
    *[(f"euclidean3-m{m}-root{root}",
       lambda x, y, root=root: batch.simplex_sides_vectors(x, y, root=root),
       lambda x, y, root=root: replacement_sides_loop(
           x, y, lambda p, _: (_root_of(_pairwise_loop) if root else _pairwise_loop)(p)),
       3, m, 0) for m in (2, 3, 4) for root in (False, True)],
    # The one evaluator: core.replacement_sides up to n = 12, on float inputs.
    *[(f"replacement-sides-{metric}-n{n}",
       lambda z, y, metric=metric: _evaluator_sides(z, y, metric),
       lambda z, y, root=metric == "root": replacement_sides_loop(
           *_floats(z, y), lambda p, _: (_root_of(_dv_loop) if root else _dv_loop)(p)),
       n, None, 0)
      for n in range(2, 13) for metric in ("vandermonde", "root")],
    *[(f"replacement-sides-{metric}-n{n}-m{m}",
       lambda x, y, metric=metric: _evaluator_sides(x, y, metric),
       lambda x, y, root=metric.endswith("root"): replacement_sides_loop(
           *_floats(x, y), lambda p, _: (_root_of(_pairwise_loop) if root else _pairwise_loop)(p)),
       n, m, 0)
      for metric, sizes in (("euclidean3", [(3, 2), (3, 3), (3, 4)]),
                            ("pairwise", [(n, 3) for n in range(2, 13)] + [(4, 1), (4, 5)]),
                            ("pairwise_root", [(n, 3) for n in range(2, 13)]))
      for n, m in sizes],
    *[(f"generalized-n{n}-m{m}", batch.simplex_sides_generalized,
       lambda x, y: replacement_sides_loop(x, y, lambda p, _: _generalized_loop(p)),
       n, m, None) for n, m in [*itertools.product((2, 3, 4), repeat=2), (13, 3)]],
    *[(f"replacement-sides-generalized-n{n}-m{m}",
       lambda x, y: _evaluator_sides(x, y, "generalized"),
       lambda x, y: replacement_sides_loop(*_floats(x, y), lambda p, _: _generalized_loop(p)),
       n, m, None) for n, m in [(3, 3), (4, 4), (6, 5), (12, 3)]],
    *[(f"w-identity-n{n}-m{m}-q{q}",
       lambda x, y, q=q: batch.w_identity_sides(x, y, q),
       lambda x, y, q=q: replacement_sides_loop(
           x, y, lambda p, tail: np.concatenate(_projected_loop(p, tail, q), axis=1)),
       n, m, q)
      for n in (2, 3, 4, 5) for m in (2, 3) for q in range(1, n + 1)],
]


def _floats(points, y):
    """The inputs as floats: the one evaluator takes float points, not int64 ones."""
    return points.astype(np.result_type(points, float)), y.astype(np.result_type(y, float))


def _evaluator_sides(points, y, metric, ks=(0,)):
    """core.replacement_sides of the inputs as floats: (lhs, rhs), (len(ks), B) or (B,) each."""
    lhs, rhs, domain = replacement_sides(*_floats(points, y), metric, ks)
    assert domain == LINEAR
    return (lhs, rhs) if len(ks) > 1 else (lhs[0], rhs[0])


def _three_rows_per_chunk(monkeypatch, n, m, q):
    """Chunks of three rows, by the kernel's own per-row count; returns the list of chunk sizes.

    Each call of the fold that a chunk makes (core._product_rows for the
    product pass, core._generalized_rows for the per-plane one,
    batch._projected_rows for the projected one) appends its row count.
    """
    if q is None:
        per_row, module, name = core._plane_elements(n, m), core, "_generalized_rows"
    elif q:
        per_row, module, name = batch._projected_elements(n, m), batch, "_projected_rows"
    else:
        per_row, module, name = core._row_elements(n, m or 0), core, "_product_rows"
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * per_row)
    fold, chunks = getattr(module, name), []

    def counted(x, *args):
        chunks.append(len(x))
        return fold(x, *args)

    monkeypatch.setattr(module, name, counted)
    return chunks


@pytest.mark.parametrize("name,kernel,reference,n,m,q", REPLACEMENT_CASES,
                         ids=[case[0] for case in REPLACEMENT_CASES])
def test_replacement_sides_equal_the_copy_per_slot_path(monkeypatch, name, kernel, reference,
                                                        n, m, q):
    # Three rows per chunk: B = 7 leaves a short last chunk.
    chunks = _three_rows_per_chunk(monkeypatch, n, m, q)
    rng = np.random.default_rng(n * 10 + (m or 0))
    for b in (1, 7):
        for whole in (False, True):
            points, y = _replacement_inputs(rng, b, n, m, whole)
            chunks.clear()
            with np.errstate(over="ignore", invalid="ignore"):  # n = 60 overflows
                sides = zip(kernel(points, y), reference(points, y))
            assert chunks == ([1] if b == 1 else [3, 3, 1])
            for got, want in sides:
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", range(2, 7))
def test_extended_sides_equal_the_copy_per_slot_path(monkeypatch, n):
    chunks = _three_rows_per_chunk(monkeypatch, n, None, 0)
    rng = np.random.default_rng(n)
    for b in (1, 7):
        for whole in (False, True):
            z, y = _replacement_inputs(rng, b, n, None, whole)
            # The raw kernel on the inputs as drawn; the one evaluator, for
            # the root metric too, on them as floats.
            for metric, inputs in ((None, (z, y)), ("vandermonde", _floats(z, y)),
                                   ("root", _floats(z, y))):
                chunks.clear()
                if metric is None:
                    lhs, rhs = batch.extended_sides_complex(*inputs, range(n))
                else:
                    lhs, rhs = _evaluator_sides(*inputs, metric, range(n))
                assert chunks == ([1] if b == 1 else [3, 3, 1])
                d = _root_of(_dv_loop) if metric == "root" else _dv_loop
                for k in range(n):
                    want = replacement_sides_loop(*inputs, lambda p, w: np.abs(w) ** k * d(p))
                    for got, ref in zip((lhs[k], rhs[k]), want):
                        assert got.dtype == ref.dtype
                        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# sha256 of each batch campaign's JSONL, recorded with the copy-per-slot
# replacement path; the identity campaigns run at tol 0 so that 100
# violation records pin the gaps of their rows bit for bit.
GOLDEN_BATCH_CAMPAIGNS = [
    (dict(op="simplex", metric="vandermonde", n=6, trials=2000),
     "771330e0770ca0e23d3bfd21e405ed1eaf250e597ef835f9c77e0a8471aae630"),
    (dict(op="simplex", metric="vandermonde", n=12, trials=500),
     "f92ddbceab3627936b03f58c9fb750ab3ff7ec94c96a545f652fd3236bdd7297"),
    (dict(op="simplex", metric="root", n=5, trials=2000),
     "82cbbf1a5b00159c79d3f6b8285cabc253b1f3663efe4fac0ad462d4e9f54bd4"),
    # Re-pinned for the per-plane evaluator: only the summary's worst moved,
    # by 22 ulps (0.07885449086279307 -> 0.07885449086279338).
    (dict(op="simplex", metric="generalized", n=3, m=4, trials=2000),
     "440089f545d2f741eff1ee9b51126bb1453d94213f3b41b69949764cb3612b30"),
    (dict(op="simplex", metric="euclidean3", m=3, trials=2000),
     "f177eb8e4e85e3de0f538ddba1e3e25ceb992a74c15b9df329834d08165a7b3e"),
    (dict(op="simplex", metric="vandermonde", n=60, trials=20),  # Lagrange log sums
     "f5eba12eb1b1f668b4feeb1bc35a036de535518d19c55b7907f12e807045b541"),
    (dict(op="extended", n=4, trials=2000),
     "74557cebc9b7a0e47f51723f543e00d8cc02bbe76e29e52d6cc69422dcf96e2c"),
    (dict(op="sum-identity", n=4, m=3, trials=2000, tol=0.0),
     "3278bcf88619ff7b6aee1dbfa78e8f436bed713aadb0f42b6e2c9ecbf3e58400"),
    (dict(op="w-identity", n=4, m=3, q=1, trials=2000, tol=0.0),
     "351dad9af0fe05299228ffb29b10b3af97edf2f54e5da3da39bef4224a14b48b"),
    (dict(op="w-identity", n=4, m=3, q=2, trials=2000, tol=0.0),
     "410490dcb6c17f4e88a5f0c76c77b6c424d731a3f21b63e2997643c4f509440e"),
    (dict(op="w-identity", n=4, m=3, q=3, trials=2000, tol=0.0),
     "594a2cc39b86348f117f44eb28eb8db8bbf1059259d4b3bf9e70a22e008a9ae8"),
    (dict(op="w-identity", n=4, m=3, q=4, trials=2000, tol=0.0),
     "5764c3ab34263917bb8a2473024f02f2fc48a75f8b31cee4f4a0b714cfb82083"),
    (dict(op="equality-family", trials=2000, tol=0.0),
     "ba7eb4bdb86cc92b3253ceb36e4e0a604065689c649f4bfed0fd8ed001f32a27"),
]


@pytest.mark.parametrize("index", range(len(GOLDEN_BATCH_CAMPAIGNS)))
def test_batch_campaign_stream_is_unchanged(index):
    kwargs, expected = GOLDEN_BATCH_CAMPAIGNS[index]
    result = run_campaign(CampaignConfig(seed=70 + index, **kwargs))
    assert digest(result.json_lines()) == expected


# sha256 of batch campaigns that span three or more row blocks, recorded
# while campaign planned the blocks itself, at tol 0 as the identities
# above.  The escaped ones scale the last row of each (B, n) draw by 1e60,
# so the last of three blocks takes the log escape.
GOLDEN_MULTI_BLOCK_CAMPAIGNS = [
    (dict(op="simplex", metric="vandermonde", n=6, trials=40000),
     "1a14bb92afce35e1a508b8dc4a89a163388105aea14d69f524ef1b65510f1473"),
    (dict(op="simplex", metric="generalized", n=3, m=4, trials=40000),
     "31eac5aebd32fcc13588b0818f9a694751b87178f140438ed33babaa90c6213b"),
    (dict(op="extended", n=4, trials=20000),
     "57be78ab86be5b19860aef4657910b0c1a7e13a4bc6091dbd3a2aeef74950d6c"),
    (dict(op="sum-identity", n=4, m=3, trials=8000),
     "1c030da9f2c4a9cdaec3416285eb0b436331dad16048c4b0360072ea57d1c6df"),
    (dict(op="w-identity", n=4, m=3, q=2, trials=8000),
     "af8d697936ef5067759f49cbfbc3df9da40b9f6865accd14975aba727733a9b1"),
    (dict(op="simplex", metric="vandermonde", n=60, trials=1000),  # Lagrange log sums
     "396c2dbe6ce41c37a4c249428f86c790b919cfdc8920916bf85a235c01a01215"),
]
GOLDEN_ESCAPED_CAMPAIGNS = [
    (dict(op="simplex", metric="vandermonde", n=6, trials=40000),
     "08f180ab4e29269191216f3e486ff16b295edcf19b598e9388ef08233480c3dc"),
    (dict(op="simplex", metric="root", n=6, trials=40000),
     "b1aa256b80b67195dab7c55e9e56a9a577d7bd402b7830437a3783f8d00fde4e"),
]


# Every golden campaign config above, at its test's seed and with its
# kwargs as listed, and the ode stream's.
_GOLDEN_CONFIGS = [
    *[dict(op="polygon", seed=31, trials=400, **kwargs) for kwargs, _ in GOLDEN_CAMPAIGNS],
    dict(op="ode", seed=1100, trials=30),
    *[dict(seed=70 + i, **kwargs) for i, (kwargs, _) in enumerate(GOLDEN_BATCH_CAMPAIGNS)],
    *[dict(seed=90 + i, **kwargs) for i, (kwargs, _) in enumerate(GOLDEN_MULTI_BLOCK_CAMPAIGNS)],
]

# Runs the campaign configs read from stdin: each one's summary.
_DISPATCH_CAMPAIGN_RUNS = """
from vandermetric import CampaignConfig, run_campaign
result = [run_campaign(CampaignConfig(**config)).summary() for config in json.load(sys.stdin)]
"""


@pytest.fixture(scope="module")
def golden_summaries():
    return [run_campaign(CampaignConfig(**config)).summary() for config in _GOLDEN_CONFIGS]


@pytest.mark.parametrize("turned_off", DISPATCH_SETS)
def test_golden_campaign_verdicts_hold_at_lowered_dispatch(golden_summaries, turned_off):
    # The streams above are pinned in bytes on one dispatch target (see
    # test_cli's test_golden_verdicts_hold_without_avx512); their verdicts
    # must hold on each: every pass, and the violations at the default
    # tolerance.
    lowered = run_at_lowered_dispatch(turned_off, _DISPATCH_CAMPAIGN_RUNS, _GOLDEN_CONFIGS)
    for config, native, summary in zip(_GOLDEN_CONFIGS, golden_summaries, lowered, strict=True):
        assert summary["pass"] == native["pass"], config
        if "tol" not in config:
            assert summary["violations"] == native["violations"], config


def _run_in_blocks(monkeypatch, config):
    """run_campaign(config) and the domain of each block it judged."""
    judge, domains = campaign._judge_blocks, []

    def counted(config, kind, name, blocks, extra):
        def blocks_seen():
            for block in blocks:
                domains.append(block[3])
                yield block
        return judge(config, kind, name, blocks_seen(), extra)

    monkeypatch.setattr(campaign, "_judge_blocks", counted)
    return run_campaign(config), domains


@pytest.mark.parametrize("index", range(len(GOLDEN_MULTI_BLOCK_CAMPAIGNS)))
def test_multi_block_campaign_stream_is_unchanged(monkeypatch, index):
    kwargs, expected = GOLDEN_MULTI_BLOCK_CAMPAIGNS[index]
    result, domains = _run_in_blocks(monkeypatch,
                                     CampaignConfig(seed=90 + index, tol=0.0, **kwargs))
    assert len(domains) >= 3 and len(set(domains)) == 1
    assert digest(result.json_lines()) == expected


@pytest.mark.parametrize("index", range(len(GOLDEN_ESCAPED_CAMPAIGNS)))
def test_escaped_campaign_stream_is_unchanged(monkeypatch, index):
    kwargs, expected = GOLDEN_ESCAPED_CAMPAIGNS[index]
    draw = campaign._complex_sample

    def scaled(rng, shape):
        z = draw(rng, shape)
        if len(shape) == 2:
            z[-1] *= 1e60
        return z

    monkeypatch.setattr(campaign, "_complex_sample", scaled)
    result, domains = _run_in_blocks(monkeypatch, CampaignConfig(seed=96, tol=0.0, **kwargs))
    # Two LINEAR blocks, the escaped third, then the rows before it in log chunks.
    assert domains[:3] == [LINEAR, LINEAR, LOG] and set(domains[3:]) == {LOG}
    assert digest(result.json_lines()) == expected
