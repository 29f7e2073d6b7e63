"""Row kernels: B rows give the bits of each row alone and the streams of the per-trial loops."""

import hashlib
import logging
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
    _integrate_refining,
    _ode_estimates,
    _random_sorted_angles,
    _rng,
    random_ode_problem,
)
from vandermetric.core import vandermonde_log_rows, vandermonde_rows
from vandermetric.geometry import POLYGON_CHECKS
from vandermetric.ode import estimate_rows, growth_bounds, integrate_rows

SRC = Path(__file__).resolve().parents[1] / "src"


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
    angles = _random_sorted_angles(rng, 40, n)
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


def digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


# sha256 of each campaign's JSONL, recorded with the per-trial loops these
# kernels replaced; the ptolemy case runs at tol 0 so that 100 violation
# records pin the gaps of its rows bit for bit.
GOLDEN_CAMPAIGNS = [
    (dict(check="triangle"), "d50e43c5cb6f2da50dce41248974e6d7b4841f61fefc94936dec36df0f9b90b8"),
    (dict(check="quadrilateral"),
     "5b8164374710233dbda6cc3d7f4d99c348edd5cbec2270f3b3271bc687db7073"),
    (dict(check="ptolemy", tol=0.0),
     "ab3129988d89e7d61fb480f84b819d128e87c7bf731aec2ce932048c26f97de9"),
    (dict(check="ngon", n=7), "ea9f599a9c65157a08a41bc465bf0d649f784c9cae3fae9ede6193c7321b7820"),
    (dict(check="simplex-equality", n=6),
     "ade4401272139831aa151efed33777582f8290d342431c447b3b4f1e7260083a"),
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
    """Report JSON of the five polygon checks and of verify_estimate, recorded likewise."""
    rng = np.random.default_rng(41)
    lines = []
    for check, n in (("triangle", 3), ("quadrilateral", 4), ("ptolemy", 4), ("ngon", 7),
                     ("simplex-equality", 6)):
        for _ in range(50):
            poly = CyclicPolygon.random(n, rng, R=float(rng.uniform(0.5, 3.0)))
            lines.append(SCALAR_CHECKS[check](poly).to_json())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "aac0c38708135f9c24cf6f6b9a8169cba412b0f9217678d49ba9bfcfcd55746d")
    rng = np.random.default_rng(np.random.SeedSequence(1100))
    lines = []
    for t in range(30):
        problem, trajectories = _integrate_refining(random_ode_problem(rng, (2, 3, 4)[t % 3]))
        lines += [r.to_json() for r in verify_estimate(problem, trajectories)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "0e8b20a547bab7c0683ccb306aab46d1583a36e8a8802e1f15539b583c192091")


@pytest.mark.parametrize("args", [
    ["--op", "simplex", "--n", "60", "--trials", "20"],
    ["--op", "polygon", "--check", "simplex-equality", "--n", "40", "--trials", "30"],
])
def test_overflowing_campaign_leaves_stderr_empty(args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("VANDERMETRIC_LOG", None)
    proc = subprocess.run([sys.executable, "-m", "vandermetric.cli", "campaign", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1  # the overflowing rows fail closed
    assert proc.stderr == ""


def test_campaigns_log_log_domain_refined_and_skipped_rows(caplog, monkeypatch):
    polygon = CampaignConfig(op="polygon", check="simplex-equality", n=13, seed=3, trials=5)
    ode = CampaignConfig(op="ode", seed=1100, trials=30)
    quiet = ["\n".join(run_campaign(c).json_lines()) for c in (polygon, ode)]
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        loud = ["\n".join(run_campaign(c).json_lines()) for c in (polygon, ode)]
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records]
    assert "polygon simplex-equality: trials evaluated in the log domain: [0, 1, 2, 3, 4]" \
        in messages
    refined = [m for m in messages if "step doubling rejected a step; integrating it alone" in m]
    assert refined == [f"ode trial {t}: step doubling rejected a step; integrating it alone"
                       for t in (21, 4, 11, 29)]  # by dimension m = 2, 3, 4, then trial
    assert sum("error estimate" in m and "integrating again on 300 steps" in m
               for m in messages) == 4

    # Coincident initial points keep two trajectories together at every grid time.
    draw = random_ode_problem

    def coincident(rng, m):
        problem = draw(rng, m)
        problem.initials[1] = problem.initials[0]
        return problem

    monkeypatch.setattr("vandermetric.campaign.random_ode_problem", coincident)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        run_campaign(CampaignConfig(op="ode", seed=2, trials=2))
    assert [r.getMessage() for r in caplog.records] == [
        f"ode trial {t}: 101 grid times near a collision left out" for t in range(2)]
