"""Acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail line
with its tolerance and runtime, and enforces the runtime budget.  These are
the release gates; the per-module suites cover the finer-grained behaviour.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from vandermetric import (
    CampaignConfig,
    CyclicPolygon,
    MatrixFunction,
    MultilinearMapSpec,
    ODEProblem,
    counterexample_4_4_report,
    definiteness_decide,
    equality_family,
    integrate,
    run_campaign,
    simplex_equality_ngon,
    tetrahedron_counterexample,
    verify_estimate,
)
from vandermetric import batch
from vandermetric.campaign import multilinear_oracle_exact
from vandermetric.multilinear import ordered_pairs, product_difference_form


def report(number, name, ok, elapsed, budget, detail):
    line = (
        f"[ACCEPTANCE {number:02d}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.3f}s / budget {budget:.0f}s; {detail})"
    )
    print(line)
    assert ok and elapsed < budget, line


def best_of(fn, repeats=5):
    """Smallest wall time over a few runs; returns (result, seconds)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_c01_tetrahedron_counterexample():
    rep, elapsed = best_of(tetrahedron_counterexample)
    ok = (
        not rep.simplex_holds
        and not rep.reduction_holds
        and rep.exact_lhs_squared == Fraction(8, 3) ** 6
        and rep.exact_rhs_squared == 16 * Fraction(8, 3) ** 3
        and rep.exact_lhs_squared > rep.exact_rhs_squared
        and not (2**5 <= 3**3)
        and rep.root_holds
        and rep.max_norm_error < 1e-14
        and rep.max_distance_error < 1e-14
    )
    report(1, "tetrahedron counterexample (exact rational)", ok, elapsed, 0.001,
           "lhs=(8/3)^3 > rhs=4(8/3)^1.5, reduction 2^5<=3^3 is false")


def test_c02_four_four_structural_zero():
    rep, elapsed = best_of(counterexample_4_4_report)
    ok = (
        rep["pairwise_distinct"]
        and rep["structurally_zero"]
        and rep["metric_value"] == 0.0
        and all(v == 0 for v in rep["metric_components"])
    )
    report(2, "n=m=4 structural zero with distinct points", ok, elapsed, 0.001,
           "exact integer metric components all zero")


def test_c03_definiteness_decider():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, m, expected in [(3, 3, "definite"), (3, 4, "definite"), (3, 5, "definite"),
                           (4, 4, "counterexample")]:
        verdict = definiteness_decide(n, m)
        ok = ok and verdict.verdict == expected
        if expected == "definite":
            ok = ok and verdict.assignments_tried == len(ordered_pairs(n)) ** len(ordered_pairs(m))
        else:
            spec = MultilinearMapSpec(n=n, m=m)
            values = product_difference_form(spec, verdict.witness)
            ok = ok and all(v == 0 for v in values)
            ok = ok and len(set(verdict.witness)) == n
        details.append(f"({n},{m})={verdict.verdict}@{verdict.assignments_tried}")
    elapsed = time.perf_counter() - t0
    report(3, "definiteness decider", ok, elapsed, 10.0, ", ".join(details))


def test_c04_permutation_expansion_oracle():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n, m in itertools.product(range(2, 7), range(2, 5)):
        config = CampaignConfig(op="multilinear-oracle", seed=400 + 10 * n + m,
                                trials=1000, tol=1e-10, n=n, m=m)
        result = run_campaign(config)
        ok = ok and result.passed
        worst = max(worst, result.worst)
        ok = ok and multilinear_oracle_exact(seed=900 + n, trials=1000, n=n, m=m) == 0
    elapsed = time.perf_counter() - t0
    report(4, "permutation expansion oracle (n=2..6, m=2..4)", ok, elapsed, 60.0,
           f"10^3 tuples each, float gap <= 1e-10 (worst {worst:.2e}), exact int gap = 0")


def test_c05_replacement_identities():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n, m in [(3, 3), (4, 3)]:
        result = run_campaign(CampaignConfig(op="sum-identity", seed=500 + n,
                                             trials=10_000, tol=1e-10, n=n, m=m))
        ok = ok and result.passed
        worst = max(worst, result.worst)
        for q in range(1, n + 1):
            result = run_campaign(CampaignConfig(op="w-identity", seed=510 + 10 * n + q,
                                                 trials=10_000, tol=1e-10, n=n, m=m, q=q))
            ok = ok and result.passed
            worst = max(worst, result.worst)
    elapsed = time.perf_counter() - t0
    report(5, "sum and W replacement identities", ok, elapsed, 60.0,
           f"10^4 instances each at (3,3), (4,3), q=1..n; gap <= 1e-10*scale "
           f"(worst {worst:.2e})")


def test_c06_simplex_campaigns():
    t0 = time.perf_counter()
    ok = True
    runs = 0
    configs = (
        [("vandermonde", n, 1) for n in range(3, 7)]
        + [("euclidean3", 3, m) for m in range(2, 6)]
        + [("generalized", 3, m) for m in range(3, 6)]
        + [("root", n, 1) for n in range(3, 7)]
    )
    for metric, n, m in configs:
        config = CampaignConfig(op="simplex", metric=metric, seed=600 + runs,
                                trials=100_000, tol=1e-9, n=n, m=m)
        result = run_campaign(config)
        ok = ok and result.passed and result.violations == 0
        runs += 1
    elapsed = time.perf_counter() - t0
    report(6, "simplex inequality campaigns", ok, elapsed, 300.0,
           f"{runs} campaigns x 10^5 samples, zero violations at 1e-9*scale")


def test_c07_extended_inequality():
    t0 = time.perf_counter()
    result = run_campaign(CampaignConfig(op="extended", seed=700, trials=10_000,
                                         tol=1e-9, n=4))
    ok = result.passed and result.trials == 40_000
    elapsed = time.perf_counter() - t0
    report(7, "extended inequality (n=4, k=0..3)", ok, elapsed, 60.0,
           "10^4 samples per power, zero violations at 1e-9*scale")


def test_c08_equality_family():
    t0 = time.perf_counter()
    result = run_campaign(CampaignConfig(op="equality-family", seed=800,
                                         trials=1000, tol=1e-10))
    ok = result.passed
    fam = equality_family(1.0, 2.0)
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    ok = ok and abs(fam.z1 - 1) <= 1e-12 and abs(fam.z2 - w) <= 1e-12 \
        and abs(fam.z3 - w.conjugate()) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(8, "equality family", ok, elapsed, 60.0,
           f"10^3 log-uniform (q,s) in [0.01,100]^2, gap <= 1e-10*scale "
           f"(worst {result.worst:.2e}); (q=1,s=2) = third roots of unity @ 1e-12")


def test_c09_polygon_suite():
    t0 = time.perf_counter()
    ok = True
    # regular n-gons achieve simplex equality; 1e-3 perturbations are strict
    for n in range(3, 11):
        rep = simplex_equality_ngon(CyclicPolygon.regular(n, R=1.2), tol=1e-10)
        ok = ok and rep.flags["equality"]
        deltas = [1e-3 * (-1) ** k for k in range(n)]
        pert = simplex_equality_ngon(CyclicPolygon.regular(n, R=1.2).perturbed(deltas),
                                     tol=1e-10)
        ok = ok and pert.passed and not pert.flags["equality"] and pert.gap > 0.0
    # random cyclic polygons pass the triangle / quadrilateral / n-gon bounds
    for check, n in [("triangle", 3), ("quadrilateral", 4), ("ngon", 5),
                     ("ngon", 7), ("simplex-equality", 6)]:
        result = run_campaign(CampaignConfig(op="polygon", seed=901, trials=10_000,
                                             tol=1e-9, n=n, check=check))
        ok = ok and result.passed
    # Ptolemy generator oracle on random cyclic quadrilaterals
    result = run_campaign(CampaignConfig(op="polygon", seed=902, trials=10_000,
                                         tol=1e-10, n=4, check="ptolemy"))
    ok = ok and result.passed
    elapsed = time.perf_counter() - t0
    report(9, "cyclic polygon suite", ok, elapsed, 120.0,
           "regular n=3..10 equality @ 1e-10*scale, 1e-3 perturbations strict, "
           "10^4 random polygons per bound, Ptolemy @ 1e-10*scale")


def test_c10_planar_reduction():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    rng = np.random.default_rng(1000)
    for n in (3, 4):
        x = rng.standard_normal((10_000, n, 2))
        z = x[:, :, 0] + 1j * x[:, :, 1]
        a = batch.generalized_metric_batch(x)
        b = batch.dv_batch(z)
        rel = np.max(np.abs(a - b) / np.maximum(np.maximum(a, b), 1.0))
        worst = max(worst, float(rel))
        ok = ok and rel <= 1e-12
    elapsed = time.perf_counter() - t0
    report(10, "m=2 reduction to the complex metric", ok, elapsed, 60.0,
           f"10^4 triples and quadruples, relative gap <= 1e-12 (worst {worst:.2e})")


def test_c11_ode_estimate():
    t0 = time.perf_counter()
    ok = True
    # closed-form equality case A = -I: lhs = rhs = exp(-3t) * sqrt(2)
    initials = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    problem = ODEProblem(matrix=MatrixFunction.constant(-np.eye(2)),
                         initials=initials, grid=np.linspace(0.0, 1.0, 201))
    for rep in verify_estimate(problem):
        expected = math.exp(-3.0 * rep.inputs["t"]) * math.sqrt(2.0)
        ok = ok and abs(rep.lhs - expected) <= 1e-8 * expected
        ok = ok and abs(rep.rhs - expected) <= 1e-8 * expected
    # random time-varying problems
    result = run_campaign(CampaignConfig(op="ode", seed=1100, trials=1000, tol=1e-6))
    ok = ok and result.passed
    # order-4 convergence of the integrator on a closed-form case
    errs = []
    for steps in (8, 16, 32):
        p = ODEProblem(matrix=MatrixFunction.constant(np.diag([-1.0, -2.0])),
                       initials=initials, grid=np.linspace(0.0, 1.0, steps + 1))
        traj = integrate(p, rel_tol=1.0)
        exact = initials * np.exp(np.array([-1.0, -2.0]))
        errs.append(float(np.max(np.abs(traj[:, -1, :] - exact))))
    factors = [errs[k] / errs[k + 1] for k in range(2)]
    ok = ok and all(f >= 12.0 for f in factors)
    elapsed = time.perf_counter() - t0
    report(11, "ODE contraction estimate", ok, elapsed, 120.0,
           f"A=-I closed form @ 1e-8, 10^3 random problems @ lhs<=rhs(1+1e-6), "
           f"convergence factors {factors[0]:.1f}/{factors[1]:.1f} (>= 12)")


def test_c12_determinism():
    t0 = time.perf_counter()
    ok = True
    cases = [
        CampaignConfig(op="simplex", seed=42, trials=2000),
        CampaignConfig(op="extended", seed=42, trials=500, n=4),
        CampaignConfig(op="equality-family", seed=42, trials=500),
        CampaignConfig(op="polygon", seed=42, trials=500, n=5, check="ngon"),
        CampaignConfig(op="multilinear-oracle", seed=42, trials=200, n=3, m=3),
        CampaignConfig(op="sum-identity", seed=42, trials=500, n=3, m=3),
        CampaignConfig(op="w-identity", seed=42, trials=500, n=3, m=3, q=2),
        CampaignConfig(op="ode", seed=42, trials=10),
    ]
    for config in cases:
        first = "\n".join(run_campaign(config).json_lines()).encode()
        second = "\n".join(run_campaign(config).json_lines()).encode()
        ok = ok and first == second
        ok = ok and json.loads(first.decode().splitlines()[-1])["pass"]
    elapsed = time.perf_counter() - t0
    report(12, "campaign determinism", ok, elapsed, 120.0,
           f"{len(cases)} ops rerun with fixed seeds, byte-identical reports")
