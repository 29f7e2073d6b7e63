"""The one pass/fail rule: scalar reports and campaign reducers agree and fail closed."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from vandermetric import CampaignConfig, CyclicPolygon, run_campaign
from vandermetric.cli import main
from vandermetric.campaign import _reduce, _rng
from vandermetric.core import (
    BOUND, IDENTITY, INEQUALITY, LINEAR, LOG, MetricReport, verdict,
)
from vandermetric.geometry import (
    ngon_check, ptolemy_gap, quadrilateral_check, random_sorted_angles, simplex_equality_ngon,
    triangle_check,
)

KINDS = (INEQUALITY, IDENTITY, BOUND)
DOMAINS = (LINEAR, LOG)

sides = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                     1e300, -1e300, 1e-300, -1e-300, 1.7e308, -1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e290, max_value=1e308),
    st.floats(min_value=1e-308, max_value=1e-290),
)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(KINDS), domain=st.sampled_from(DOMAINS), lhs=sides, rhs=sides,
       tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5]))
def test_report_and_campaign_reducer_agree(kind, domain, lhs, rhs, tol):
    report = MetricReport("probe", {}, lhs, rhs, tol, kind=kind, domain=domain)
    with np.errstate(all="ignore"):
        result = _reduce(CampaignConfig(op="simplex", tol=tol), kind, domain,
                         np.array([lhs]), np.array([rhs]), lambda t: {})
        normalized = verdict(kind, domain, lhs, rhs, tol).normalized
    assert report.passed is result.passed
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(normalized)):
        assert not report.passed
    for line in [report.to_json(), *result.json_lines()]:
        strict_json(line)


def strict_json(text):
    """json.loads that refuses the bare NaN / Infinity / -Infinity of non-standard JSON."""
    def refuse(constant):
        raise ValueError(f"bare {constant} in {text!r}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", ["jsonl", "json"])
def test_campaign_output_is_valid_json_with_non_finite_values(fmt):
    result = CliRunner().invoke(main, ["campaign", "--op", "simplex", "--n", "60",
                                       "--trials", "20", "--format", fmt])
    records = [strict_json(line) for line in result.output.strip().splitlines()]
    if fmt == "json":
        records = records[0]["failures"] + [records[0]["summary"]]
    assert records[-1]["worst"] == "nan"
    assert {"inf", "nan"} & {r["gap"] for r in records[:-1]}
    with np.errstate(all="ignore"):
        assert math.isnan(run_campaign(CampaignConfig(op="simplex", n=60, trials=20)).worst)


def test_vector_identity_uses_the_max_norm():
    lhs = np.array([[1.0, 2.0], [0.0, 3.0]])
    rhs = np.array([[1.0, 2.5], [0.0, 3.0]])
    v = verdict(IDENTITY, LINEAR, lhs, rhs, 1e-9)
    assert v.gap.tolist() == [0.5, 0.0]
    assert v.scale.tolist() == [2.5, 3.0]
    assert v.passed.tolist() == [False, True]


POLYGON_CASES = [
    ("triangle", 3, triangle_check, 0.0),
    ("quadrilateral", 4, quadrilateral_check, 0.0),
    ("ptolemy", 4, ptolemy_gap, 0.0),  # exact identity: rounding fails some rows
    ("ngon", 7, ngon_check, None),
    ("ngon", 25, ngon_check, None),  # log domain
    ("simplex-equality", 6, simplex_equality_ngon, None),
    ("simplex-equality", 40, simplex_equality_ngon, None),  # overflow: some rows fail
]


@pytest.mark.parametrize("check,n,checker,tol", POLYGON_CASES)
def test_polygon_campaign_rows_match_reports(check, n, checker, tol):
    config = CampaignConfig(op="polygon", check=check, n=n, tol=tol, trials=60, seed=7)
    with np.errstate(all="ignore"):
        result = run_campaign(config)
    rng = _rng(config)
    angles = random_sorted_angles(rng, config.trials, n)
    radii = rng.uniform(0.5, 3.0, size=config.trials)
    kwargs = {} if tol is None else {"tol": tol}
    failed = {t for t in range(config.trials)
              if not checker(CyclicPolygon(R=float(radii[t]), angles=tuple(angles[t])),
                             **kwargs).passed}
    assert {f["trial"] for f in result.failures} == failed
    assert result.violations == len(failed)
