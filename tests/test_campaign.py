"""Seeded campaign runner: coverage of every op, determinism, serialization."""

import json
import math

import numpy as np
import pytest

from vandermetric import (ArgumentError, CampaignConfig, ResourceError, batch, campaign, core,
                          run_campaign)
from vandermetric.campaign import CAMPAIGN_OPS, multilinear_oracle_exact
from vandermetric.core import LINEAR, LOG


def lines_of(result):
    return "\n".join(result.json_lines())


class TestRunners:
    @pytest.mark.parametrize("metric,n,m", [
        ("vandermonde", 4, 1),
        ("root", 5, 1),
        ("euclidean3", 3, 4),
        ("generalized", 3, 4),
    ])
    def test_simplex_ops_pass(self, metric, n, m):
        config = CampaignConfig(op="simplex", metric=metric, seed=1,
                                trials=500, n=n, m=m)
        result = run_campaign(config)
        assert result.passed
        assert result.trials == 500

    def test_extended_all_k(self):
        result = run_campaign(CampaignConfig(op="extended", seed=2, trials=300, n=4))
        assert result.passed
        assert result.trials == 1200  # all four powers

    def test_extended_single_k(self):
        result = run_campaign(CampaignConfig(op="extended", seed=2, trials=300, n=4, k=2))
        assert result.passed
        assert result.trials == 300

    def test_equality_family(self):
        result = run_campaign(CampaignConfig(op="equality-family", seed=3, trials=500))
        assert result.passed
        assert result.worst <= 1e-10

    @pytest.mark.parametrize("check,n", [
        ("triangle", 3), ("quadrilateral", 4), ("ptolemy", 4),
        ("ngon", 6), ("simplex-equality", 5),
    ])
    def test_polygon_checks(self, check, n):
        config = CampaignConfig(op="polygon", seed=4, trials=200, n=n, check=check)
        assert run_campaign(config).passed

    def test_multilinear_oracle(self):
        result = run_campaign(CampaignConfig(op="multilinear-oracle", seed=5,
                                             trials=200, n=4, m=3))
        assert result.passed
        assert result.worst <= 1e-10

    def test_multilinear_oracle_exact_gap_zero(self):
        assert multilinear_oracle_exact(seed=5, trials=200, n=4, m=3) == 0

    @pytest.mark.parametrize("args,message", [
        (dict(n=1, m=3, trials=5), "need n >= 2"),
        (dict(n=3, m=1, trials=5), "need m >= 2"),
        (dict(n=3, m=3, trials=0), "trials must be >= 1"),
    ])
    def test_multilinear_oracle_exact_rejects_what_the_campaign_rejects(self, args, message):
        with pytest.raises(ArgumentError, match=message):
            multilinear_oracle_exact(seed=5, **args)
        with pytest.raises(ArgumentError, match=message):
            run_campaign(CampaignConfig(op="multilinear-oracle", seed=5, **args))

    def test_multilinear_oracle_exact_past_n_8_is_a_resource_error(self):
        with pytest.raises(ResourceError):
            multilinear_oracle_exact(seed=5, trials=1, n=9, m=2)

    @pytest.mark.parametrize("bound", [0, -1, 2.5, True, None])
    def test_multilinear_oracle_exact_bound_must_be_a_positive_int(self, bound):
        with pytest.raises(ArgumentError, match="bound must be an int >= 1"):
            multilinear_oracle_exact(seed=5, trials=10, n=3, m=3, bound=bound)

    def test_multilinear_oracle_exact_past_2_63_holds_modulo_2_64(self):
        # At bound 3 the worst case (2 bound sqrt(2))^(n(n-1)/2) passes 2^63
        # from n = 7 on; at bound 10^6 three pair factors can pass it.  Both
        # sides compute in the ring Z/2^64, so the gap stays 0.
        for n in (7, 8):
            assert multilinear_oracle_exact(seed=900 + n, trials=200, n=n, m=4) == 0
        assert multilinear_oracle_exact(seed=5, trials=50, n=6, m=3, bound=10 ** 6) == 0

    def test_sum_identity(self):
        result = run_campaign(CampaignConfig(op="sum-identity", seed=6, trials=500,
                                             n=4, m=3))
        assert result.passed

    def test_w_identity_all_q(self):
        for q in (1, 2, 3, 4):
            config = CampaignConfig(op="w-identity", seed=7, trials=300, n=4, m=3, q=q)
            assert run_campaign(config).passed

    def test_w_identity_bad_q(self):
        with pytest.raises(ArgumentError):
            run_campaign(CampaignConfig(op="w-identity", seed=7, trials=10, n=3, q=5))

    def test_ode(self):
        result = run_campaign(CampaignConfig(op="ode", seed=8, trials=30))
        assert result.passed

    def test_unknown_op(self):
        with pytest.raises(ArgumentError):
            run_campaign(CampaignConfig(op="nope"))

    def test_unknown_metric(self):
        with pytest.raises(ArgumentError):
            run_campaign(CampaignConfig(op="simplex", metric="nope"))

    @pytest.mark.parametrize("kwargs", [
        {"op": "simplex", "trials": 0},
        {"op": "simplex", "trials": -5},
        {"op": "simplex", "n": 1},
        {"op": "extended", "n": 4, "k": 7},
        {"op": "polygon", "check": "hexagon"},
        {"op": "polygon", "check": "ngon", "n": 2},
        {"op": "sum-identity", "m": 1},
        {"op": "ode", "tol": float("nan")},
        {"op": "extended", "metric": "root"},
        {"op": "equality-family", "metric": "generalized"},
        {"op": "sum-identity", "q": 3},
        {"op": "multilinear-oracle", "q": 2},
        {"op": "simplex", "check": "ngon"},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ArgumentError):
            run_campaign(CampaignConfig(**kwargs))

    @pytest.mark.parametrize("op", CAMPAIGN_OPS)
    def test_every_op_accepts_the_default_of_each_field(self, op):
        # As the bench's command lines do: every field given, at its default.
        config = CampaignConfig(op=op, metric="vandermonde", check="triangle", q=1, trials=4)
        assert run_campaign(config).checked > 0

    def test_ngon_log_domain_worst_is_log_gap(self):
        result = run_campaign(CampaignConfig(op="polygon", check="ngon", n=25, seed=4,
                                             trials=20))
        assert result.passed
        assert result.worst > 1.0  # log-domain slack; the linear rule divides it by |log rhs|

    @pytest.mark.parametrize("kwargs", [
        dict(op="simplex", metric="vandermonde", n=60),
        dict(op="simplex", metric="vandermonde", n=120),
        dict(op="simplex", metric="root", n=60),
        dict(op="simplex", metric="root", n=120),
        dict(op="extended", n=60),
        dict(op="polygon", check="simplex-equality", n=40),
    ])
    def test_large_n_replacement_checks_pass_as_log_sums(self, kwargs):
        result = run_campaign(CampaignConfig(seed=1, trials=30, **kwargs))
        assert result.passed and result.violations == 0
        assert 0.0 < result.worst < math.inf  # log(rhs / lhs): strict at random inputs


class TestDeterminism:
    @pytest.mark.parametrize("op,kwargs", [
        ("simplex", {"metric": "vandermonde", "n": 4}),
        ("simplex", {"metric": "generalized", "n": 3, "m": 4}),
        ("extended", {"n": 4}),
        ("equality-family", {}),
        ("polygon", {"check": "ngon", "n": 6}),
        ("multilinear-oracle", {"n": 3, "m": 3}),
        ("sum-identity", {"n": 3, "m": 3}),
        ("w-identity", {"n": 3, "m": 3, "q": 2}),
        ("ode", {"trials": 5}),
    ])
    def test_byte_identical_reruns(self, op, kwargs):
        kwargs.setdefault("trials", 200)
        a = run_campaign(CampaignConfig(op=op, seed=123, **kwargs))
        b = run_campaign(CampaignConfig(op=op, seed=123, **kwargs))
        assert lines_of(a).encode() == lines_of(b).encode()

    def test_different_seeds_differ(self):
        a = run_campaign(CampaignConfig(op="simplex", seed=1, trials=100))
        b = run_campaign(CampaignConfig(op="simplex", seed=2, trials=100))
        assert a.worst != b.worst

    def test_summary_is_valid_sorted_json(self):
        result = run_campaign(CampaignConfig(op="simplex", seed=1, trials=50))
        for line in result.json_lines():
            obj = json.loads(line)
            assert json.dumps(obj, sort_keys=True) == line

    def test_all_ops_registered(self):
        # every advertised op must resolve to a runner
        for op in CAMPAIGN_OPS:
            config = CampaignConfig(op=op, seed=0, trials=2, n=3, m=3)
            assert run_campaign(config) is not None


# Every op's config with the documented default tolerance of its claim kind:
# inequality 1e-9, identity 1e-10, bound 1e-6.
DEFAULT_TOL_CASES = [
    (dict(op="simplex", metric="vandermonde"), 1e-9),
    (dict(op="simplex", metric="root", n=5), 1e-9),
    (dict(op="simplex", metric="euclidean3"), 1e-9),
    (dict(op="simplex", metric="generalized", n=3, m=4), 1e-9),
    (dict(op="extended"), 1e-9),
    (dict(op="equality-family"), 1e-10),
    (dict(op="polygon", check="triangle"), 1e-9),
    (dict(op="polygon", check="quadrilateral"), 1e-9),
    (dict(op="polygon", check="ptolemy"), 1e-10),
    (dict(op="polygon", check="ngon", n=7), 1e-9),
    (dict(op="polygon", check="simplex-equality", n=6), 1e-9),
    (dict(op="multilinear-oracle", n=3, m=3), 1e-10),
    (dict(op="sum-identity", n=3, m=3), 1e-10),
    (dict(op="w-identity", n=3, m=3, q=2), 1e-10),
    (dict(op="ode", trials=5), 1e-6),
]


def test_default_tol_cases_cover_every_op():
    assert {kwargs["op"] for kwargs, _ in DEFAULT_TOL_CASES} == set(CAMPAIGN_OPS)


@pytest.mark.parametrize("kwargs,default", DEFAULT_TOL_CASES)
def test_no_tol_is_the_kinds_default(monkeypatch, kwargs, default):
    kwargs = {"seed": 11, "trials": 100, **kwargs}
    used = []

    def recording_verdict(kind, domain, lhs, rhs, tol):
        used.append(tol)
        return verdict(kind, domain, lhs, rhs, tol)

    verdict = campaign.verdict
    monkeypatch.setattr(campaign, "verdict", recording_verdict)
    implicit = list(run_campaign(CampaignConfig(tol=None, **kwargs)).json_lines())
    calls = len(used)  # extended judges each k on its own
    explicit = list(run_campaign(CampaignConfig(tol=default, **kwargs)).json_lines())
    assert calls and used == [default] * (2 * calls)
    summary = json.loads(explicit[-1])
    assert summary["config"]["tol"] == default
    summary["config"]["tol"] = None
    assert implicit == explicit[:-1] + [json.dumps(summary, sort_keys=True)]


@pytest.mark.parametrize("op", CAMPAIGN_OPS)
def test_every_campaign_judges_its_rows_in_one_reduction(monkeypatch, op):
    judge, calls = campaign._judge_blocks, []

    def counted(*args):
        calls.append(args[0].op)
        return judge(*args)

    monkeypatch.setattr(campaign, "_judge_blocks", counted)
    assert run_campaign(CampaignConfig(op=op, seed=6, trials=20)).checked
    assert calls == [op]


# Mutant cells of the campaigns that judge whole arrays, each as the one
# block of campaign._whole: rhs := 0, or its log -inf in a LOG block.
WHOLE_MUTANT_CELLS = [
    (dict(op="polygon", check="triangle"), LINEAR),
    (dict(op="polygon", check="quadrilateral"), LINEAR),
    (dict(op="polygon", check="ptolemy"), LINEAR),
    (dict(op="polygon", check="ngon", n=7), LINEAR),
    (dict(op="polygon", check="ngon", n=25), LOG),
    (dict(op="polygon", check="simplex-equality", n=6), LINEAR),
    (dict(op="polygon", check="simplex-equality", n=40), LOG),
    (dict(op="ode"), LINEAR),
    (dict(op="multilinear-oracle", n=4, m=3), LINEAR),
]


@pytest.mark.parametrize("fields,domain", WHOLE_MUTANT_CELLS,
                         ids=[f"{f.get('check', f['op'])}-{f.get('n', '')}{d}"
                              for f, d in WHOLE_MUTANT_CELLS])
def test_a_planted_zero_rhs_fails_every_row_of_a_whole_array_campaign(monkeypatch, plant_rhs,
                                                                        fields, domain):
    whole, domains = campaign._whole, []

    def recorded(lhs, rhs, block_domain):
        domains.append(block_domain)
        return whole(lhs, rhs, block_domain)

    monkeypatch.setattr(campaign, "_whole", recorded)
    zero = -math.inf if domain == LOG else 0.0
    plant_rhs(campaign, "_whole", lambda lhs, rhs, block_domain: np.full_like(rhs, zero))
    result = run_campaign(CampaignConfig(seed=7, trials=50, **fields))
    assert domains == [domain]
    assert result.violations == result.checked > 0 and not result.passed


# The wrong right sides planted in the blocks of core.replacement_blocks
# and batch.identity_blocks, each in its block's own domain: an
# inequality's rhs := 0 and rhs := lhs/2, as -inf and lhs - log 2 in a LOG
# block; an identity's (LINEAR) rhs := 0, rhs x 2 and rhs x (1 + 1e-6).
INEQUALITY_MUTANTS = {
    "rhs=0": lambda lhs, rhs, domain: np.full_like(rhs, -math.inf if domain == LOG else 0.0),
    "rhs=lhs/2": lambda lhs, rhs, domain: lhs - math.log(2) if domain == LOG else lhs / 2,
}
IDENTITY_MUTANTS = {
    "rhs=0": lambda lhs, rhs, domain: np.zeros_like(rhs),
    "rhs*2": lambda lhs, rhs, domain: 2 * rhs,
    "rhs*(1+1e-6)": lambda lhs, rhs, domain: rhs * (1 + 1e-6),
}


def _identity_fields(n):
    """The identity campaigns at n: sum-identity, and w-identity at q = 1, 2 and n."""
    return [dict(op="sum-identity", n=n),
            *[dict(op="w-identity", n=n, q=q) for q in sorted({1, 2, n})]]


def _cells(fields, mutants, marks=()):
    return [pytest.param(fields, rewrite, marks=marks,
                         id="-".join([*map(str, fields.values()), name]))
            for name, rewrite in mutants.items()]


# At seed 7 the identity verdicts pass rows of a planted wrong rhs from
# n = 12 on: sum-identity rejects 98 of 100 rows at n = 12 under rhs := 0,
# and 9 at n = 40.
_VACUOUS = pytest.mark.xfail(strict=True, reason="item 2: identity verdicts pass wrong sides "
                                                 "at n >= 12")

BLOCK_MUTANT_CELLS = [
    *[cell for metric in ("vandermonde", "root") for n in (3, 4, 12, 13, 40)
      for cell in _cells(dict(op="simplex", metric=metric, n=n), INEQUALITY_MUTANTS)],
    *_cells(dict(op="simplex", metric="euclidean3"), INEQUALITY_MUTANTS),
    *[cell for n in (3, 4, 12, 13)
      for cell in _cells(dict(op="simplex", metric="generalized", m=3, n=n), INEQUALITY_MUTANTS)],
    *[cell for n in (4, 12, 13, 40)
      for cell in _cells(dict(op="extended", n=n), INEQUALITY_MUTANTS)],
    *_cells(dict(op="equality-family"), IDENTITY_MUTANTS),
    *[cell for n in (3, 4) for fields in _identity_fields(n)
      for cell in _cells(fields, IDENTITY_MUTANTS)],
    *[cell for n in (12, 40) for fields in _identity_fields(n)
      for cell in _cells(fields, IDENTITY_MUTANTS, _VACUOUS)],
]


@pytest.mark.parametrize("fields,rewrite", BLOCK_MUTANT_CELLS)
def test_a_planted_wrong_rhs_fails_every_row_of_a_block_campaign(plant_rhs, fields, rewrite):
    identity = fields["op"].endswith("-identity")
    plant_rhs(batch if identity else core, "identity_blocks" if identity else "replacement_blocks",
              rewrite)
    result = run_campaign(CampaignConfig(seed=7, trials=100, **fields))
    assert result.violations == result.checked > 0
