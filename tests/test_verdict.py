"""The one pass/fail rule: scalar reports and campaign reducers agree and fail closed."""

import json
import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vandermetric import CampaignConfig, CyclicPolygon, batch, campaign, core, run_campaign
from vandermetric.campaign import CampaignResult, _reduce, _rng
from vandermetric.core import (
    BOUND, IDENTITY, INEQUALITY, LINEAR, LOG, MetricReport, _row_max, dump_json, verdict,
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
    if domain == LOG and lhs == -math.inf and (math.isfinite(rhs) or rhs == lhs):
        # The log of 0: decided as the linear sides 0 and exp(rhs) would be.
        assert report.passed is (kind != IDENTITY or rhs == lhs)
    elif not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(normalized)):
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
    # No campaign yields a side that is not finite, so the sides are made here.
    lhs = np.array([1.0, math.nan, 1.0, math.inf, 2.0])
    rhs = np.array([2.0, 2.0, math.inf, math.inf, 1.0])
    with np.errstate(all="ignore"):
        result = _reduce(CampaignConfig(op="simplex"), INEQUALITY, LINEAR, lhs, rhs,
                         lambda t: {})
    assert math.isnan(result.worst) and result.violations == 4
    # The two formats of `vandermetric campaign --format`.
    lines = list(result.json_lines()) if fmt == "jsonl" else [
        dump_json({"failures": result.failures, "summary": result.summary()})]
    records = [strict_json(line) for line in lines]
    if fmt == "json":
        records = records[0]["failures"] + [records[0]["summary"]]
    assert records[-1]["worst"] == "nan"
    assert [r["gap"] for r in records[:-1]] == ["nan", "inf", "nan", -1.0]


@pytest.mark.parametrize("kind", KINDS)
def test_a_log_side_of_minus_inf_is_zero(kind):
    assert verdict(kind, LOG, -math.inf, -math.inf, 0.0).passed  # 0 == 0
    assert bool(verdict(kind, LOG, -math.inf, 2.0, 0.0).passed) is (kind != IDENTITY)
    for lhs, rhs in [(math.inf, math.inf), (-math.inf, math.inf), (-math.inf, math.nan),
                     (1.0, math.inf), (1.0, -math.inf)]:
        assert not verdict(kind, LOG, lhs, rhs, 0.0).passed


def test_vector_identity_uses_the_max_norm():
    lhs = np.array([[1.0, 2.0], [0.0, 3.0]])
    rhs = np.array([[1.0, 2.5], [0.0, 3.0]])
    v = verdict(IDENTITY, LINEAR, lhs, rhs, 1e-9)
    assert v.gap.tolist() == [0.5, 0.0]
    assert v.scale.tolist() == [2.5, 3.0]
    assert v.passed.tolist() == [False, True]


@pytest.mark.parametrize("columns", [1, 2, 5, 6, 9])
def test_row_maxima_fold_equals_max_over_the_last_axis(columns):
    rng = np.random.default_rng(columns)
    for shape in [(200, columns), (3, 40, columns)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        specials = rng.choice([math.nan, math.inf, -math.inf, 0.0], size=shape)
        sprinkle = rng.random(shape) < 0.1
        a[sprinkle] = specials[sprinkle]
        got, want = _row_max(a), a.max(axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["lhs", "rhs", "both"])
def test_an_identity_row_with_one_non_finite_component_fails(bad, side):
    lhs = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    rhs = lhs.copy()
    for sides in ([lhs] if side == "lhs" else [rhs] if side == "rhs" else [lhs, rhs]):
        sides[1, 2] = bad
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        v = verdict(IDENTITY, LINEAR, lhs, rhs, 1e-9)
    assert v.passed.tolist() == [True, False, True]


@pytest.mark.parametrize("domain", DOMAINS)
def test_identity_component_sides_are_judged_per_row_in_both_domains(domain):
    lhs = np.array([[1.0, 2.0], [1.0, 2.0]])
    rhs = np.array([[1.0, 2.0], [1.0, 2.5]])
    v = verdict(IDENTITY, domain, lhs, rhs, 1e-9)
    assert v.passed.shape == v.normalized.shape == (2,)
    assert v.passed.tolist() == [True, False]
    assert v.normalized.tolist() == [0.0, 0.2 if domain == LINEAR else 0.5]
    # A non-finite component fails its row and no other.
    for bad in (math.nan, math.inf, -math.inf):
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
            v = verdict(IDENTITY, domain, lhs, np.array([[1.0, 2.0], [bad, 2.0]]), 1e-9)
        assert v.passed.tolist() == [True, False]


POLYGON_CASES = [
    ("triangle", 3, triangle_check, 0.0),
    ("quadrilateral", 4, quadrilateral_check, 0.0),
    ("ptolemy", 4, ptolemy_gap, 0.0),  # exact identity: rounding fails some rows
    ("ngon", 7, ngon_check, None),
    ("ngon", 25, ngon_check, None),  # log domain
    ("simplex-equality", 6, simplex_equality_ngon, None),
    ("simplex-equality", 40, simplex_equality_ngon, None),  # Lagrange log sums
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


# ---------------------------------------------------------------------------
# The reducer judges in blocks: the same result as one whole-batch verdict


def reduce_whole(config, kind, domain, lhs, rhs, extra):
    """The reducer that judging in blocks replaced: one verdict over the whole batch."""
    tol = campaign._DEFAULT_TOL[kind] if config.tol is None else config.tol
    v = verdict(kind, domain, lhs, rhs, tol)
    bad = np.flatnonzero(~v.passed)
    scale = np.broadcast_to(v.scale, v.gap.shape)
    failures = []
    for t in bad[:campaign._MAX_RECORDED_FAILURES]:
        if kind == IDENTITY:
            rec = {"gap": float(v.gap[t]), "scale": float(scale[t])}
        else:
            rec = {"lhs": float(lhs[t]), "rhs": float(rhs[t]), "gap": float(rhs[t] - lhs[t])}
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
    return CampaignResult(config=config, trials=len(normalized), violations=int(len(bad)),
                          worst=worst, checked=len(normalized), kind=kind, failures=failures)


def assert_same_result(got, want):
    assert (got.trials, got.checked, got.violations) == (want.trials, want.checked,
                                                         want.violations)
    assert list(got.json_lines()) == list(want.json_lines())
    # Bit for bit; a NaN's payload is not output (it is written "nan").
    if math.isnan(want.worst):
        assert math.isnan(got.worst)
    else:
        assert struct.pack("<d", got.worst) == struct.pack("<d", want.worst)


def reduce_out_of_order(config, kind, domain, lhs, rhs, extra, order):
    """_Reduction fed the 31-row blocks of lhs/rhs in the given order of their indices.

    31 rows are not a whole number of verdict blocks, so judge() splits them
    with offsets of its own.
    """
    reduction = campaign._Reduction(config, kind, domain, extra)
    starts = range(0, len(lhs), 31)
    for start in (starts[i] for i in order(len(starts))):
        reduction.judge(lhs[start:start + 31], rhs[start:start + 31], start)
    return reduction.result()


# Block orders: last first, and shuffled.
BLOCK_ORDERS = [lambda count: range(count - 1, -1, -1),
                lambda count: np.random.default_rng(count).permutation(count).tolist()]


def assert_blocks_equal_whole(kind, domain, lhs, rhs, extra=lambda t: {"row": t}):
    config = CampaignConfig(op="simplex", seed=5, tol=1e-9)
    with np.errstate(all="ignore"):
        got = _reduce(config, kind, domain, lhs, rhs, extra)
        want = reduce_whole(config, kind, domain, lhs, rhs, extra)
        fed = [reduce_out_of_order(config, kind, domain, lhs, rhs, extra, order)
               for order in BLOCK_ORDERS]
    for result in [got, *fed]:
        assert_same_result(result, want)
    return got


# 24 side elements a block: 24 rows of (B,) sides, 4 rows of (B, 6) sides.
BLOCK_ELEMENTS = 24


# Every kind and domain on (B,) sides, and the (B, 6) component sides of the
# linear identity campaigns.
REDUCE_CASES = [(kind, domain, None) for kind in KINDS for domain in DOMAINS] + [
    (IDENTITY, LINEAR, 6)]


@pytest.mark.parametrize("finite", [True, False])
@pytest.mark.parametrize("kind,domain,columns", REDUCE_CASES)
def test_blocks_equal_one_whole_batch_verdict(monkeypatch, kind, domain, columns, finite):
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", BLOCK_ELEMENTS)
    per_block = BLOCK_ELEMENTS // (columns or 1)
    rows = 60 * per_block + per_block // 2 + 1  # a short last block
    rng = np.random.default_rng(17)
    shape = (rows, columns) if columns else (rows,)
    lhs = rng.uniform(0.5, 2.0, size=shape)
    # About two rows in three fail, so more than 100 of them, in every block.
    bad = rng.random(rows) < 2 / 3
    if kind == INEQUALITY:
        rhs = lhs + np.where(bad, -1.0, 1.0) * rng.uniform(0.01, 1.0, size=rows)
    elif kind == BOUND:
        rhs = lhs * np.where(bad, rng.uniform(0.5, 0.9, size=rows), 1.0)
    else:
        noise = rng.uniform(0.01, 1.0, size=shape)
        rhs = lhs + np.where(bad if not columns else bad[:, None], noise, 0.0)
    if not finite:
        # Non-finite values only in the last blocks; each kind meets NaN and both infinities.
        late = rows - per_block - 1
        for row, side, value in [(late, lhs, math.nan), (late + 1, rhs, math.inf),
                                 (rows - 1, lhs, -math.inf), (rows - 2, rhs, -math.inf)]:
            side[row] = value
    result = assert_blocks_equal_whole(kind, domain, lhs, rhs)
    assert result.violations > campaign._MAX_RECORDED_FAILURES
    assert len(result.failures) == campaign._MAX_RECORDED_FAILURES
    assert math.isnan(result.worst) is not finite


def test_blocks_equal_one_whole_batch_verdict_on_raveled_extended_rows(monkeypatch):
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", BLOCK_ELEMENTS)
    rng = np.random.default_rng(19)
    b, n = 37, 4
    z = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    y = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    lhs, rhs = batch.extended_sides_complex(z, y, range(n))
    extra = lambda t: {"k": t // b, "row": t % b}
    assert_blocks_equal_whole(INEQUALITY, LINEAR, lhs.ravel(), rhs.ravel(), extra)
    # Swapped sides fail in almost every row of every k.
    result = assert_blocks_equal_whole(INEQUALITY, LINEAR, rhs.ravel(), lhs.ravel(), extra)
    assert result.violations > campaign._MAX_RECORDED_FAILURES
    assert [f["k"] for f in result.failures[-3:]] == [2, 2, 2]
    # By row blocks, every k of a block before the next block, as the
    # streamed campaign judges them: trial k b + row arrives out of order.
    config = CampaignConfig(op="simplex", seed=5, tol=1e-9, trials=b)
    for left, right in ((lhs, rhs), (rhs, lhs)):
        blocks = ((slice(start, start + 5), left[:, start:start + 5], right[:, start:start + 5],
                   LINEAR) for start in range(0, b, 5))
        assert_same_result(campaign._judge_blocks(config, INEQUALITY, "extended", blocks, extra),
                           reduce_whole(config, INEQUALITY, LINEAR, left.ravel(), right.ravel(),
                                        extra))


@pytest.mark.parametrize("kind,domain,columns", REDUCE_CASES)
def test_empty_sides_check_nothing_and_fail(monkeypatch, kind, domain, columns):
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", BLOCK_ELEMENTS)
    empty = np.empty((0, columns) if columns else (0,))
    result = assert_blocks_equal_whole(kind, domain, empty, empty.copy())
    assert (result.trials, result.checked, result.violations) == (0, 0, 0)
    assert math.isnan(result.worst) and not result.passed


# ---------------------------------------------------------------------------
# Streamed campaigns: a log escape in one block judges the whole batch in logs

# Kernel and log chunks of more rows than any batch here: one block of all rows.
ONE_BLOCK = 1 << 40


def _recording(stream, blocks):
    """blocks with the two sides of each block swapped, appending (start, stop, domain) to stream.

    Swapped sides fail in most rows, so the records are full.
    """
    def swapped(*args):
        for rows, lhs, rhs, domain in blocks(*args):
            stream.append((rows.start, rows.stop, domain))
            yield rows, rhs, lhs, domain
    return swapped


def _streamed_and_whole(monkeypatch, config):
    """(result, block stream) of config as configured, then of config in one block of all rows.

    The streams are the (start, stop, domain) of each block of
    core.replacement_blocks, whose sides come swapped (_recording).
    """
    stream, runs = [], []
    monkeypatch.setattr(core, "replacement_blocks", _recording(stream, core.replacement_blocks))
    for chunk in (core.REPLACEMENT_CHUNK_ELEMENTS, ONE_BLOCK):
        monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", chunk)
        runs.append((run_campaign(config), stream[:]))
        stream.clear()
    return runs


def _scaled_draws(monkeypatch, row, scale):
    """Scale one row of each (B, n) complex draw of the campaigns."""
    draw = campaign._complex_sample

    def scaled(rng, shape):
        z = draw(rng, shape)
        if len(shape) == 2:
            z[row] *= scale
        return z

    monkeypatch.setattr(campaign, "_complex_sample", scaled)


@pytest.mark.parametrize("op,metric", [("simplex", "vandermonde"), ("simplex", "root"),
                                       ("extended", "vandermonde")],
                         ids=["simplex", "simplex-root", "extended"])
@pytest.mark.parametrize("scale", [1e60, 1e-30], ids=["overflow", "underflow"])
def test_a_log_escape_in_the_last_chunk_judges_the_whole_batch(monkeypatch, caplog, op, metric,
                                                              scale):
    # The last row's 15 pair factors pass the float range at n = 6 (1e900
    # and 1e-450), so its block takes the log escape, the earlier ones not.
    # Every row is then computed again as log sums, in log chunks in row
    # order.  Over 100 violations either way: extended judges six trials a row.
    n, b = 6, 150 if op == "simplex" else 40
    config = CampaignConfig(op=op, metric=metric, n=n, trials=b, seed=2, tol=0.0)
    # Three rows a kernel chunk, two a log chunk; 24 rows a block of simplex, 3 of extended.
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * core._row_elements(n))
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", BLOCK_ELEMENTS)
    assert core._chunk_rows(core._log_elements(n)) == 2
    _scaled_draws(monkeypatch, -1, scale)
    with caplog.at_level(logging.DEBUG, logger="vandermetric"), np.errstate(all="ignore"):
        (got, streamed), (want, whole) = _streamed_and_whole(monkeypatch, config)
    block = 24 if op == "simplex" else 3
    start = (b - 1) // block * block
    assert streamed == ([(s, s + block, LINEAR) for s in range(0, start, block)]
                        + [(s, min(s + 2, b), LOG) for s in range(0, b, 2)])
    assert whole == [(0, b, LOG)]
    assert_same_result(got, want)
    assert got.violations > campaign._MAX_RECORDED_FAILURES
    name = f"simplex {metric}" if op == "simplex" else "extended"
    assert [r.getMessage() for r in caplog.records if "Lagrange" in r.getMessage()] == [
        f"{name}: {b} trials evaluated as Lagrange log sums"] * 2


def test_a_log_escape_in_a_middle_block_computes_every_row_again_in_order(monkeypatch):
    # Row 30 escapes in the second of three blocks of 24, 24 and 2 rows:
    # that block is not yielded, every row follows from row 0 in log chunks
    # of two rows, and the result is that of one whole block.
    n, b = 6, 50
    config = CampaignConfig(op="simplex", n=n, trials=b, seed=2, tol=0.0)
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * core._row_elements(n))
    monkeypatch.setattr(core, "VERDICT_BLOCK_ELEMENTS", BLOCK_ELEMENTS)
    _scaled_draws(monkeypatch, 30, 1e60)
    with np.errstate(all="ignore"):
        (got, streamed), (want, whole) = _streamed_and_whole(monkeypatch, config)
    assert streamed == [(0, 24, LINEAR)] + [(s, s + 2, LOG) for s in range(0, b, 2)]
    assert whole == [(0, b, LOG)]
    assert_same_result(got, want)
    assert got.violations == b


def test_a_log_escaped_batch_holds_log_chunks_not_the_batch(monkeypatch):
    # d_V at n = 6 with the last row scaled by 1e60 escapes to logs in the
    # last block.  The other rows are computed again in log chunks, so the
    # peak over the inputs does not grow from 8000 to 32000 trials, and the
    # stream is that of one whole-batch call.
    draw, inputs = campaign._complex_sample, []

    def scaled(rng, shape):
        z = draw(rng, shape)
        if len(shape) == 2:
            z[-1] *= 1e60
        inputs.append(z.nbytes)
        return z

    monkeypatch.setattr(campaign, "_complex_sample", scaled)
    peaks = {}
    for trials in (8000, 32000):
        config = CampaignConfig(op="simplex", n=6, trials=trials, seed=3)
        inputs.clear()
        tracemalloc.start()
        try:
            stream = list(run_campaign(config).json_lines())
            peaks[trials] = tracemalloc.get_traced_memory()[1] - sum(inputs)
        finally:
            tracemalloc.stop()
        with monkeypatch.context() as whole:
            whole.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", ONE_BLOCK)
            assert stream == list(run_campaign(config).json_lines())
        assert json.loads(stream[-1])["pass"]
    assert peaks[32000] <= 1.1 * peaks[8000]


@pytest.mark.parametrize("op,metric", [("simplex", "vandermonde"), ("simplex", "root"),
                                       ("simplex", "generalized"), ("extended", "vandermonde")])
def test_log_domain_blocks_are_judged_as_they_come(monkeypatch, caplog, op, metric):
    # Beyond 12 points every block is Lagrange log sums: it is judged as it
    # comes, with no whole-batch call, and equals the one-block run.
    n, b = 13, 150 if op == "simplex" else 40
    config = CampaignConfig(op=op, metric=metric, n=n, m=3, trials=b, seed=4, tol=0.0)
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 7 * core._log_elements(n))
    with caplog.at_level(logging.DEBUG, logger="vandermetric"):
        (got, streamed), (want, whole) = _streamed_and_whole(monkeypatch, config)
    assert streamed == [(s, min(s + 7, b), LOG) for s in range(0, b, 7)]
    assert whole == [(0, b, LOG)]
    assert_same_result(got, want)
    assert got.violations > campaign._MAX_RECORDED_FAILURES
    name = f"simplex {metric}" if op == "simplex" else "extended"
    assert [r.getMessage() for r in caplog.records if "Lagrange" in r.getMessage()] == [
        f"{name}: {b} trials evaluated as Lagrange log sums"] * 2
