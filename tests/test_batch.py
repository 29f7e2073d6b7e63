"""Vectorized campaign kernels against the scalar reference implementations."""

import tracemalloc

import numpy as np
import pytest

from vandermetric import (
    MultilinearMapSpec,
    ResourceError,
    definiteness_decide,
    extended_inequality_gap,
    generalized_metric,
    permutation_expansion,
    product_difference_form,
    root_metric,
    simplex_gap,
    sum_identity_gap,
    vandermonde_metric,
    w_identity_gap,
)
from vandermetric import CampaignConfig, batch, campaign, core
from vandermetric.core import IDENTITY, INEQUALITY, LINEAR, verdict

RTOL = 1e-12


def close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(71)


class TestComplexKernels:
    def test_dv_batch_matches_scalar(self, rng):
        z = rng.standard_normal((50, 5)) + 1j * rng.standard_normal((50, 5))
        values = batch.dv_batch(z)
        for row, v in zip(z, values):
            assert close(v, vandermonde_metric(list(row)))

    def test_root_batch_matches_scalar(self, rng):
        z = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        values = batch.root_batch(z)
        for row, v in zip(z, values):
            assert close(v, root_metric(list(row)))

    def test_simplex_sides_match_reports(self, rng):
        z = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        lhs, rhs = batch.simplex_sides_complex(z, y)
        for t in range(30):  # the one evaluator: the reports have the kernel's bits
            report = simplex_gap(list(z[t]), complex(y[t]))
            assert (lhs[t], rhs[t]) == (report.lhs, report.rhs)

    def test_extended_sides_match_reports(self, rng):
        z = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        lhs_k, rhs_k = batch.extended_sides_complex(z, y, range(4))
        for k, lhs, rhs in zip(range(4), lhs_k, rhs_k):
            for t in range(20):
                report = extended_inequality_gap(list(z[t]), complex(y[t]), k)
                assert (lhs[t], rhs[t]) == (report.lhs, report.rhs)


class TestVectorKernels:
    def test_generalized_metric_batch(self, rng):
        x = rng.standard_normal((40, 4, 3))
        spec = MultilinearMapSpec(n=4, m=3)
        values = batch.generalized_metric_batch(x)
        for rows, v in zip(x, values):
            assert close(v, generalized_metric(spec, [tuple(p) for p in rows]))


class TestMultilinearKernels:
    def test_pdf_batch_matches_scalar(self, rng):
        x = rng.standard_normal((30, 4, 3))
        spec = MultilinearMapSpec(n=4, m=3)
        re, im = batch.pdf_batch(x)
        for t in range(30):
            ref = product_difference_form(spec, [tuple(p) for p in x[t]])
            assert np.allclose(re[t], ref[0::2], rtol=RTOL, atol=RTOL)
            assert np.allclose(im[t], ref[1::2], rtol=RTOL, atol=RTOL)

    def test_expansion_batch_matches_scalar(self, rng):
        x = rng.standard_normal((10, 3, 3))
        spec = MultilinearMapSpec(n=3, m=3)
        re, im = batch.expansion_batch(x)
        for t in range(10):
            ref = permutation_expansion(spec, [tuple(p) for p in x[t]])
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(re[t] - ref[0::2])) <= 1e-10 * scale
            assert np.max(np.abs(im[t] - ref[1::2])) <= 1e-10 * scale

    def test_expansion_batch_size_limit(self, rng):
        for x in (rng.standard_normal((2, 9, 2)), rng.integers(-3, 4, size=(2, 9, 2))):
            with pytest.raises(ResourceError):
                batch.expansion_batch(x)

    def test_int64_arithmetic_is_exact(self, rng):
        x = rng.integers(-3, 4, size=(200, 5, 3)).astype(np.int64)
        er, ei = batch.expansion_batch(x)
        pr, pi = batch.pdf_batch(x)
        assert np.array_equal(er, pr)
        assert np.array_equal(ei, pi)

    def test_sum_identity_sides(self, rng):
        x = rng.uniform(-1, 1, size=(20, 4, 3))
        y = rng.uniform(-1, 1, size=(20, 3))
        spec = MultilinearMapSpec(n=4, m=3)
        lhs, rhs = batch.sum_identity_sides(x, y)
        gaps = verdict(IDENTITY, LINEAR, lhs, rhs, 0.0).gap
        for t in range(20):
            ref = sum_identity_gap(spec, [tuple(p) for p in x[t]], tuple(y[t]))
            assert abs(gaps[t] - ref) <= 1e-12

    def test_w_identity_sides(self, rng):
        x = rng.uniform(-1, 1, size=(20, 3, 3))
        y = rng.uniform(-1, 1, size=(20, 3))
        for q in (1, 2, 3):
            spec = MultilinearMapSpec(n=3, m=3, extra=q - 1)
            lhs, rhs = batch.w_identity_sides(x, y, q)
            gaps = verdict(IDENTITY, LINEAR, lhs, rhs, 0.0).gap
            for t in range(20):
                ref = w_identity_gap(spec, [tuple(p) for p in x[t]], tuple(y[t]), q)
                assert abs(gaps[t] - ref) <= 1e-12


def _peak(function, *args):
    """(peak bytes allocated during function(*args), its result)."""
    tracemalloc.start()
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def _temporaries(kernel, *args):
    """Peak bytes numpy allocated during kernel(*args), less its outputs."""
    peak, sides = _peak(kernel, *args)
    return peak - sum(side.nbytes for side in sides)


@pytest.mark.parametrize("name",
                         ["products", "euclidean3", "extended", "generalized", "w-identity"])
def test_replacement_temporaries_do_not_grow_with_the_batch(rng, name):
    def call(b):
        z = rng.standard_normal((b, 6)) + 1j * rng.standard_normal((b, 6))
        w = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        x, y = rng.uniform(-1, 1, size=(b, 4, 3)), rng.uniform(-1, 1, size=(b, 3))
        if name == "products":
            return _temporaries(batch.simplex_sides_complex, z, w)
        if name == "euclidean3":
            return _temporaries(batch.simplex_sides_vectors, x[:, :3], y)
        if name == "extended":
            return _temporaries(batch.extended_sides_complex, z, w, range(6))
        if name == "generalized":
            return _temporaries(batch.simplex_sides_generalized, x, y)
        return _temporaries(batch.w_identity_sides, x, y, 2)

    # Both batches span several chunks; the larger one holds 4x the rows.
    small, large = call(8000), call(32000)
    assert large <= small + (1 << 16)


def test_expansion_temporaries_do_not_grow_with_the_batch(rng):
    def call(b):
        return _temporaries(batch.expansion_batch, rng.uniform(-1, 1, size=(b, 5, 3)))

    call(2000)  # caches the permutation groups this row chunk uses
    # Both batches span several row chunks; the larger one holds 4x the rows.
    small, large = call(2000), call(8000)
    assert large <= small + (1 << 16)


def test_expansion_peak_is_one_chunk_budget_and_its_output(rng):
    # One work array of LAPLACE_CHUNK_ELEMENTS elements at most; 128 KiB
    # covers a chunk's gathered coordinates and the plans' small arrays.
    peak, sides = _peak(batch.expansion_batch, rng.uniform(-1, 1, size=(300, 6, 4)))
    output = sum(side.nbytes for side in sides)
    assert peak <= batch.LAPLACE_CHUNK_ELEMENTS * 8 + output + (128 << 10)


def test_pdf_batch_peak_is_one_chunk_budget_and_its_outputs(rng):
    # Rows run in chunks of at most REPLACEMENT_CHUNK_ELEMENTS elements;
    # 128 KiB covers the small arrays of the fold.  Unchunked, the copy,
    # the differences, the pool and the fold buffers of all 1e5 rows came
    # to 41 MiB.
    peak, sides = _peak(batch.pdf_batch, rng.uniform(-1, 1, size=(100000, 4, 3)))
    output = sum(side.nbytes for side in sides)
    assert peak <= core.REPLACEMENT_CHUNK_ELEMENTS * 8 + output + (128 << 10)


def test_decider_temporaries_do_not_grow_with_the_budget():
    # (4, 6) is exhausted at either budget; an array of the larger budget's
    # assignment numbers alone would take 320 KB.
    (small, short), (large, long) = (_peak(definiteness_decide, 4, 6, b) for b in (4000, 40000))
    assert (short.verdict, long.verdict) == ("exhausted", "exhausted")
    assert large <= small + (1 << 16)


@pytest.mark.parametrize("n,m", [(3, 6), (4, 6)])
def test_decider_blocks_stay_under_a_mebibyte(n, m):
    # The blocks grow to DECIDE_CHUNK_MAX // (n + ceil(P/8)) assignments;
    # the peaks measured 0.5 and 0.6 MiB.
    peak, verdict = _peak(definiteness_decide, n, m, 10**6)
    assert verdict.verdict == "exhausted" and peak < 1 << 20


@pytest.mark.parametrize("kind,columns,b", [(IDENTITY, 6, 20000), (INEQUALITY, None, 40000)])
def test_reduce_temporaries_do_not_grow_with_the_batch(rng, kind, columns, b):
    def call(rows):
        shape = (rows, columns) if columns else (rows,)
        lhs = rng.uniform(0.5, 2.0, size=shape)
        rhs = lhs.copy()
        rhs[::rows // 200] -= 1.0  # 200 failing rows, so both record 100 failures
        config = CampaignConfig(op="simplex")
        peak, result = _peak(campaign._reduce, config, kind, LINEAR, lhs, rhs, lambda t: {})
        assert result.violations == 200
        return peak

    # Both batches span several verdict blocks; the larger one holds 4x the rows.
    small, large = call(b), call(4 * b)
    assert large <= small + (1 << 16)


def test_complex_sample_allocates_its_output_and_one_draw_buffer():
    peak, z = _peak(campaign._complex_sample, np.random.default_rng(3), (20000, 6))
    assert z.dtype == complex and z.shape == (20000, 6)
    assert peak <= z.nbytes + 8 * core.VERDICT_BLOCK_ELEMENTS + (1 << 12)


@pytest.mark.parametrize("shape", [(1,), (7, 3), (5000, 7)])
def test_complex_sample_draws_the_values_of_two_whole_planes(shape):
    # (5000, 7) takes three pieces a plane, the last one short.
    rng, whole = np.random.default_rng(3), np.random.default_rng(3)
    z = campaign._complex_sample(rng, shape)
    real, imag = whole.standard_normal(shape), whole.standard_normal(shape)
    assert np.array_equal(z.real, real) and np.array_equal(z.imag, imag)
    assert rng.bit_generator.state == whole.bit_generator.state


# A campaign's inputs: bytes a row of the points and y it draws.
CAMPAIGN_INPUT_CASES = [
    (dict(op="sum-identity", n=4, m=3), (4 + 1) * 3 * 8),
    (dict(op="extended", n=4), (4 + 1) * 16),
    (dict(op="simplex", n=6), (6 + 1) * 16),
    (dict(op="simplex", metric="generalized", n=3, m=4), (3 + 1) * 4 * 8),
]


@pytest.mark.parametrize("fields,row_bytes", CAMPAIGN_INPUT_CASES)
def test_campaign_memory_grows_with_its_inputs_only(fields, row_bytes):
    def call(trials):
        peak, result = _peak(campaign.run_campaign, CampaignConfig(seed=1, trials=trials, **fields))
        assert result.passed
        return peak

    call(100)  # caches the slot maps and fold columns
    # 2^14 rows fill at least one block of every one of these campaigns; the
    # larger batch holds 4x the rows, and its sides would add 3 * 2^14 * 8
    # bytes or more were they held whole.
    b = 1 << 14
    small, large = call(b), call(4 * b)
    assert large <= small + 3 * b * row_bytes + (1 << 16)


# Campaigns beyond 12 points, all Lagrange log sums, and their input bytes a row.
LOG_CAMPAIGN_INPUT_CASES = [
    (dict(op="simplex", n=13), (13 + 1) * 16),
    (dict(op="simplex", metric="generalized", n=13, m=3), (13 + 1) * 3 * 8),
    (dict(op="extended", n=13), (13 + 1) * 16),
]


@pytest.mark.parametrize("fields,row_bytes", LOG_CAMPAIGN_INPUT_CASES)
def test_log_domain_campaign_memory_grows_with_its_inputs_only(fields, row_bytes):
    def call(trials):
        peak, result = _peak(campaign.run_campaign, CampaignConfig(seed=1, trials=trials, **fields))
        assert result.passed
        return peak - trials * row_bytes

    call(100)  # caches the pair indices
    # Both span several log-sum blocks; whole-batch log sums would add
    # several (trials, 13) float arrays.
    small, large = call(2000), call(8000)
    assert large <= small + (1 << 16)
