"""Core metric layer: evaluation, invariances, Cramer coefficients, combinators."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vandermetric import (
    ArgumentError,
    MonotoneNorm,
    PointTuple,
    SingularityError,
    as_point_tuple,
    componentwise_metric,
    counterexample_4_4,
    cramer_coefficients,
    cramer_coefficients_determinant_ratio,
    euclidean_3metric,
    extended_inequality_gap,
    lp_function_metric,
    pairwise_product_metric,
    pairwise_root_metric,
    product_metric,
    root_metric,
    simplex_gap,
    vandermonde_metric,
    vandermonde_metric_log,
)
from vandermetric import batch, core, geometry, ode
from vandermetric.core import (
    IDENTITY,
    INEQUALITY,
    INEQUALITY_RTOL,
    LINEAR,
    LOG,
    METRICS,
    _log_sums,
    lagrange_log_rows,
    pairwise_distances,
    replacement_blocks,
    replacement_sides,
    vandermonde_log_rows,
    verdict,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
cpx = st.builds(complex, finite, finite)


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def well_separated(z, eps=1e-3):
    return all(abs(a - b) > eps for i, a in enumerate(z) for b in z[i + 1:])


# ---------------------------------------------------------------------------
# Evaluation


class TestVandermonde:
    def test_collinear_integers(self):
        # |1-0| * |2-0| * |2-1| = 2
        assert vandermonde_metric([0, 1, 2]) == 2.0

    def test_fourth_roots_of_unity(self):
        z = [1, 1j, -1, -1j]
        # four sides sqrt(2), two diagonals 2
        assert rel_close(vandermonde_metric(z), 16.0, 1e-14)

    def test_two_points_is_distance(self):
        assert vandermonde_metric([1 + 1j, 4 + 5j]) == 5.0

    def test_repeated_point_gives_zero(self):
        assert vandermonde_metric([2j, 1.0, 2j]) == 0.0

    def test_log_form_matches(self):
        z = [0.3 + 1j, -2.0 + 0.25j, 4.0 - 1j, 0.5j]
        assert rel_close(
            math.exp(vandermonde_metric_log(z)), vandermonde_metric(z), 1e-12
        )

    def test_log_form_repeated_is_minus_inf(self):
        assert vandermonde_metric_log([1j, 1j, 0]) == -math.inf

    def test_large_tuple_uses_log_domain(self):
        rng = np.random.default_rng(7)
        z = [complex(a, b) for a, b in rng.standard_normal((15, 2))]
        direct = math.exp(vandermonde_metric_log(z))
        assert rel_close(vandermonde_metric(z), direct, 1e-12)

    def test_huge_values_no_overflow(self):
        z = [complex(1e80 * k, 0) for k in range(6)]
        value = vandermonde_metric(z)
        assert value == math.inf or value > 1e300

    def test_tiny_values_no_underflow_to_garbage(self):
        z = [complex(1e-80 * k, 0) for k in range(6)]
        assert vandermonde_metric(z) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(cpx, min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_permutation_invariance_bit_identical(z, rand):
    shuffled = list(z)
    rand.shuffle(shuffled)
    assert vandermonde_metric(shuffled) == vandermonde_metric(z)
    assert root_metric(shuffled) == root_metric(z)


@settings(max_examples=100, deadline=None)
@given(st.lists(cpx, min_size=2, max_size=5), cpx)
def test_translation_invariance(z, w):
    assume(well_separated(z))
    a = vandermonde_metric(z)
    b = vandermonde_metric([zi + w for zi in z])
    assert rel_close(a, b, 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(cpx, min_size=2, max_size=5),
       st.floats(min_value=0.1, max_value=10.0))
def test_homogeneity(z, lam):
    assume(well_separated(z))
    n = len(z)
    expected = lam ** (n * (n - 1) / 2.0) * vandermonde_metric(z)
    assert rel_close(vandermonde_metric([lam * zi for zi in z]), expected, 1e-10)


@settings(max_examples=100, deadline=None)
@given(st.lists(cpx, min_size=2, max_size=5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_invariance(z, theta):
    assume(well_separated(z))
    rot = cmath.exp(1j * theta)
    assert rel_close(
        vandermonde_metric([rot * zi for zi in z]), vandermonde_metric(z), 1e-10
    )


class TestRootMetric:
    def test_degree_one_homogeneity(self):
        z = [0j, 1 + 0j, 2 + 2j, -1j]
        assert rel_close(root_metric([3 * zi for zi in z]), 3 * root_metric(z), 1e-12)

    def test_known_value(self):
        assert rel_close(root_metric([0, 1, 2]), 2.0 ** (1.0 / 3.0), 1e-14)

    def test_zero_on_coincident(self):
        assert root_metric([1j, 1j, 0]) == 0.0


class TestVectorMetrics:
    def test_euclidean3_unit_right_triangle(self):
        value = euclidean_3metric((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert rel_close(value, math.sqrt(2.0), 1e-14)

    def test_pairwise_matches_complex_embedding(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (-3.0, 0.5), (0.25, -1.0)]
        z = [complex(*p) for p in pts]
        assert rel_close(pairwise_product_metric(pts), vandermonde_metric(z), 1e-12)

    def test_pairwise_root_degree_one(self):
        pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0)]
        scaled = [tuple(2.0 * c for c in p) for p in pts]
        assert rel_close(pairwise_root_metric(scaled), 2 * pairwise_root_metric(pts), 1e-12)

    def test_permutation_invariance_bit_identical(self):
        pts = [(0.0, 1.5), (-2.0, 0.0), (3.0, 3.0)]
        assert pairwise_product_metric(pts) == pairwise_product_metric(pts[::-1])

    @pytest.mark.parametrize("n", [40, 60])
    def test_pairwise_root_large_n_matches_complex_root(self, n):
        # The product of the n(n-1)/2 distances overflows a float; the root does not.
        pts = np.random.default_rng(n).uniform(-10.0, 10.0, size=(n, 2))
        value = pairwise_root_metric([tuple(p) for p in pts])
        assert pairwise_product_metric([tuple(p) for p in pts]) == math.inf
        assert math.isfinite(value)
        assert rel_close(value, root_metric([complex(*p) for p in pts]), 1e-12)

    def test_pairwise_root_simplex_at_n60(self):
        pts = np.random.default_rng(5).uniform(-10.0, 10.0, size=(60, 2))
        report = simplex_gap([tuple(p) for p in pts], (0.5, -0.25), metric="pairwise_root")
        assert math.isfinite(report.lhs) and math.isfinite(report.rhs)
        assert report.passed

    @pytest.mark.parametrize("xs", [
        [0.0, 0.0, 1e-301, 2.0],  # a zero factor and one below 1e-300
        [0.0, 1e-301, 2.0, 5.0],  # a partial product below 1e-300
        list(np.linspace(-40.0, 40.0, 14)),  # n > 12
    ])
    def test_vector_fold_matches_complex_fold_bits(self, xs):
        vector = pairwise_product_metric([(x,) for x in xs])
        assert vector.hex() == vandermonde_metric([complex(x) for x in xs]).hex()


# ---------------------------------------------------------------------------
# Input validation


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ArgumentError):
            as_point_tuple([1 + 0j])

    ONE_POINT_CALLS = {
        "replacement_sides": lambda x, y: core.replacement_sides(x, y, "pairwise"),
        "replacement_blocks": lambda x, y: list(core.replacement_blocks(x, y, "pairwise")),
        "w_identity_sides": lambda x, y: batch.w_identity_sides(x, y, 2),
        "sum_identity_sides": batch.sum_identity_sides,
        "identity_blocks": lambda x, y: list(batch.identity_blocks(x, y, 1)),
        "lagrange_log_rows": core.lagrange_log_rows,
        "vandermonde_rows": lambda x, y: core.vandermonde_rows(x[..., 0] + 1j * x[..., 1]),
        "vandermonde_log_rows": lambda x, y: core.vandermonde_log_rows(x[..., 0] + 1j * x[..., 1]),
        "pairwise_distances": lambda x, y: core.pairwise_distances(x),
        "simplex_sides_complex": lambda x, y: batch.simplex_sides_complex(
            x[..., 0] + 1j * x[..., 1], y[:, 0] + 0j),
        "extended_sides_complex": lambda x, y: batch.extended_sides_complex(
            x[..., 0] + 1j * x[..., 1], y[:, 0] + 0j, (0, 1)),
        "simplex_sides_vectors": batch.simplex_sides_vectors,
        "simplex_sides_generalized": batch.simplex_sides_generalized,
        "root_batch": lambda x, y: batch.root_batch(x[..., 0] + 1j * x[..., 1]),
    }

    # The calls that take vectors, on 3 points of too few coordinates: none,
    # or for the generalized metric, one, which spans no coordinate plane.
    FEW_COORDINATES = {"lagrange_log_rows": 0, "pairwise_distances": 0, "replacement_sides": 0,
                       "simplex_sides_vectors": 0, "simplex_sides_generalized": 1}

    SHAPES = [pytest.param(name, (b, n, 3), id=f"{name}-{n}-{b}")
              for name in sorted(ONE_POINT_CALLS) for n in (0, 1) for b in (0, 3)] + [
        pytest.param(name, (b, 3, m), id=f"{name}-m{m}-{b}")
        for name, most in sorted(FEW_COORDINATES.items()) for m in range(most + 1) for b in (0, 3)]

    @pytest.mark.parametrize("name,shape", SHAPES)
    def test_batch_entries_need_two_points(self, name, shape):
        # As PointTuple rejects them for the scalar API, with no rows as well.
        with pytest.raises(ArgumentError, match="need at least 2 points"):
            self.ONE_POINT_CALLS[name](np.zeros(shape), np.zeros(shape[::2]))

    # Each size the kernels define, with its value, or that they reject.
    DEGENERATE_SIZES = {
        "identity_blocks-m1": (lambda: [
            (rows, lhs.shape, rhs.shape, domain) for rows, lhs, rhs, domain
            in batch.identity_blocks(np.zeros((2, 3, 1)), np.zeros((2, 1)), 1)],
            [(slice(0, 2), (1, 2, 0), (1, 2, 0), LINEAR)]),
        "replacement_blocks-no-row": (lambda: [
            (rows, lhs.shape, rhs.shape, domain) for rows, lhs, rhs, domain
            in replacement_blocks(np.zeros((0, 4), complex), np.zeros(0, complex), "vandermonde")],
            [(slice(0, 0), (1, 0), (1, 0), LINEAR)]),
        "random_sorted_angles-n1": (
            lambda: geometry.random_sorted_angles(np.random.default_rng(0), 2, 1).shape, (2, 1)),
        "random_sorted_angles-n0": (
            lambda: geometry.random_sorted_angles(np.random.default_rng(0), 2, 0).shape, (2, 0)),
        "CyclicPolygon.random-n1": (
            lambda: geometry.CyclicPolygon.random(1, np.random.default_rng(0)), ArgumentError),
        "derive_alpha-0x0": (lambda: ode.derive_alpha(np.zeros((0, 0))), ArgumentError),
        "growth_bounds-0x0": (lambda: ode.growth_bounds(np.zeros((0, 0))), ArgumentError),
        "MatrixFunction.constant-0x0": (
            lambda: ode.MatrixFunction.constant(np.zeros((0, 0))), ArgumentError),
        "ODEProblem-m0": (lambda: ode.ODEProblem(ode.MatrixFunction("constant", np.zeros((0, 0))),
                                                 np.zeros((3, 0)), [0.0, 1.0]), ArgumentError),
        "identity-verdict-no-component": (lambda: verdict(
            IDENTITY, LINEAR, np.zeros((2, 0)), np.zeros((2, 0)), 1e-10), ArgumentError),
        "log-identity-verdict-no-component": (lambda: verdict(
            IDENTITY, LOG, np.zeros((2, 0)), np.zeros((2, 0)), 1e-10), ArgumentError),
        "max_gap_and_scale-m1": (lambda: batch.max_gap_and_scale(
            *batch.sum_identity_sides(np.zeros((2, 3, 1)), np.zeros((2, 1)))), ArgumentError),
        "max-norm-of-nothing": (lambda: MonotoneNorm(p=math.inf)([]), 0.0),
        "1-norm-of-nothing": (lambda: MonotoneNorm(p=1.0)([]), 0.0),
        "2-norm-of-nothing": (lambda: MonotoneNorm(p=2.0)([]), 0.0),
    }

    @pytest.mark.parametrize("name", sorted(DEGENERATE_SIZES))
    def test_degenerate_sizes_give_their_value_or_an_argument_error(self, name):
        call, want = self.DEGENERATE_SIZES[name]
        if want is ArgumentError:
            with pytest.raises(ArgumentError):
                call()
        else:
            got = call()
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("points", [[1, (1.0, 2.0)], [(1.0, 2.0), 1], ["a", "b"], ["1", "2"],
                                        [1, "2"], [("1", 2.0), (3.0, 4.0)]])
    def test_points_neither_all_numbers_nor_all_vectors(self, points):
        with pytest.raises(ArgumentError, match="all numbers or all sequences"):
            as_point_tuple(points)

    def test_mixed_dimensions(self):
        with pytest.raises(ArgumentError):
            PointTuple(((1.0, 2.0), (1.0, 2.0, 3.0)))

    def test_non_finite(self):
        with pytest.raises(ArgumentError):
            as_point_tuple([0j, complex(math.nan, 0)])
        with pytest.raises(ArgumentError):
            as_point_tuple([(0.0,), (math.inf,)])

    def test_complex_required(self):
        with pytest.raises(ArgumentError):
            vandermonde_metric([(1.0, 2.0), (3.0, 4.0)])

    def test_vectors_required(self):
        with pytest.raises(ArgumentError):
            pairwise_product_metric([1 + 0j, 2 + 0j])

    def test_norm_p_below_one(self):
        with pytest.raises(ArgumentError):
            MonotoneNorm(p=0.5)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.inf)])
    def test_norm_non_finite_weights(self, weights):
        with pytest.raises(ArgumentError):
            MonotoneNorm(weights=weights)

    @pytest.mark.parametrize("samples,weights", [
        ([[0.0, math.nan], [1.0, 2.0]], [1.0, 1.0]),
        ([[0.0, 1.0], [math.inf, 2.0]], [1.0, 1.0]),
        ([[0.0, 1.0], [1.0, 2.0]], [math.nan, 1.0]),
        ([[0.0, 1.0], [1.0, 2.0]], [1.0, math.inf]),
    ])
    def test_lp_non_finite_inputs(self, samples, weights):
        with pytest.raises(ArgumentError):
            lp_function_metric(samples, weights, 2.0)

    def test_norm_nonpositive_weight(self):
        with pytest.raises(ArgumentError):
            MonotoneNorm(p=2.0, weights=(1.0, 0.0))


# ---------------------------------------------------------------------------
# Cramer / Lagrange coefficients


class TestCramer:
    def test_cube_roots_of_unity_at_origin(self):
        z = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        coeffs = cramer_coefficients(z, 0j)
        for a in coeffs:
            assert abs(a - (1.0 / 3.0)) < 1e-14

    def test_integer_nodes(self):
        coeffs = cramer_coefficients([0, 1, 2], 3.0)
        expected = [1.0, -3.0, 3.0]
        for a, e in zip(coeffs, expected):
            assert abs(a - e) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = [complex(a, b) for a, b in rng.standard_normal((4, 2))]
            y = complex(*rng.standard_normal(2))
            coeffs = cramer_coefficients(z, y)
            for k in range(4):
                total = sum(a * zi**k for a, zi in zip(coeffs, z))
                assert abs(total - y**k) < 1e-9 * max(abs(y) ** k, 1.0)

    def test_agrees_with_determinant_ratio(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = [complex(a, b) for a, b in rng.standard_normal((5, 2))]
            y = complex(*rng.standard_normal(2))
            lagrange = cramer_coefficients(z, y)
            ratio = cramer_coefficients_determinant_ratio(z, y)
            for a, b in zip(lagrange, ratio):
                assert abs(a - b) < 1e-9 * max(abs(a), 1.0)

    def test_coincident_points_raise(self):
        with pytest.raises(SingularityError):
            cramer_coefficients([1j, 1j, 0], 2.0)
        with pytest.raises(SingularityError):
            cramer_coefficients_determinant_ratio([1j, 1j, 0], 2.0)

    @pytest.mark.parametrize("y", [complex(math.nan, 0), complex(0, -math.inf), math.inf])
    def test_non_finite_y_raises(self, y):
        for coefficients in (cramer_coefficients, cramer_coefficients_determinant_ratio):
            with pytest.raises(ArgumentError, match="non-finite replacement point"):
                coefficients([0, 1, 2], y)


# ---------------------------------------------------------------------------
# Simplex and extended inequalities


class TestSimplexGap:
    def test_random_complex(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            z = [complex(a, b) for a, b in rng.standard_normal((4, 2))]
            y = complex(*rng.standard_normal(2))
            report = simplex_gap(z, y)
            assert report.passed, report.to_json()

    def test_vectors_euclidean3(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            pts = [tuple(v) for v in rng.standard_normal((3, 4))]
            y = tuple(rng.standard_normal(4))
            report = simplex_gap(pts, y, metric="euclidean3")
            assert report.passed, report.to_json()

    def test_report_fields(self):
        report = simplex_gap([0, 1, 2], 1j)
        assert report.operation == "simplex_gap"
        assert report.gap == report.rhs - report.lhs
        assert report.to_json() == report.to_json()

    def test_y_equal_to_a_point_still_holds(self):
        report = simplex_gap([0, 1, 2, 3], 2 + 0j)
        assert report.passed

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            simplex_gap([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], (1.0,), metric="euclidean3")

    def test_overflowing_sides_are_compared_in_logs(self):
        z, y = [1e200, 1j, 2, 3, -1j], 0.5
        report = simplex_gap(z, y)
        assert report.passed and report.domain == LOG and report.flags == {"log_domain": True}
        assert report.lhs == pytest.approx(_log_dv(z), rel=1e-12)
        terms = [_log_dv(z[:i] + [y] + z[i + 1:]) for i in range(len(z))]
        assert report.rhs == pytest.approx(_log_sum(terms), rel=1e-12)
        assert (report.lhs, report.rhs) == pytest.approx((1846.67, 1847.01), abs=0.01)

    def test_non_finite_points_still_fail_closed(self):
        # The array API does not validate its inputs: a NaN y fails its row, in LINEAR.
        lhs, rhs, domain = replacement_sides(np.array([[1e200, 1j, 2]]), np.array([math.nan]),
                                             "vandermonde")
        assert domain == LINEAR and math.isnan(rhs[0, 0])
        assert not verdict(INEQUALITY, domain, lhs, rhs, INEQUALITY_RTOL).passed.any()

    @pytest.mark.parametrize("call", [
        lambda: simplex_gap([1e200, 1j, 2], math.nan),
        lambda: simplex_gap([0, 1, 2], (math.inf, 0.0)),
        lambda: simplex_gap([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
                            (0.0, math.nan, 0.0), metric="euclidean3"),
        lambda: extended_inequality_gap([0, 1, 2], complex(math.inf, 0.0), 1),
    ])
    def test_non_finite_replacement_point_is_an_argument_error(self, call):
        with pytest.raises(ArgumentError, match="non-finite replacement point"):
            call()

    def test_underflowing_sides_are_compared_in_logs(self):
        # 15 distances near 1e-30 multiply to 0 in floats, yet no two points coincide.
        z = [1e-30 * c for c in (1, 2j, -1, 3, 1 + 1j, -2j)]
        report = simplex_gap(z, 0.5e-30)
        assert report.domain == LOG and report.flags == {"log_domain": True}
        assert math.isfinite(report.lhs) and math.isfinite(report.rhs) and report.passed
        assert report.lhs == pytest.approx(_log_dv(z), rel=1e-12)
        # The generalized metric: every plane's product underflows.
        x = 1e-60 * np.random.default_rng(3).standard_normal((2, 6, 3))
        lhs, rhs, domain = replacement_sides(x, np.zeros((2, 3)), "generalized")
        assert domain == LOG and np.isfinite(lhs).all() and np.isfinite(rhs).all()
        # Distinct points that collide on every plane: a generalized metric of exactly 0.
        x = np.array([counterexample_4_4()], dtype=float)
        lhs, rhs, domain = replacement_sides(x, np.ones((1, 4)), "generalized")
        assert domain == LINEAR and lhs[0, 0] == 0.0 and rhs[0, 0] > 0.0


def _log_dv(z):
    return math.fsum(math.log(abs(z[i] - z[j])) for j in range(len(z))
                     for i in range(j + 1, len(z)))


def _log_sum(terms):
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


class TestExtendedInequality:
    def test_k_zero_is_simplex(self):
        z = [1 + 1j, 2 - 1j, -0.5 + 0j, 3j]
        y = 0.25 - 0.25j
        a = extended_inequality_gap(z, y, 0)
        b = simplex_gap(z, y)
        assert rel_close(a.lhs, b.lhs, 1e-14)
        assert rel_close(a.rhs, b.rhs, 1e-14)

    def test_all_k_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            z = [complex(a, b) for a, b in rng.standard_normal((4, 2))]
            y = complex(*rng.standard_normal(2))
            for k in range(4):
                assert extended_inequality_gap(z, y, k).passed

    def test_an_overflowing_weight_is_compared_in_logs(self):
        z = [1e200, 1j, 2]
        for y, k in [(1e200, 2), (1.0, 2), (1e200, 1)]:
            report = extended_inequality_gap(z, y, k)
            assert report.passed and report.domain == LOG and report.flags == {"log_domain": True}
            assert report.lhs == pytest.approx(k * math.log(abs(y)) + _log_dv(z), rel=1e-12)

    def test_overflowing_products_are_compared_in_logs(self):
        z, y, k = [1e150, 1j, 2, 3, -1j], 0.5, 2
        report = extended_inequality_gap(z, y, k)
        assert report.passed and report.domain == LOG and report.flags == {"log_domain": True}
        terms = [k * math.log(abs(z[i])) + _log_dv(z[:i] + [y] + z[i + 1:])
                 for i in range(len(z))]
        assert report.lhs == pytest.approx(k * math.log(abs(y)) + _log_dv(z), rel=1e-12)
        assert report.rhs == pytest.approx(_log_sum(terms), rel=1e-12)

    def test_an_underflowing_side_is_compared_in_logs_unless_y_is_0(self):
        z = [1e-30 * c for c in (1, 2j, -1, 3, 1 + 1j, -2j)]
        report = extended_inequality_gap(z, 0.5e-30, 1)
        assert report.domain == LOG and report.passed
        report = extended_inequality_gap(z, 0, 1)  # |y|^k d(z) is exactly 0
        assert report.domain == LINEAR and report.lhs == 0.0 and report.passed

    def test_finite_weights_keep_their_bits(self):
        z = [1e150, 1j, 2]
        lhs, rhs, _ = replacement_sides(np.array([z]), np.array([0.5 + 0.5j]), "vandermonde",
                                        (0, 1, 2))
        weights = np.abs([0.5 + 0.5j] + z)  # the weights are np.abs(w) ** k
        for k in (1, 2):
            assert lhs[k, 0] == weights[0] ** k * lhs[0, 0]
            assert math.isfinite(rhs[k, 0])

    def test_k_out_of_range(self):
        with pytest.raises(ArgumentError):
            extended_inequality_gap([0, 1, 2], 1j, 3)
        with pytest.raises(ArgumentError):
            extended_inequality_gap([0, 1, 2], 1j, -1)


class TestLagrangeLogSums:
    """Sides beyond n = 12 as log d_V plus the Lagrange coefficients' logs."""

    @pytest.mark.parametrize("n", range(13, 21))
    def test_terms_are_the_cramer_coefficients(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        log_dv, terms = lagrange_log_rows(z, y)
        assert np.array_equal(log_dv, vandermonde_log_rows(z))
        for row in range(4):
            want = np.abs(cramer_coefficients(list(z[row]), y[row]))
            got = np.exp(terms[row] - log_dv[row])
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_scalar_checks_at_large_n_compare_logs(self):
        rng = np.random.default_rng(120)
        z = [complex(a, b) for a, b in rng.standard_normal((120, 2))]
        for report in (simplex_gap(z, 0.3 - 0.2j), simplex_gap(z, 0.3 - 0.2j, metric="root"),
                       extended_inequality_gap(z[:60], 0.3 - 0.2j, 59)):
            assert report.domain == LOG and report.flags == {"log_domain": True}
            assert math.isfinite(report.lhs) and math.isfinite(report.rhs)
            assert report.passed and report.gap > 0.0

    def test_coincident_points_still_pass(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((2, 13)) + 1j * rng.standard_normal((2, 13))
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z[:, 1] = z[:, 0]  # lhs = 0
        z[1, 4] = z[1, 5]  # and every replaced tuple keeps a coincidence: rhs = 0
        (lhs,), (rhs,), _ = replacement_sides(z, y, "vandermonde")
        assert lhs.tolist() == [-math.inf, -math.inf]
        assert math.isfinite(rhs[0]) and rhs[1] == -math.inf
        assert verdict(INEQUALITY, LOG, lhs, rhs, INEQUALITY_RTOL).passed.all()
        assert simplex_gap(list(z[1]), y[1]).gap == 0.0  # 0 <= 0
        for row in range(2):
            assert simplex_gap(list(z[row]), y[row]).passed
            linear = simplex_gap(list(z[row, :12]), y[row])  # the same rows in the linear rule
            assert linear.lhs == 0.0 and linear.passed

    def test_y_at_a_point_is_an_equality(self):
        rng = np.random.default_rng(14)
        z = [complex(a, b) for a, b in rng.standard_normal((14, 2))]
        report = simplex_gap(z, z[3])
        assert report.passed and report.lhs == report.rhs

    def test_vector_rows_compare_logs(self):
        rng = np.random.default_rng(40)
        x = [tuple(p) for p in 5.0 * rng.standard_normal((40, 3))]
        for metric in ("pairwise", "pairwise_root"):
            report = simplex_gap(x, (0.1, 0.2, 0.3), metric=metric)
            assert report.domain == LOG and report.flags == {"log_domain": True}
            assert math.isfinite(report.lhs) and math.isfinite(report.rhs)
            assert report.passed

    @pytest.mark.parametrize("n", range(8, 13))
    def test_generalized_log_sums_are_the_logs_of_the_linear_sides(self, monkeypatch, n):
        monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 1 << 9)  # chunks of 1 to 10 rows
        rng = np.random.default_rng(n)
        for m in (2, 3, 5):
            x, y = rng.standard_normal((50, n, m)), rng.standard_normal((50, m))
            lhs, rhs, domain = replacement_sides(x, y, "generalized")
            assert domain == LINEAR
            log_lhs, log_rhs = core._lagrange_sides(x, y, "generalized", (0,))
            assert np.max(np.abs(log_lhs - np.log(lhs))) <= 1e-13
            assert np.max(np.abs(log_rhs - np.log(rhs))) <= 1e-13

    @pytest.mark.parametrize("n", [13, 20, 40])
    def test_vector_log_sums_are_the_distance_log_sums(self, n):
        rng = np.random.default_rng(n)
        x = 5.0 * rng.standard_normal((3, n, 3))
        y = rng.standard_normal((3, 3))
        x[0, 1] = x[0, 0]  # a zero distance
        log_d, terms = lagrange_log_rows(x, y)
        assert np.array_equal(log_d, _log_sums(pairwise_distances(x)))
        assert log_d[0] == -math.inf
        for i in range(n):
            replaced = x.copy()
            replaced[:, i] = y
            want = _log_sums(pairwise_distances(replaced))
            assert np.allclose(terms[:, i], want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# The row kernel against the scalar per-slot rule


def _per_slot_sides(metric, points, y, k):
    """lhs = |y|^k d(x) and rhs = 0 + sum_i |x_i|^k d(x with x_i -> y) with the scalar
    metric, one tuple at a time; k = 0 takes no weight, as simplex_gap did."""
    d = METRICS[metric]
    side = (lambda pts, w: abs(w) ** k * d(pts)) if k else (lambda pts, w: d(pts))
    lhs = side(points, y)
    rhs = 0
    for i, p in enumerate(points):
        replaced = list(points)
        replaced[i] = y
        rhs = rhs + side(replaced, p)
    return lhs, rhs


def _row_inputs(rng, b, n, complex_points):
    """(points, y) with coincident points in row 1 and y on a point in row 2 (when b > 2)."""
    if complex_points:
        points = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        y = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    else:
        points, y = rng.uniform(-2.0, 2.0, size=(b, n, 3)), rng.uniform(-2.0, 2.0, size=(b, 3))
    if b > 2:
        points[1, 1] = points[1, 0]
        y[2] = points[2, n - 1]
    return points, y


def _scalar_rows(points):
    return [list(row) if row.ndim == 1 else [tuple(p) for p in row] for row in points]


_KERNEL_CASES = [(metric, n) for metric in ("vandermonde", "root", "pairwise", "pairwise_root")
                 for n in range(2, 13)] + [("euclidean3", 3)]


@pytest.mark.parametrize("metric,n", _KERNEL_CASES)
def test_replacement_sides_equal_the_per_slot_scalar_rule(monkeypatch, metric, n):
    """The lockstep sides agree with the scalar metric per slot to rounding.

    The fold takes the points in input order, the scalar metrics in their
    canonical sort, so the two round differently within a few ulps.
    """
    # Three rows per chunk: B = 7 spans three chunks.
    monkeypatch.setattr(core, "REPLACEMENT_CHUNK_ELEMENTS", 3 * core._row_elements(n))
    complex_points = metric in ("vandermonde", "root")
    ks = list(range(n)) if complex_points else [0]
    rng = np.random.default_rng(n)
    for b in (1, 7):
        points, y = _row_inputs(rng, b, n, complex_points)
        lhs, rhs, domain = replacement_sides(points, y, metric, ks)
        assert domain == LINEAR and lhs.shape == rhs.shape == (len(ks), b)
        rows, ys = _scalar_rows(points), _scalar_rows(y[:, None])
        for row, k in enumerate(ks):
            want = np.array([_per_slot_sides(metric, rows[t], ys[t][0], k) for t in range(b)])
            assert np.allclose(lhs[row], want[:, 0], rtol=1e-13, atol=0.0)
            assert np.allclose(rhs[row], want[:, 1], rtol=1e-13, atol=0.0)
            # Exact zeros stay exact: coincident points in row 1, y on a point in row 2.
            assert np.array_equal(lhs[row] == 0.0, want[:, 0] == 0.0)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_scalar_reports_are_rows_of_the_campaign_kernel(metric):
    """A B = 1 report has the bits of its row in a B = 7 call, and of the batch kernel.

    Every k of the weighted check is a vandermonde report.
    """
    n = 3 if metric == "euclidean3" else 5
    ks = list(range(n)) if metric == "vandermonde" else [0]
    points, y = _row_inputs(np.random.default_rng(17), 7, n, metric in ("vandermonde", "root"))
    lhs, rhs, domain = replacement_sides(points, y, metric, ks)
    assert domain == LINEAR
    if metric == "vandermonde":
        kernel = batch.extended_sides_complex(points, y, ks)
    else:
        kernel = [side[None] for side in batch.simplex_sides_complex(points, y,
                                                                     metric.endswith("root"))]
    for side, want in zip((lhs, rhs), kernel):
        assert np.array_equal(side.view(np.int64), want.view(np.int64))
    rows, ys = _scalar_rows(points), _scalar_rows(y[:, None])
    for row, k in enumerate(ks):
        for t in range(7):
            report = (extended_inequality_gap(rows[t], ys[t][0], k) if k
                      else simplex_gap(rows[t], ys[t][0], metric=metric))
            assert report.domain == LINEAR
            assert (report.lhs.hex(), report.rhs.hex()) == (lhs[row, t].hex(), rhs[row, t].hex())


_OVERFLOW_CASES = [("vandermonde", (0,)), ("root", (0,)), ("pairwise", (0,)),
                   ("pairwise_root", (0,)), ("vandermonde", (1, 2, 3))]


@pytest.mark.parametrize("metric,ks", _OVERFLOW_CASES)
def test_an_overflowing_row_takes_the_batch_to_lagrange_log_sums(metric, ks):
    """One row scaled to overflow: every row of the n <= 12 batch still reaches a verdict."""
    complex_points = metric in ("vandermonde", "root")
    points, y = _row_inputs(np.random.default_rng(5), 5, 4, complex_points)
    points[3] *= 1e200  # its products pass 1e308: inf, or NaN times a zero
    with np.errstate(over="ignore", invalid="ignore"):
        raw = batch.extended_sides_complex(points, y, ks) if any(ks) else \
            batch.simplex_sides_complex(points, y, metric.endswith("root"))
    assert not np.isfinite(np.concatenate([np.ravel(raw[0]), np.ravel(raw[1])])).all()
    lhs, rhs, domain = replacement_sides(points, y, metric, ks)
    assert domain == LOG and lhs.shape == rhs.shape == (len(ks), 5)
    v = verdict(INEQUALITY, LOG, lhs, rhs, INEQUALITY_RTOL)
    assert v.passed.all() and math.isfinite(v.normalized.min())


def _first_block(*args, **kwargs):
    return next(replacement_blocks(*args, **kwargs))


def test_replacement_sides_reject_mismatched_inputs():
    z = np.zeros((1, 4), dtype=complex)
    x = np.zeros((1, 4, 3))
    # replacement_blocks checks them as replacement_sides does, before any block.
    for evaluate in (replacement_sides, _first_block):
        for points, metric in ((z, "pairwise"), (x, "root"), (z, "bogus"), (x, "euclidean3"),
                               (z, "generalized"), (x[:, :, :1], "generalized")):
            with pytest.raises(ArgumentError):
                evaluate(points, np.zeros(1), metric)
        for metric in ("pairwise", "generalized"):
            with pytest.raises(ArgumentError):  # the weights |x_i|^k are for complex points
                evaluate(x, np.zeros((1, 3)), metric, ks=(0, 1))
    with pytest.raises(ArgumentError):
        simplex_gap([0, 1, 2], 1j, metric=vandermonde_metric)


@pytest.mark.parametrize("shape", [(7, 3, 4), (5, 2), (0, 5, 3), (3,)])
def test_planes_are_the_gathered_coordinate_pairs_bit_for_bit(shape):
    v = np.random.default_rng(5).standard_normal(shape)
    s, t = core._pair_indices(shape[-1])
    planes = core._planes(v)
    assert planes.shape == (len(s),) + shape[:-1]
    assert np.array_equal(planes.real, np.moveaxis(v[..., s], -1, 0))
    assert np.array_equal(planes.imag, np.moveaxis(v[..., t], -1, 0))


# ---------------------------------------------------------------------------
# Constructions


class TestConstructions:
    def test_product_metric_known(self):
        norm = MonotoneNorm(p=1.0)
        value = product_metric("vandermonde", "vandermonde", norm,
                               [0, 1, 2], [0, 2, 4])
        assert rel_close(value, 2.0 + 16.0, 1e-14)

    def test_product_metric_size_mismatch(self):
        with pytest.raises(ArgumentError):
            product_metric("vandermonde", "vandermonde", MonotoneNorm(),
                           [0, 1], [0, 1, 2])

    def test_componentwise_zero_on_shared_column(self):
        # distinct points, identical first coordinates in two of them
        pts = [(1.0, 0.0), (1.0, 5.0), (2.0, 3.0)]
        norm = MonotoneNorm(p=1.0, weights=(1.0, 0.0001))
        value = componentwise_metric(pts, norm)
        assert value > 0.0
        zeroed = [(1.0, 0.0), (1.0, 5.0), (1.0, 3.0)]
        assert componentwise_metric(zeroed, MonotoneNorm(p=1.0, weights=(1.0, 1e-9))) > 0
        fully = [(1.0, 0.0), (1.0, 0.0), (2.0, 3.0)]
        assert componentwise_metric(fully) == 0.0

    def test_componentwise_is_norm_of_column_metrics(self):
        pts = [tuple(p) for p in np.random.default_rng(3).standard_normal((5, 3))]
        norm = MonotoneNorm(p=3.0, weights=(1.0, 0.5, 2.0))
        columns = [vandermonde_metric([complex(p[c]) for p in pts]) for c in range(3)]
        assert componentwise_metric(pts, norm).hex() == norm(columns).hex()

    def test_lp_function_metric_known(self):
        # grid point 0: |1-0| |3-0| |3-1| = 6; grid point 1: |2-0| |5-0| |5-2| = 30
        value = lp_function_metric([[0.0, 0.0], [1.0, 2.0], [3.0, 5.0]], [1.0, 0.5], 2.0)
        assert rel_close(value, math.sqrt(36.0 + 0.5 * 900.0), 1e-14)

    def test_lp_function_metric_simplex(self):
        rng = np.random.default_rng(31)
        weights = rng.uniform(0.0, 1.0, size=8)
        for _ in range(50):
            fs = rng.standard_normal((3, 8))
            y = rng.standard_normal(8)
            d = lambda funcs: lp_function_metric(funcs, weights, 2.0)
            lhs = d(fs)
            rhs = sum(
                d([y if i == j else fs[j] for j in range(3)]) for i in range(3)
            )
            assert lhs <= rhs * (1 + 1e-9)

    def test_norm_of_an_overflowing_power_is_scaled_by_the_largest_value(self):
        # (1e200)^2 overflows a float power, which raises.
        assert MonotoneNorm(p=2.0)([1e200, 1.0]) == 1e200
        assert MonotoneNorm(p=3.0, weights=(1.0, 8.0))([1e200, -1e200]) == \
            pytest.approx(9.0 ** (1.0 / 3.0) * 1e200, rel=1e-15)
        # A call that does not overflow keeps the bits of the plain formula.
        assert MonotoneNorm(p=3.0)([1.5, 2.5]) == (1.5**3.0 + 2.5**3.0) ** (1.0 / 3.0)

    def test_lp_of_an_overflowing_power_is_scaled_by_the_largest_value(self):
        samples = [[0.0, 1e200], [1.0, -1e200]]  # grid values 1 and 2e200; (2e200)^2 raises
        assert lp_function_metric(samples, [1, 1], 2.0) == 2e200

    def test_lp_rejects_bad_p(self):
        with pytest.raises(ArgumentError):
            lp_function_metric([[0.0], [1.0]], [1.0], math.inf)

    def test_norm_infinity(self):
        norm = MonotoneNorm(p=math.inf, weights=(2.0, 1.0))
        assert norm((3.0, -5.0)) == 6.0
