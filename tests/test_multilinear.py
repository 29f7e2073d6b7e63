"""Symmetric multilinear map, expansion oracle, identities, definiteness."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from vandermetric import (
    ArgumentError,
    MultilinearMapSpec,
    ResourceError,
    counterexample_4_4,
    counterexample_4_4_report,
    definiteness_decide,
    generalized_metric,
    permutation_expansion,
    product_difference_form,
    sum_identity_gap,
    vandermonde_metric,
    w_identity_gap,
    w_norm_inequality,
)
from vandermetric.core import INEQUALITY_RTOL, LINEAR, replacement_sides, simplex_gap
from vandermetric.multilinear import ordered_pairs, permutation_sign


def random_points(rng, n, m):
    return [tuple(v) for v in rng.uniform(-1.0, 1.0, size=(n, m))]


def int_points(rng, n, m, bound=3):
    return [tuple(int(c) for c in v)
            for v in rng.integers(-bound, bound + 1, size=(n, m))]


class TestCombinatorics:
    def test_ordered_pairs(self):
        assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 2)]
        assert len(ordered_pairs(6)) == 15

    def test_permutation_sign(self):
        assert permutation_sign((0, 1, 2)) == 1
        assert permutation_sign((1, 0, 2)) == -1
        assert permutation_sign((2, 0, 1)) == 1
        # sign is multiplicative under composition with a transposition
        for perm in itertools.permutations(range(4)):
            swapped = (perm[1], perm[0]) + perm[2:]
            assert permutation_sign(perm) == -permutation_sign(swapped)


class TestMapSpec:
    def test_arity_and_output_dim(self):
        spec = MultilinearMapSpec(n=4, m=3)
        assert spec.arity == 6
        assert spec.output_dim == 6

    def test_validation(self):
        with pytest.raises(ArgumentError):
            MultilinearMapSpec(n=1, m=3)
        with pytest.raises(ArgumentError):
            MultilinearMapSpec(n=3, m=1)
        with pytest.raises(ArgumentError):
            MultilinearMapSpec(n=3, m=3, extra=-1)

    def test_wrong_argument_count(self):
        spec = MultilinearMapSpec(n=3, m=2)
        with pytest.raises(ArgumentError):
            spec.apply([(1.0, 2.0)] * 2)

    def test_argument_order_bit_identical(self):
        rng = np.random.default_rng(41)
        spec = MultilinearMapSpec(n=4, m=3)
        args = random_points(rng, spec.arity, 3)
        base = spec.apply(args)
        for _ in range(10):
            perm = rng.permutation(spec.arity)
            assert np.array_equal(spec.apply([args[i] for i in perm]), base)

    def test_multilinearity_in_one_slot(self):
        rng = np.random.default_rng(42)
        spec = MultilinearMapSpec(n=3, m=3)
        args = random_points(rng, spec.arity, 3)
        u = tuple(rng.uniform(-1, 1, size=3))
        v = tuple(rng.uniform(-1, 1, size=3))
        a, b = 0.7, -1.3
        combo = tuple(a * ui + b * vi for ui, vi in zip(u, v))
        lhs = spec.apply([combo] + args[1:])
        rhs = a * spec.apply([u] + args[1:]) + b * spec.apply([v] + args[1:])
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_exact_matches_float_on_ints(self):
        rng = np.random.default_rng(43)
        spec = MultilinearMapSpec(n=3, m=4)
        args = int_points(rng, spec.arity, 4)
        exact = spec.apply(args)
        approx = spec.apply([tuple(float(c) for c in x) for x in args])
        assert [float(v) for v in exact] == list(approx)


def _apply_differences(spec, pts, y):
    return spec.apply([tuple(p[c] - q[c] for c in range(spec.m))
                       for q, p in itertools.combinations(pts, 2)])


_SCALAR_FORMS = {
    "apply": _apply_differences,
    "product_difference_form": lambda spec, pts, y: product_difference_form(spec, pts),
    "permutation_expansion": lambda spec, pts, y: permutation_expansion(spec, pts),
    "sum_identity_gap": sum_identity_gap,
    "w_identity_gap": lambda spec, pts, y: w_identity_gap(spec, pts, y, spec.extra + 1),
}


def _flat(value):
    return list(np.atleast_1d(np.asarray(value, dtype=object)))


class TestFloatVsExact:
    """Each scalar function folds the numbers it is given: exact in, exact out."""

    @pytest.mark.parametrize("name", sorted(_SCALAR_FORMS))
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 2)])
    def test_fraction_input_is_exact(self, name, n, m):
        rng = np.random.default_rng(54)
        spec = MultilinearMapSpec(n=n, m=m, extra=n - 1 if name == "w_identity_gap" else 0)
        pts = [tuple(Fraction(int(c), 7) for c in row)
               for row in rng.integers(-9, 10, size=(n, m))]
        y = tuple(Fraction(int(c), 5) for c in rng.integers(-9, 10, size=m))
        values = _flat(_SCALAR_FORMS[name](spec, pts, y))
        assert all(isinstance(v, Fraction) for v in values)
        if name.endswith("_gap"):
            assert values == [0]

    @pytest.mark.parametrize("name", sorted(_SCALAR_FORMS))
    def test_int_input_as_float_equals_float_path(self, name):
        rng = np.random.default_rng(55)
        spec = MultilinearMapSpec(n=4, m=3, extra=1 if name == "w_identity_gap" else 0)
        pts = int_points(rng, 4, 3)
        y = tuple(int(c) for c in rng.integers(-3, 4, size=3))
        exact = _flat(_SCALAR_FORMS[name](spec, pts, y))
        floats = _flat(_SCALAR_FORMS[name](spec, [tuple(map(float, p)) for p in pts],
                                           tuple(map(float, y))))
        assert all(isinstance(v, int) for v in exact)
        assert [float(v) for v in exact] == floats


class TestExpansionOracle:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 3), (5, 2), (4, 4)])
    def test_expansion_equals_product_form(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        spec = MultilinearMapSpec(n=n, m=m)
        for _ in range(20):
            pts = random_points(rng, n, m)
            lhs = permutation_expansion(spec, pts)
            rhs = product_difference_form(spec, pts)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_exact_integer_gap_is_zero(self):
        rng = np.random.default_rng(44)
        for n, m in [(2, 2), (3, 3), (4, 3), (5, 3)]:
            spec = MultilinearMapSpec(n=n, m=m)
            for _ in range(10):
                pts = int_points(rng, n, m)
                lhs = permutation_expansion(spec, pts)
                rhs = product_difference_form(spec, pts)
                assert lhs.dtype == rhs.dtype == object
                assert lhs.tolist() == rhs.tolist()

    def test_size_limit(self):
        spec = MultilinearMapSpec(n=9, m=2)
        pts = [(float(k), 1.0) for k in range(9)]
        with pytest.raises(ResourceError):
            permutation_expansion(spec, pts)


class TestReplacementIdentities:
    def test_sum_identity_float(self):
        rng = np.random.default_rng(45)
        for n, m in [(3, 3), (4, 3), (3, 4)]:
            spec = MultilinearMapSpec(n=n, m=m)
            for _ in range(50):
                pts = random_points(rng, n, m)
                y = tuple(rng.uniform(-1, 1, size=m))
                assert sum_identity_gap(spec, pts, y) <= 1e-12

    def test_sum_identity_exact(self):
        rng = np.random.default_rng(46)
        spec = MultilinearMapSpec(n=4, m=3)
        for _ in range(20):
            pts = int_points(rng, 4, 3)
            y = tuple(int(c) for c in rng.integers(-3, 4, size=3))
            assert sum_identity_gap(spec, pts, y) == 0

    def test_w_identity_all_q(self):
        rng = np.random.default_rng(47)
        for n, m in [(3, 3), (4, 3)]:
            for q in range(1, n + 1):
                spec = MultilinearMapSpec(n=n, m=m, extra=q - 1)
                for _ in range(20):
                    pts = random_points(rng, n, m)
                    y = tuple(rng.uniform(-1, 1, size=m))
                    assert w_identity_gap(spec, pts, y, q) <= 1e-12
                    ipts = int_points(rng, n, m)
                    iy = tuple(int(c) for c in rng.integers(-3, 4, size=m))
                    assert w_identity_gap(spec, ipts, iy, q) == 0

    def test_w_identity_q_one_matches_sum_identity(self):
        rng = np.random.default_rng(48)
        spec = MultilinearMapSpec(n=3, m=3)
        pts = random_points(rng, 3, 3)
        y = tuple(rng.uniform(-1, 1, size=3))
        assert abs(w_identity_gap(spec, pts, y, 1) - sum_identity_gap(spec, pts, y)) <= 1e-15

    def test_w_norm_inequality(self):
        rng = np.random.default_rng(49)
        for q in (1, 2, 3):
            spec = MultilinearMapSpec(n=3, m=3, extra=q - 1)
            for _ in range(50):
                pts = random_points(rng, 3, 3)
                y = tuple(rng.uniform(-1, 1, size=3))
                assert w_norm_inequality(spec, pts, y, q).passed

    def test_w_norm_inequality_uses_the_inequality_tolerance(self):
        spec = MultilinearMapSpec(n=3, m=3)
        pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        report = w_norm_inequality(spec, pts, (0.5, -0.5, 0.25), 1)
        assert report.tolerance == INEQUALITY_RTOL == simplex_gap([0, 1, 2], 1j).tolerance

    def test_q_validation(self):
        spec = MultilinearMapSpec(n=3, m=3)
        pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        y = (0.0, 0.0, 0.0)
        with pytest.raises(ArgumentError):
            w_identity_gap(spec, pts, y, 4)
        with pytest.raises(ArgumentError):
            w_identity_gap(spec, pts, y, 2)  # spec.extra != q - 1

    @pytest.mark.parametrize("check", [w_identity_gap, w_norm_inequality])
    def test_q_above_n_rejected(self, check):
        # q = 4 > n = 3 with a matching spec.extra: no valid identity to check.
        rng = np.random.default_rng(53)
        spec = MultilinearMapSpec(n=3, m=3, extra=3)
        with pytest.raises(ArgumentError):
            check(spec, random_points(rng, 3, 3), (0.5, -0.5, 0.25), 4)

    @pytest.mark.parametrize("y,message", [
        ((2,), "y of dimension 1, expected 2"), ((1.0, 2.0, 3.0), "y of dimension 3, expected 2"),
        (2, "y must be a sequence of finite real numbers"),
        (("a", "b"), "y must be a sequence of finite real numbers"),
        ((math.nan, 0.0), "y must be a sequence of finite real numbers"),
    ])
    @pytest.mark.parametrize("check,extra,q", [
        (lambda spec, pts, y, q: sum_identity_gap(spec, pts, y), 0, 1),
        (w_identity_gap, 0, 1), (w_identity_gap, 1, 2),
        (w_norm_inequality, 0, 1), (w_norm_inequality, 1, 2),
    ])
    def test_a_malformed_replacement_point_is_rejected(self, check, extra, q, y, message):
        spec = MultilinearMapSpec(n=2, m=2, extra=extra)
        with pytest.raises(ArgumentError, match=message):
            check(spec, [(0, 0), (1, 1)], y, q)

    @pytest.mark.parametrize("points,message", [
        ([(math.nan, 0.0), (1.0, 1.0)], r"got \(nan, 0.0\)"),
        ([(math.inf, 0.0), (1.0, 1.0)], r"got \(inf, 0.0\)"),
        ([("a", "b"), (1, 1)], r"got \('a', 'b'\)"),
        ([(0, 0), 5], "got 5"),
    ])
    @pytest.mark.parametrize("check", [
        product_difference_form, permutation_expansion,
        lambda spec, pts: sum_identity_gap(spec, pts, (0.5, 0.25)),
        lambda spec, pts: w_identity_gap(spec, pts, (0.5, 0.25), 1),
        lambda spec, pts: w_norm_inequality(spec, pts, (0.5, 0.25), 1),
    ])
    def test_a_malformed_point_is_rejected(self, check, points, message):
        with pytest.raises(ArgumentError,
                           match="each point must be a sequence of finite real numbers, " + message):
            check(MultilinearMapSpec(n=2, m=2), points)

    def test_int_and_fraction_points_stay_exact(self):
        spec = MultilinearMapSpec(n=2, m=2)
        points = [(Fraction(1, 3), 0), (1, 2)]
        assert product_difference_form(spec, points).tolist() == [Fraction(2, 3), 2]
        assert w_identity_gap(spec, points, (Fraction(1, 2), 5), 1) == 0


class TestGeneralizedMetric:
    def test_m2_reduction_to_complex(self):
        rng = np.random.default_rng(50)
        for n in (3, 4):
            spec = MultilinearMapSpec(n=n, m=2)
            for _ in range(100):
                pts = random_points(rng, n, 2)
                z = [complex(*p) for p in pts]
                a = generalized_metric(spec, pts)
                b = vandermonde_metric(z)
                assert abs(a - b) <= 1e-12 * max(a, b, 1.0)

    def test_permutation_invariance_bit_identical(self):
        rng = np.random.default_rng(51)
        spec = MultilinearMapSpec(n=4, m=3)
        pts = random_points(rng, 4, 3)
        base = generalized_metric(spec, pts)
        for _ in range(10):
            perm = rng.permutation(4)
            assert generalized_metric(spec, [pts[i] for i in perm]) == base

    def test_simplex_inequality(self):
        rng = np.random.default_rng(52)
        spec = MultilinearMapSpec(n=3, m=4)
        for _ in range(200):
            pts = random_points(rng, 3, 4)
            y = tuple(rng.uniform(-1, 1, size=4))
            lhs = generalized_metric(spec, pts)
            rhs = sum(
                generalized_metric(spec, pts[:i] + [y] + pts[i + 1:])
                for i in range(3)
            )
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("m", range(2, 7))
    def test_norm_of_the_per_plane_metrics(self, m):
        """The metric is the l2 norm over the planes (s, t) of d_V of x[s] + i x[t].

        So is the left side of the one replacement evaluator.
        """
        rng = np.random.default_rng(60 + m)
        for n in range(2, 7):
            spec = MultilinearMapSpec(n=n, m=m)
            x, y = rng.standard_normal((20, n, m)), rng.standard_normal((20, m))
            (lhs,), _, domain = replacement_sides(x, y, "generalized")
            assert domain == LINEAR
            for row, got in zip(x, lhs.tolist()):
                want = generalized_metric(spec, [tuple(p) for p in row])
                planes = math.hypot(*(vandermonde_metric([complex(p[s], p[t]) for p in row])
                                      for s, t in ordered_pairs(m)))
                assert abs(planes - want) <= 1e-13 * want
                assert abs(got - want) <= 1e-13 * want

    def test_zero_on_repeated_point(self):
        spec = MultilinearMapSpec(n=3, m=3)
        p = (1.0, 2.0, 3.0)
        assert generalized_metric(spec, [p, p, (0.0, 0.0, 1.0)]) == 0.0


class TestDefiniteness:
    def test_four_four_counterexample_structure(self):
        report = counterexample_4_4_report()
        assert report["pairwise_distinct"]
        assert report["structurally_zero"]
        assert report["metric_value"] == 0.0
        assert all(v == 0 for v in report["metric_components"])

    def test_counterexample_points_are_distinct(self):
        pts = counterexample_4_4()
        assert len(set(pts)) == 4

    def test_small_cases_definite(self):
        for n, m in [(3, 3), (3, 4)]:
            verdict = definiteness_decide(n, m)
            assert verdict.verdict == "definite"
            assert verdict.assignments_tried == len(ordered_pairs(n)) ** len(ordered_pairs(m))

    def test_four_four_found(self):
        verdict = definiteness_decide(4, 4)
        assert verdict.verdict == "counterexample"
        assert verdict.witness is not None
        # the witness annihilates the metric while staying pairwise distinct
        spec = MultilinearMapSpec(n=4, m=4)
        assert all(v == 0 for v in product_difference_form(spec, verdict.witness))
        assert len(set(verdict.witness)) == 4

    def test_budget_exhaustion(self):
        verdict = definiteness_decide(3, 5, budget=100)
        assert verdict.verdict == "exhausted"
        assert verdict.assignments_tried == 100

    def test_validation(self):
        with pytest.raises(ArgumentError):
            definiteness_decide(2, 3)
        with pytest.raises(ArgumentError):
            definiteness_decide(3, 1)

    @pytest.mark.parametrize("budget", [0, -4])
    def test_empty_budget_is_rejected(self, budget):
        with pytest.raises(ArgumentError, match="budget must be >= 1"):
            definiteness_decide(3, 5, budget=budget)

    def test_verdict_serialization(self):
        d = definiteness_decide(4, 4).to_dict()
        assert d["verdict"] == "counterexample"
        assert all(len(entry["tau"]) == 2 for entry in d["assignment"])
