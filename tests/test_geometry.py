"""Cyclic polygon inequalities, the equality family, and the tetrahedron."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from vandermetric import (
    ArgumentError,
    CyclicPolygon,
    equality_family,
    equality_gap_3,
    ngon_check,
    ptolemy_gap,
    quadrilateral_check,
    simplex_equality_ngon,
    tetrahedron_counterexample,
    triangle_check,
)
from vandermetric.core import LOG
from vandermetric.geometry import (
    ngon_constant,
    ngon_constant_inductive,
    tetrahedron_simplex_report,
    tetrahedron_vertices,
)


class TestCyclicPolygon:
    def test_regular_sides_equal(self):
        poly = CyclicPolygon.regular(6, R=2.0)
        sides = poly.side_lengths()
        assert np.allclose(sides, sides[0], rtol=1e-12)
        assert poly.is_equilateral()

    def test_angle_gaps_sum_to_two_pi(self):
        rng = np.random.default_rng(3)
        poly = CyclicPolygon.random(7, rng)
        assert math.isclose(float(np.sum(poly.angle_gaps())), 2 * math.pi, rel_tol=1e-12)

    def test_vertices_on_circle(self):
        poly = CyclicPolygon(R=1.5, angles=(0.1, 1.0, 2.0, 5.0), center=1 + 2j)
        for v in poly.vertices():
            assert math.isclose(abs(v - (1 + 2j)), 1.5, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            CyclicPolygon(R=0.0, angles=(0.0, 1.0, 2.0))
        with pytest.raises(ArgumentError):
            CyclicPolygon(R=1.0, angles=(0.0, 1.0))
        with pytest.raises(ArgumentError):
            CyclicPolygon(R=1.0, angles=(0.0, 2.0, 1.0))
        with pytest.raises(ArgumentError):
            CyclicPolygon(R=1.0, angles=(0.0, 1.0, 7.0))
        for kwargs in (dict(R=math.inf), dict(R=1.0, center=complex(math.nan, 0.0)),
                       dict(R=1.0, center=complex(0.0, -math.inf))):
            with pytest.raises(ArgumentError):
                CyclicPolygon(angles=(0.0, 2.0, 4.0), **kwargs)

    def test_perturbed_stays_valid(self):
        poly = CyclicPolygon.regular(5)
        pert = poly.perturbed([1e-3, -1e-3, 1e-3, -1e-3, 1e-3])
        assert pert.n == 5
        assert not pert.is_equilateral()


class TestTriangle:
    def test_equilateral_equality(self):
        report = triangle_check(CyclicPolygon.regular(3, R=1.7))
        assert report.passed
        assert report.flags["equality"]
        assert report.flags["equilateral"]

    def test_random_strict(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            poly = CyclicPolygon.random(3, rng, R=float(rng.uniform(0.5, 3.0)))
            report = triangle_check(poly)
            assert report.passed, report.to_json()

    def test_perturbed_strict(self):
        poly = CyclicPolygon.regular(3).perturbed([1e-3, 0.0, -1e-3])
        report = triangle_check(poly)
        assert report.passed and not report.flags["equality"]

    def test_wrong_size(self):
        with pytest.raises(ArgumentError):
            triangle_check(CyclicPolygon.regular(4))


class TestQuadrilateral:
    def test_square_equality(self):
        report = quadrilateral_check(CyclicPolygon.regular(4, R=2.0))
        assert report.passed and report.flags["equality"]

    def test_random_holds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            poly = CyclicPolygon.random(4, rng, R=float(rng.uniform(0.5, 3.0)))
            assert quadrilateral_check(poly).passed

    def test_ptolemy_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            poly = CyclicPolygon.random(4, rng, R=float(rng.uniform(0.5, 3.0)))
            report = ptolemy_gap(poly)
            assert report.passed, report.to_json()


class TestNgon:
    def test_constant_closed_form_vs_inductive(self):
        for n in range(4, 12):
            exact = ngon_constant_inductive(n, Fraction(2))
            assert ngon_constant(n, 2.0) == pytest.approx(float(exact), rel=1e-12)

    def test_regular_ngons_hold(self):
        for n in range(3, 11):
            report = ngon_check(CyclicPolygon.regular(n, R=1.3))
            assert report.passed, (n, report.to_json())

    def test_random_ngons_hold(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            poly = CyclicPolygon.random(n, rng, R=float(rng.uniform(0.5, 3.0)))
            assert ngon_check(poly).passed

    def test_log_domain_for_large_n(self):
        rng = np.random.default_rng(10)
        poly = CyclicPolygon.random(25, rng)
        report = ngon_check(poly)
        assert report.flags["log_domain"]
        assert report.passed

    def test_center_offset_irrelevant(self):
        poly = CyclicPolygon.regular(5, R=1.0, center=3 - 4j)
        assert ngon_check(poly).passed


class TestSimplexEqualityNgon:
    def test_regular_achieves_equality(self):
        for n in range(3, 11):
            report = simplex_equality_ngon(CyclicPolygon.regular(n, R=1.1))
            assert report.flags["equality"], (n, report.to_json())
            assert report.flags["equilateral"]

    def test_regular_16_gon_achieves_equality_in_the_log_domain(self):
        report = simplex_equality_ngon(CyclicPolygon.regular(16, R=1.2), tol=1e-10)
        assert report.domain == LOG and report.flags["log_domain"]
        assert report.flags["equality"] and report.flags["equilateral"]
        deltas = [1e-3 * (-1) ** k for k in range(16)]
        strict = simplex_equality_ngon(CyclicPolygon.regular(16, R=1.2).perturbed(deltas),
                                       tol=1e-10)
        assert strict.passed and not strict.flags["equality"] and strict.gap > 0.0

    def test_perturbation_breaks_equality(self):
        for n in range(3, 11):
            deltas = [1e-3 * (-1) ** k for k in range(n)]
            poly = CyclicPolygon.regular(n).perturbed(deltas)
            report = simplex_equality_ngon(poly)
            assert report.passed
            assert not report.flags["equality"], (n, report.to_json())
            assert report.gap > 0.0


class TestEqualityFamily:
    def test_third_roots_of_unity(self):
        fam = equality_family(1.0, 2.0)
        w = cmath.exp(2j * math.pi / 3)
        assert abs(fam.z1 - 1) < 1e-15
        assert abs(fam.z2 - w) < 1e-15
        assert abs(fam.z3 - w**2) < 1e-15

    def test_equality_across_parameters(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            q, s = np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=2))
            fam = equality_family(float(q), float(s))
            report = equality_gap_3(*fam.quadruple())
            assert report.flags["equality"], report.to_json()

    def test_generic_point_strict(self):
        report = equality_gap_3(0.5 + 0.5j, 1 + 0j, -1 + 1j, -1 - 2j)
        assert report.passed and report.flags["strict"]

    def test_invalid_parameters(self):
        with pytest.raises(ArgumentError):
            equality_family(-1.0, 2.0)
        with pytest.raises(ArgumentError):
            equality_family(1.0, 0.0)

    def test_non_finite_points_are_argument_errors(self):
        # sqrt((1 + s) / q) overflows: z3 = nan - inf i.
        with pytest.raises(ArgumentError, match="non-finite equality-family point"):
            equality_family(1e-300, 1e300)
        with pytest.raises(ArgumentError, match="non-finite input point"):
            equality_gap_3(0j, 1 + 0j, complex(math.nan, 1.0), -1 - 2j)
        with pytest.raises(ArgumentError, match="non-finite input point"):
            equality_gap_3(complex(0.0, math.inf), 1 + 0j, -1 + 1j, -1 - 2j)


class TestTetrahedron:
    def test_vertices_are_unit_and_equidistant(self):
        pts = tetrahedron_vertices()
        for p in pts:
            assert math.isclose(math.dist(p, (0, 0, 0)), 1.0, rel_tol=1e-14)
        target = math.sqrt(8.0 / 3.0)
        for j in range(4):
            for i in range(j + 1, 4):
                assert math.isclose(math.dist(pts[i], pts[j]), target, rel_tol=1e-14)

    def test_counterexample_reproduces(self):
        report = tetrahedron_counterexample()
        assert not report.simplex_holds
        assert not report.reduction_holds
        # exact squared comparison settles lhs > rhs in rational arithmetic
        assert report.exact_lhs_squared > report.exact_rhs_squared
        assert report.exact_lhs_squared == Fraction(8, 3) ** 6
        assert report.exact_rhs_squared == 16 * Fraction(8, 3) ** 3

    def test_root_metric_survives(self):
        report = tetrahedron_counterexample()
        assert report.root_holds
        assert report.root_lhs <= report.root_rhs

    def test_simplex_report_fails(self):
        report = tetrahedron_simplex_report()
        assert not report.passed
        assert report.lhs == pytest.approx((8.0 / 3.0) ** 3, rel=1e-12)
        assert report.rhs == pytest.approx(4.0 * (8.0 / 3.0) ** 1.5, rel=1e-12)
