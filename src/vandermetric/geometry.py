"""Cyclic polygons and the geometric consequences of the simplex inequality.

Covers the triangle inequality abc <= R^2(a+b+c), its quadrilateral and
general n-gon analogues, the equilateral equality characterization, the
two-parameter family of exact equality configurations for three points,
and the equilateral-tetrahedron counterexample showing that the plain
product of pairwise distances is not a 4-metric in dimension >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    IDENTITY,
    INEQUALITY,
    INEQUALITY_RTOL,
    LINEAR,
    LOG,
    MetricReport,
    _replacement_sides,
    pairwise_product_metric,
    pairwise_root_metric,
    vandermonde_metric,
    vandermonde_metric_log,
    verdict,
)
from .errors import ArgumentError

TWO_PI = 2.0 * math.pi

# Relative slack on angle gaps below which an n-gon counts as equilateral.
# Sits far above accumulated rounding and far below the 1e-3 perturbations
# used to probe strictness.
EQUILATERAL_RTOL = 1e-9

# n-gon inequality switches to log-domain comparison beyond this size.
_LOG_SWITCH_NGON = 20


@dataclass(frozen=True)
class CyclicPolygon:
    """Cyclic n-gon given by circumradius, sorted vertex angles, and center."""

    R: float
    angles: tuple[float, ...]
    center: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "center", complex(self.center))
        if not (self.R > 0.0):
            raise ArgumentError(f"circumradius must be positive, got {self.R}")
        if len(self.angles) < 3:
            raise ArgumentError("a polygon needs at least 3 vertices")
        for a in self.angles:
            if not (0.0 <= a < TWO_PI):
                raise ArgumentError(f"angle {a} outside [0, 2*pi)")
        for prev, cur in zip(self.angles, self.angles[1:]):
            if not (cur > prev):
                raise ArgumentError("angles must be strictly increasing (vertices distinct)")

    @property
    def n(self) -> int:
        return len(self.angles)

    def vertices(self) -> np.ndarray:
        return self.center + self.R * np.exp(1j * np.asarray(self.angles))

    def side_lengths(self) -> np.ndarray:
        z = self.vertices()
        return np.abs(np.roll(z, -1) - z)

    def angle_gaps(self) -> np.ndarray:
        a = np.asarray(self.angles)
        gaps = np.diff(a)
        return np.append(gaps, TWO_PI - a[-1] + a[0])

    def is_equilateral(self, rtol: float = EQUILATERAL_RTOL) -> bool:
        target = TWO_PI / self.n
        return bool(np.all(np.abs(self.angle_gaps() - target) <= rtol * target))

    @classmethod
    def regular(cls, n: int, R: float = 1.0, center: complex = 0j, phase: float = 0.0):
        angles = sorted((phase + TWO_PI * k / n) % TWO_PI for k in range(n))
        return cls(R=R, angles=tuple(angles), center=center)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, R: float = 1.0,
               center: complex = 0j, min_gap: float = 1e-6):
        while True:
            angles = np.sort(rng.uniform(0.0, TWO_PI, size=n))
            if np.min(np.diff(angles)) > min_gap:
                return cls(R=R, angles=tuple(angles), center=center)

    def perturbed(self, deltas) -> "CyclicPolygon":
        angles = sorted((a + d) % TWO_PI for a, d in zip(self.angles, deltas))
        return CyclicPolygon(R=self.R, angles=tuple(angles), center=self.center)


# ---------------------------------------------------------------------------
# Equality family for three points


@dataclass(frozen=True)
class EqualityFamilyPoint:
    """Normalized configuration (y, z1, z2, z3) achieving simplex equality.

    Parametrized by q, s > 0 with y = 0, z1 = 1,
    z2 = (-1 + i*sqrt(q(1+s)))/s and z3 = (-1 - i*sqrt((1+s)/q))/s.
    """

    q: float
    s: float
    y: complex
    z1: complex
    z2: complex
    z3: complex

    def quadruple(self) -> tuple[complex, complex, complex, complex]:
        return (self.y, self.z1, self.z2, self.z3)


def equality_family(q: float, s: float) -> EqualityFamilyPoint:
    if not (q > 0.0 and s > 0.0):
        raise ArgumentError(f"parameters must be positive, got q={q}, s={s}")
    z2 = complex(-1.0, math.sqrt(q * (1.0 + s))) / s
    z3 = complex(-1.0, -math.sqrt((1.0 + s) / q)) / s
    return EqualityFamilyPoint(q=q, s=s, y=0j, z1=1 + 0j, z2=z2, z3=z3)


def equality_gap_3(y: complex, z1: complex, z2: complex, z3: complex,
                   tol: float = 1e-10, seed=None) -> MetricReport:
    """Gap of the 3-point simplex inequality, with equality/strict flags."""
    y, z1, z2, z3 = complex(y), complex(z1), complex(z2), complex(z3)
    lhs, rhs = _replacement_sides([z1, z2, z3], y, lambda pts, _: vandermonde_metric(pts))
    report = MetricReport("equality_gap_3", {"y": y, "z": [z1, z2, z3]}, lhs, rhs, tol,
                          kind=INEQUALITY, domain=LINEAR, seed=seed)
    equality = _equality(lhs, rhs, tol)
    report.flags["equality"] = equality
    report.flags["strict"] = report.passed and not equality
    return report


def _equality(lhs, rhs, tol) -> bool:
    """Whether an inequality's two sides are equal to within tol."""
    return bool(verdict(IDENTITY, LINEAR, lhs, rhs, tol).passed)


# ---------------------------------------------------------------------------
# Polygon inequalities


def _polygon_report(operation, poly, inputs, lhs, rhs, tol) -> MetricReport:
    """Inequality report on a polygon, flagged with equality and equilateral."""
    return MetricReport(operation, {"R": poly.R, "angles": list(poly.angles), **inputs},
                        lhs, rhs, tol, kind=INEQUALITY, domain=LINEAR,
                        flags={"equality": _equality(lhs, rhs, tol),
                               "equilateral": poly.is_equilateral()})


def triangle_check(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """abc <= R^2 (a + b + c); equality exactly for equilateral triangles."""
    if poly.n != 3:
        raise ArgumentError(f"triangle_check needs n = 3, got {poly.n}")
    a, b, c = poly.side_lengths()
    lhs = a * b * c
    rhs = poly.R**2 * (a + b + c)
    return _polygon_report("triangle_check", poly, {"sides": [a, b, c]}, lhs, rhs, tol)


def quadrilateral_check(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """abcdef <= R^3 (abe + bcf + cde + adf) for a cyclic quadrilateral.

    Sides a, b, c, d are taken in vertex order; the diagonals are
    e = |z1 - z3| and f = |z2 - z4| with vertices in angle order.
    """
    if poly.n != 4:
        raise ArgumentError(f"quadrilateral_check needs n = 4, got {poly.n}")
    z = poly.vertices()
    a, b, c, d = poly.side_lengths()
    e = abs(z[2] - z[0])
    f = abs(z[3] - z[1])
    lhs = a * b * c * d * e * f
    rhs = poly.R**3 * (a * b * e + b * c * f + c * d * e + a * d * f)
    return _polygon_report("quadrilateral_check", poly,
                           {"sides": [a, b, c, d], "diagonals": [e, f]}, lhs, rhs, tol)


def ptolemy_gap(poly: CyclicPolygon, tol: float = 1e-10) -> MetricReport:
    """Sanity oracle for generated cyclic quadrilaterals: ef = ac + bd."""
    if poly.n != 4:
        raise ArgumentError(f"ptolemy_gap needs n = 4, got {poly.n}")
    z = poly.vertices()
    a, b, c, d = poly.side_lengths()
    e = abs(z[2] - z[0])
    f = abs(z[3] - z[1])
    lhs = e * f
    rhs = a * c + b * d
    return MetricReport("ptolemy_gap", {"R": poly.R, "angles": list(poly.angles)}, lhs, rhs,
                        tol, kind=IDENTITY, domain=LINEAR, flags={"identity": True})


def ngon_constant(n: int, R: float) -> float:
    """(n-2)! R^((n+1)(n-2)/2), the constant in the general n-gon inequality."""
    return math.factorial(n - 2) * R ** ((n + 1) * (n - 2) / 2.0)


def ngon_constant_inductive(n: int, R: Fraction) -> Fraction:
    """Same constant assembled from the induction step, in exact arithmetic.

    (n-2) * (n-3)! * R^(n-1) * R^(n(n-3)/2) for integer or rational R.
    """
    if n < 4:
        raise ArgumentError("inductive form needs n >= 4")
    expo = (n - 1) + n * (n - 3) // 2
    return (n - 2) * math.factorial(n - 3) * Fraction(R) ** expo


def ngon_check(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """prod_{j<i} |z_i - z_j| <= (n-2)! R^((n+1)(n-2)/2) sum_{j<i} |z_i - z_j|."""
    n = poly.n
    z = [complex(v) for v in poly.vertices()]
    pair_sum = 0.0
    for j in range(n):
        for i in range(j + 1, n):
            pair_sum += abs(z[i] - z[j])
    if n > _LOG_SWITCH_NGON:
        domain = LOG
        lhs = vandermonde_metric_log(z)
        rhs = (
            math.lgamma(n - 1)
            + ((n + 1) * (n - 2) / 2.0) * math.log(poly.R)
            + math.log(pair_sum)
        )
    else:
        domain = LINEAR
        lhs = vandermonde_metric(z)
        rhs = ngon_constant(n, poly.R) * pair_sum
    return MetricReport("ngon_check", {"R": poly.R, "angles": list(poly.angles), "n": n},
                        lhs, rhs, tol, kind=INEQUALITY, domain=domain,
                        flags={"log_domain": domain == LOG})


def simplex_equality_ngon(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """Simplex gap with y at the circumcenter; equality iff equilateral."""
    z = [complex(v) for v in poly.vertices()]
    y = poly.center
    lhs, rhs = _replacement_sides(z, y, lambda pts, _: vandermonde_metric(pts))
    return _polygon_report("simplex_equality_ngon", poly, {"center": y}, lhs, rhs, tol)


# ---------------------------------------------------------------------------
# Tetrahedron counterexample


@dataclass(frozen=True)
class TetrahedronReport:
    """Equilateral tetrahedron on the unit sphere breaking the simplex inequality
    for the plain product of pairwise distances (n = 4, dimension 3)."""

    points: tuple
    lhs: float
    rhs: float
    simplex_holds: bool
    exact_lhs_squared: Fraction
    exact_rhs_squared: Fraction
    reduction_holds: bool
    root_lhs: float
    root_rhs: float
    root_holds: bool
    max_norm_error: float
    max_distance_error: float

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "simplex_holds": self.simplex_holds,
            "exact_lhs_squared": str(self.exact_lhs_squared),
            "exact_rhs_squared": str(self.exact_rhs_squared),
            "reduction_holds": self.reduction_holds,
            "root_lhs": self.root_lhs,
            "root_rhs": self.root_rhs,
            "root_holds": self.root_holds,
        }


_ORIGIN = (0.0, 0.0, 0.0)


def tetrahedron_vertices() -> tuple:
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    return (
        (1.0, 0.0, 0.0),
        (-1.0 / 3.0, 2.0 * s2 / 3.0, 0.0),
        (-1.0 / 3.0, -s2 / 3.0, s6 / 3.0),
        (-1.0 / 3.0, -s2 / 3.0, -s6 / 3.0),
    )


def tetrahedron_counterexample() -> TetrahedronReport:
    """Four unit vectors with all pairwise distances sqrt(8/3).

    The simplex inequality with y = 0 for the full pairwise product would
    require (8/3)^3 <= 4 (8/3)^(3/2), i.e. 2^5 <= 3^3, which is false.  The
    exact squared sides 512^2/27^2 > 16 * 512/27 settle this in rational
    arithmetic.  The degree-1 root metric (power 1/6) survives the same
    configuration.
    """
    pts = tetrahedron_vertices()
    norm_err = max(abs(math.dist(p, _ORIGIN) - 1.0) for p in pts)
    target = math.sqrt(8.0 / 3.0)
    dist_err = max(
        abs(math.dist(pts[i], pts[j]) - target)
        for j in range(4)
        for i in range(j + 1, 4)
    )
    lhs = (8.0 / 3.0) ** 3
    rhs = 4.0 * (8.0 / 3.0) ** 1.5
    # lhs <= rhs  <=>  lhs^2 <= rhs^2  <=>  (8/3)^6 <= 16 (8/3)^3  <=>  2^5 <= 3^3
    exact_lhs_sq = Fraction(8, 3) ** 6
    exact_rhs_sq = 16 * Fraction(8, 3) ** 3
    root_lhs, root_rhs = _replacement_sides(pts, _ORIGIN, lambda x, _: pairwise_root_metric(x))
    return TetrahedronReport(
        points=pts,
        lhs=lhs,
        rhs=rhs,
        simplex_holds=bool(lhs <= rhs),
        exact_lhs_squared=exact_lhs_sq,
        exact_rhs_squared=exact_rhs_sq,
        reduction_holds=bool(2**5 <= 3**3 and exact_lhs_sq <= exact_rhs_sq),
        root_lhs=root_lhs,
        root_rhs=root_rhs,
        root_holds=bool(root_lhs <= root_rhs * (1 + 1e-12)),
        max_norm_error=norm_err,
        max_distance_error=dist_err,
    )


def tetrahedron_simplex_report(tol: float = INEQUALITY_RTOL) -> MetricReport:
    """The failing simplex check itself, as a standard report."""
    pts = tetrahedron_vertices()
    lhs, rhs = _replacement_sides(pts, _ORIGIN, lambda x, _: pairwise_product_metric(x))
    return MetricReport(
        "tetrahedron_simplex",
        {"points": [list(p) for p in pts], "y": list(_ORIGIN), "metric": "pairwise"},
        lhs, rhs, tol, kind=INEQUALITY, domain=LINEAR,
    )
