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
from typing import NamedTuple

import numpy as np

from .core import (
    BOUND,
    IDENTITY,
    IDENTITY_RTOL,
    INEQUALITY,
    INEQUALITY_RTOL,
    LINEAR,
    LOG,
    POLYGON_CHECK_NAMES,
    MetricReport,
    _abs,
    _by_rows,
    _finite,
    _pair_indices,
    _pair_rows,
    _replacement_report,
    _row_sums,
    replacement_sides,
    scalar_map,
    scalar_powers,
    simplex_gap,
    vandermonde_log_rows,
    vandermonde_rows,
    verdict,
)
from .core import vandermonde_metric  # noqa: F401  (bench/spans.py traces it under this module)
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
        if not (0.0 < self.R < math.inf):
            raise ArgumentError(f"circumradius must be positive and finite, got {self.R}")
        _finite(self.center, "center")
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
        return _vertices(np.array([self.angles]), np.array([self.R]), self.center)[0]

    def side_lengths(self) -> np.ndarray:
        return _side_lengths(self.vertices()[None])[0]

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
        angles = random_sorted_angles(rng, 1, n, min_gap)[0]
        return cls(R=R, angles=tuple(angles), center=center)

    def perturbed(self, deltas) -> "CyclicPolygon":
        angles = sorted((a + d) % TWO_PI for a, d in zip(self.angles, deltas))
        return CyclicPolygon(R=self.R, angles=tuple(angles), center=self.center)


def random_sorted_angles(rng: np.random.Generator, b: int, n: int,
                         min_gap: float = 1e-6) -> np.ndarray:
    """(b, n) uniform vertex angles, sorted by row; a row with two angles
    within min_gap of each other is drawn again (fewer than 2 have none)."""
    angles = np.sort(rng.uniform(0.0, TWO_PI, size=(b, n)), axis=1)
    while True:
        gaps = np.min(np.diff(angles, axis=1), axis=1, initial=math.inf)
        bad = np.flatnonzero(gaps <= min_gap)
        if len(bad) == 0:
            return angles
        angles[bad] = np.sort(rng.uniform(0.0, TWO_PI, size=(len(bad), n)), axis=1)


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
    _finite((z2, z3), f"equality-family point at q={q}, s={s}")
    return EqualityFamilyPoint(q=q, s=s, y=0j, z1=1 + 0j, z2=z2, z3=z3)


def equality_gap_3(y: complex, z1: complex, z2: complex, z3: complex,
                   tol: float = IDENTITY_RTOL) -> MetricReport:
    """Gap of the 3-point simplex inequality, with equality/strict flags."""
    y, z1, z2, z3 = _finite((complex(y), complex(z1), complex(z2), complex(z3)), "input point")
    report = _replacement_report("equality_gap_3", {"y": y, "z": [z1, z2, z3]},
                                 (z1, z2, z3), y, "vandermonde", 0, tol)
    equality = _equality(report.lhs, report.rhs, tol, report.domain)
    report.flags["equality"] = equality
    report.flags["strict"] = report.passed and not equality
    return report


def _equality(lhs, rhs, tol, domain=LINEAR) -> bool:
    """Whether an inequality's two sides are equal to within tol."""
    return bool(verdict(IDENTITY, domain, lhs, rhs, tol).passed)


# ---------------------------------------------------------------------------
# Polygon inequalities
#
# Each check is a kernel over B polygons given as a (B, n) array of sorted
# vertex angles and (B,) circumradii around one center; the scalar checks
# are B = 1 calls into it.

PTOLEMY_RTOL = IDENTITY_RTOL


class PolygonSides(NamedTuple):
    """Both sides of a polygon check, one row per polygon."""

    lhs: np.ndarray
    rhs: np.ndarray
    domain: str = LINEAR
    log_rows: np.ndarray | None = None  # linear rows whose metric was evaluated in logs
    lengths: dict | None = None  # side and diagonal lengths listed by the scalar report


def _vertices(angles, radii, center):
    return center + radii[:, None] * np.exp(1j * angles)


# Sides use numpy's complex abs and diagonals hypot (Python's abs), as the
# per-polygon formulas always did: the two round differently.
def _side_lengths(z):
    return np.abs(np.roll(z, -1, axis=1) - z)


def _diagonal(z, a, b):
    d = z[:, b] - z[:, a]
    return np.hypot(d.real, d.imag)


def triangle_sides(angles, radii, center=0j) -> PolygonSides:
    """abc and R^2 (a + b + c) for each triangle."""
    s = _side_lengths(_vertices(angles, radii, center))
    a, b, c = s.T
    return PolygonSides(a * b * c, scalar_powers(radii, 2) * (a + b + c), lengths={"sides": s})


def quadrilateral_sides(angles, radii, center=0j) -> PolygonSides:
    """abcdef and R^3 (abe + bcf + cde + adf) for each cyclic quadrilateral."""
    z = _vertices(angles, radii, center)
    s = _side_lengths(z)
    a, b, c, d = s.T
    e, f = _diagonal(z, 0, 2), _diagonal(z, 1, 3)
    rhs = scalar_powers(radii, 3) * (a * b * e + b * c * f + c * d * e + a * d * f)
    return PolygonSides(a * b * c * d * e * f, rhs,
                        lengths={"sides": s, "diagonals": np.stack([e, f], axis=1)})


def ptolemy_sides(angles, radii, center=0j) -> PolygonSides:
    """ef and ac + bd for each cyclic quadrilateral."""
    z = _vertices(angles, radii, center)
    a, b, c, d = _side_lengths(z).T
    return PolygonSides(_diagonal(z, 0, 2) * _diagonal(z, 1, 3), a * c + b * d)


def ngon_sides(angles, radii, center=0j) -> PolygonSides:
    """prod |z_i - z_j| and (n-2)! R^((n+1)(n-2)/2) sum |z_i - z_j| for each n-gon.

    Beyond n = 20 both sides are logarithms.  The pair sum runs over the
    vertices in angle order.
    """
    n = angles.shape[1]
    z = _vertices(angles, radii, center)
    j, i = _pair_indices(n)
    pair_sum, = _by_rows(lambda z: (_row_sums(_abs(z[:, i] - z[:, j])),), _pair_rows(z), z)
    if n > _LOG_SWITCH_NGON:
        rhs = (math.lgamma(n - 1) + ((n + 1) * (n - 2) / 2.0) * scalar_map(math.log, radii)
               + scalar_map(math.log, pair_sum))
        return PolygonSides(vandermonde_log_rows(z), rhs, LOG)
    lhs, log_rows = vandermonde_rows(z)
    constant = scalar_map(lambda r: ngon_constant(n, r), radii)
    with np.errstate(over="ignore"):  # an infinite side fails the verdict
        rhs = constant * pair_sum
    return PolygonSides(lhs, rhs, log_rows=log_rows)


def simplex_equality_sides(angles, radii, center=0j) -> PolygonSides:
    """Simplex sides with y at the circumcenter for each polygon (core.replacement_sides).

    Up to n = 12 they are the lockstep fold of the campaigns; beyond n = 12,
    or when a side overflows, both sides of every row are logarithms.
    """
    z = _vertices(angles, radii, center)
    (lhs,), (rhs,), domain = replacement_sides(z, np.full(len(z), center, dtype=complex),
                                               "vandermonde")
    return PolygonSides(lhs, rhs, domain)


def _one(poly: CyclicPolygon, kernel) -> PolygonSides:
    """The kernel on the single polygon poly."""
    return kernel(np.array([poly.angles]), np.array([poly.R]), poly.center)


def _lengths(sides: PolygonSides) -> dict:
    """The side and diagonal lengths of a single-polygon kernel result, as lists."""
    return {key: list(value[0]) for key, value in sides.lengths.items()}


def _polygon_report(operation, poly, inputs, lhs, rhs, tol, domain=LINEAR) -> MetricReport:
    """Inequality report on a polygon, flagged with equality and equilateral.

    A log-domain report is also flagged log_domain.
    """
    lhs, rhs = float(lhs), float(rhs)
    flags = {"equality": _equality(lhs, rhs, tol, domain), "equilateral": poly.is_equilateral()}
    if domain == LOG:
        flags["log_domain"] = True
    return MetricReport(operation, {"R": poly.R, "angles": list(poly.angles), **inputs},
                        lhs, rhs, tol, kind=INEQUALITY, domain=domain, flags=flags)


def _check_size(name, poly, n):
    if poly.n != n:
        raise ArgumentError(f"{name} needs n = {n}, got {poly.n}")


def triangle_check(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """abc <= R^2 (a + b + c); equality exactly for equilateral triangles."""
    _check_size("triangle_check", poly, 3)
    s = _one(poly, triangle_sides)
    return _polygon_report("triangle_check", poly, _lengths(s), s.lhs[0], s.rhs[0], tol)


def quadrilateral_check(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """abcdef <= R^3 (abe + bcf + cde + adf) for a cyclic quadrilateral.

    Sides a, b, c, d are taken in vertex order; the diagonals are
    e = |z1 - z3| and f = |z2 - z4| with vertices in angle order.
    """
    _check_size("quadrilateral_check", poly, 4)
    s = _one(poly, quadrilateral_sides)
    return _polygon_report("quadrilateral_check", poly, _lengths(s), s.lhs[0], s.rhs[0], tol)


def ptolemy_gap(poly: CyclicPolygon, tol: float = PTOLEMY_RTOL) -> MetricReport:
    """Sanity oracle for generated cyclic quadrilaterals: ef = ac + bd."""
    _check_size("ptolemy_gap", poly, 4)
    s = _one(poly, ptolemy_sides)
    return MetricReport("ptolemy_gap", {"R": poly.R, "angles": list(poly.angles)},
                        float(s.lhs[0]), float(s.rhs[0]), tol, kind=IDENTITY, domain=LINEAR,
                        flags={"identity": True})


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
    s = _one(poly, ngon_sides)
    return MetricReport("ngon_check", {"R": poly.R, "angles": list(poly.angles), "n": poly.n},
                        float(s.lhs[0]), float(s.rhs[0]), tol, kind=INEQUALITY,
                        domain=s.domain, flags={"log_domain": s.domain == LOG})


def simplex_equality_ngon(poly: CyclicPolygon, tol: float = INEQUALITY_RTOL) -> MetricReport:
    """Simplex gap with y at the circumcenter; equality iff equilateral."""
    s = _one(poly, simplex_equality_sides)
    return _polygon_report("simplex_equality_ngon", poly, {"center": poly.center},
                           s.lhs[0], s.rhs[0], tol, s.domain)


class PolygonCheck(NamedTuple):
    """One polygon check: its kernel over B polygons and its scalar check on one."""

    size: int | None  # vertex count; None: any n >= 3
    kernel: object
    kind: str
    check: object


# Polygon checks by campaign and `polygon --check` name.
POLYGON_CHECKS = dict(zip(POLYGON_CHECK_NAMES, (
    PolygonCheck(3, triangle_sides, INEQUALITY, triangle_check),
    PolygonCheck(4, quadrilateral_sides, INEQUALITY, quadrilateral_check),
    PolygonCheck(4, ptolemy_sides, IDENTITY, ptolemy_gap),
    PolygonCheck(None, ngon_sides, INEQUALITY, ngon_check),
    PolygonCheck(None, simplex_equality_sides, INEQUALITY, simplex_equality_ngon),
), strict=True))


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
    root = simplex_gap(pts, _ORIGIN, metric="pairwise_root")
    return TetrahedronReport(
        points=pts,
        lhs=lhs,
        rhs=rhs,
        simplex_holds=bool(verdict(INEQUALITY, LINEAR, lhs, rhs, 0.0).passed),
        exact_lhs_squared=exact_lhs_sq,
        exact_rhs_squared=exact_rhs_sq,
        reduction_holds=bool(2**5 <= 3**3 and exact_lhs_sq <= exact_rhs_sq),
        root_lhs=root.lhs,
        root_rhs=root.rhs,
        root_holds=bool(verdict(BOUND, LINEAR, root.lhs, root.rhs, 1e-12).passed),
        max_norm_error=norm_err,
        max_distance_error=dist_err,
    )


def tetrahedron_simplex_report(tol: float = INEQUALITY_RTOL) -> MetricReport:
    """The failing simplex check itself, as a standard report."""
    pts = tetrahedron_vertices()
    return _replacement_report(
        "tetrahedron_simplex",
        {"points": [list(p) for p in pts], "y": list(_ORIGIN), "metric": "pairwise"},
        pts, _ORIGIN, "pairwise", 0, tol,
    )
