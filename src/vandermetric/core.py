"""Vandermonde n-metrics over the complex plane and Euclidean spaces.

The basic quantity is the product of all pairwise distances of an ordered
point tuple.  This module provides that metric, its overflow-safe log-domain
form, the degree-1 root metric, the Cramer/Lagrange coefficient machinery
behind the simplex inequality, the Euclidean 3-metric, and the standard
combinators (product spaces, componentwise application, weighted L^p
function metrics).

All evaluations multiply pairwise factors in lexicographic pair order of a
canonically sorted copy of the input, so permuting the input points yields
bit-identical results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, SingularityError

# Default relative tolerances of inequality and identity checks.
INEQUALITY_RTOL = 1e-9
IDENTITY_RTOL = 1e-10

# Beyond this tuple size (or once a partial product leaves the safe range)
# products are evaluated in the log domain.
_LOG_SWITCH_N = 12
_PRODUCT_FLOOR = 1e-300
_PRODUCT_CEIL = 1e300


def _is_finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class PointTuple:
    """Ordered tuple of n >= 2 points, either complex scalars or real vectors.

    Repeated points are legal; they force every metric in this package to
    evaluate to exactly zero.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ArgumentError(f"need at least 2 points, got {len(pts)}")
        if isinstance(pts[0], complex):
            if not all(isinstance(p, complex) for p in pts):
                raise ArgumentError("mixed complex and vector points")
            if not all(_is_finite_complex(p) for p in pts):
                raise ArgumentError("non-finite input point")
        else:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise ArgumentError(f"points of mixed dimensions: {sorted(dims)}")
            if next(iter(dims)) < 1:
                raise ArgumentError("ambient dimension must be >= 1")
            for p in pts:
                if not all(math.isfinite(c) for c in p):
                    raise ArgumentError("non-finite input coordinate")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def is_complex(self) -> bool:
        return isinstance(self.points[0], complex)

    @property
    def m(self) -> int:
        return 1 if self.is_complex else len(self.points[0])


def as_point_tuple(obj) -> PointTuple:
    """Coerce a PointTuple, a sequence of scalars, or a sequence of vectors."""
    if isinstance(obj, PointTuple):
        return obj
    pts = list(obj)
    if not pts:
        raise ArgumentError("empty point tuple")
    if isinstance(pts[0], (int, float, complex, np.number)):
        return PointTuple(tuple(complex(p) for p in pts))
    return PointTuple(tuple(tuple(float(c) for c in p) for p in pts))


def _complex_points(obj) -> tuple[complex, ...]:
    t = as_point_tuple(obj)
    if not t.is_complex:
        raise ArgumentError("operation requires complex scalar points")
    return t.points


def _vector_points(obj) -> tuple[tuple[float, ...], ...]:
    t = as_point_tuple(obj)
    if t.is_complex:
        raise ArgumentError("operation requires vector points")
    return t.points


@dataclass(frozen=True)
class MonotoneNorm:
    """Weighted p-norm with p >= 1 and strictly positive weights.

    These are monotone: componentwise domination of absolute values is
    order-preserving, which is exactly what the product and function-space
    constructions require.
    """

    p: float = 2.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ArgumentError(f"p must be >= 1, got {self.p}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if not all(x > 0.0 and math.isfinite(x) for x in w):
                raise ArgumentError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", w)

    def __call__(self, values: Sequence[float]) -> float:
        v = [abs(float(x)) for x in values]
        w = self.weights
        if w is not None:
            if len(w) != len(v):
                raise ArgumentError(f"norm has {len(w)} weights, got {len(v)} values")
        else:
            w = (1.0,) * len(v)
        if math.isinf(self.p):
            return max(wi * vi for wi, vi in zip(w, v))
        if self.p == 1.0:
            return sum(wi * vi for wi, vi in zip(w, v))
        return sum(wi * vi**self.p for wi, vi in zip(w, v)) ** (1.0 / self.p)


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "nan", "inf" or "-inf": JSON has no non-finite numbers
    if isinstance(obj, complex):
        return _jsonify([obj.real, obj.imag])
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, PointTuple):
        return [_jsonify(p) for p in obj.points]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def dump_json(obj) -> str:
    """Valid JSON text with sorted keys; non-finite floats become "nan", "inf", "-inf"."""
    return json.dumps(_jsonify(obj), sort_keys=True, allow_nan=False)


# Claim kinds and comparison domains of a verdict.
INEQUALITY = "inequality"  # lhs <= rhs
IDENTITY = "identity"  # lhs == rhs
BOUND = "bound"  # lhs <= rhs * (1 + tol)
LINEAR = "linear"  # the sides are the values themselves
LOG = "log"  # the sides are logarithms of the values


class Verdict(NamedTuple):
    """Outcome of verdict(); each field is a float or an array of rows."""

    normalized: object
    passed: object
    gap: object
    scale: object


def verdict(kind: str, domain: str, lhs, rhs, tol) -> Verdict:
    """Normalized gap and pass decision of a claim: the one pass/fail rule.

    lhs and rhs are floats, or equal-shape arrays with one check per row.
    In the linear domain scale = max(|lhs|, |rhs|, 1); in the log domain the
    difference of the sides is already relative and scale = 1.

    - inequality: gap = rhs - lhs, passes when gap / scale >= -tol;
    - identity: gap = |rhs - lhs|, passes when gap / scale <= tol.  Sides
      with a trailing component axis are compared row by row in the max norm;
    - bound: gap = lhs / rhs - 1 (lhs - rhs in the log domain) over scale 1,
      passes when <= tol.

    The normalized gap is gap / scale.  Fails closed: a check whose
    normalized gap or right side is not finite never passes.
    """
    if kind not in (INEQUALITY, IDENTITY, BOUND) or domain not in (LINEAR, LOG):
        raise ArgumentError(f"unknown verdict kind {kind!r} or domain {domain!r}")
    array = isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray)
    finite = True
    if kind == BOUND:
        if domain == LOG:
            gap = lhs - rhs
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                gap = np.divide(lhs, rhs) - 1.0
            # lhs / inf - 1 is finite, so an infinite bound is caught here.
            finite = abs(rhs) < math.inf
        scale = 1.0
    else:
        gap = rhs - lhs
        if kind == IDENTITY:
            gap = abs(gap)
        if domain == LOG:
            scale = 1.0
        elif array:
            left, right = abs(lhs), abs(rhs)
            if gap.ndim > 1:
                gap, left, right = gap.max(axis=-1), left.max(axis=-1), right.max(axis=-1)
            scale = np.maximum(np.maximum(left, right), 1.0)
        else:
            scale = max(abs(lhs), abs(rhs), 1.0)
    normalized = gap / scale
    within = normalized >= -tol if kind == INEQUALITY else normalized <= tol
    finite = finite & (abs(normalized) < math.inf)
    return Verdict(normalized, within & finite, gap, scale)


@dataclass
class MetricReport:
    """Outcome of one inequality, identity or bound check.

    gap is rhs - lhs exactly as computed; passed is the verdict() of kind
    and domain on the two sides at the given tolerance.
    """

    operation: str
    inputs: dict
    lhs: float
    rhs: float
    tolerance: float
    kind: str
    domain: str
    flags: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(verdict(self.kind, self.domain, self.lhs, self.rhs, self.tolerance).passed)

    def to_dict(self) -> dict:
        d = {
            "operation": self.operation,
            "inputs": _jsonify(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.flags:
            d.update(_jsonify(self.flags))
        return d

    def to_json(self) -> str:
        return dump_json(self.to_dict())


# ---------------------------------------------------------------------------
# Vandermonde metric on C
#
# The metrics are row kernels over (B, n) arrays; the scalar functions are
# B = 1 calls into them.


def scalar_map(fn, values) -> np.ndarray:
    """fn applied to each element of values, as a float array of their shape.

    numpy's vectorized log, exp and power round some elements differently
    from the math module, so results that must equal the scalar formulas
    bit for bit apply those functions here, one element at a time.
    """
    values = np.asarray(values)
    return np.array([fn(v) for v in values.ravel().tolist()], dtype=float).reshape(values.shape)


@lru_cache(maxsize=None)
def _pair_indices(n: int):
    """Read-only index arrays (j, i) of the pairs j < i in lexicographic order."""
    j, i = np.triu_indices(n, 1)
    j.flags.writeable = i.flags.writeable = False
    return j, i


def _complex_factors(z: np.ndarray) -> np.ndarray:
    """|z_i - z_j| over the pairs of each row sorted by (real, imag), in pair order."""
    z = np.take_along_axis(z, np.lexsort((z.imag, z.real)), axis=1)
    j, i = _pair_indices(z.shape[1])
    d = z[:, i] - z[:, j]
    return np.hypot(d.real, d.imag)


def _log_sums(factors: np.ndarray) -> np.ndarray:
    """Sum of the logs of each row of factors in order; -inf for a row holding a zero."""
    with np.errstate(divide="ignore"):
        sums = np.cumsum(np.log(factors), axis=1)[:, -1]
    sums[np.any(factors == 0.0, axis=1)] = -math.inf
    return sums


# Rows are folded in chunks of about this many pair factors, which bounds
# the temporaries however many rows a caller stacks.
_CHUNK_FACTORS = 1 << 13


def _chunks(rows: int, factors_per_row: int):
    step = max(1, _CHUNK_FACTORS // factors_per_row)
    return (slice(start, start + step) for start in range(0, rows, step))


def pair_product_rows(factors: np.ndarray):
    """Product of each row of a (rows, P) array of the pair factors of n points.

    The factors are multiplied in order.  A row with n > 12, or whose
    partial product leaves [1e-300, 1e300], is evaluated as the exp of its
    log sum instead; a row holding a zero factor is exactly 0.  Returns the
    values and the mask of the log-domain rows.
    """
    zero = np.any(factors == 0.0, axis=1)
    if factors.shape[1] > _LOG_SWITCH_N * (_LOG_SWITCH_N - 1) // 2:
        in_range = np.zeros(len(factors), dtype=bool)
        product = np.zeros(len(factors))
    else:
        with np.errstate(over="ignore"):
            partial = np.cumprod(factors, axis=1)
        in_range = np.all((partial >= _PRODUCT_FLOOR) & (partial <= _PRODUCT_CEIL), axis=1)
        product = partial[:, -1]
    log = ~(in_range | zero)
    product[zero] = 0.0
    product[log] = scalar_map(_exp_or_zero, _log_sums(factors[log]))
    return product, log


def vandermonde_rows(z: np.ndarray):
    """Pairwise-distance product of each row of a (B, n) complex array.

    Each row is sorted by (real, imag) and its factors hypot(z_i - z_j) are
    folded by pair_product_rows.  Returns the values and the mask of the
    log-domain rows.
    """
    n = z.shape[1]
    values = np.empty(z.shape[0])
    log_rows = np.empty(z.shape[0], dtype=bool)
    for rows in _chunks(z.shape[0], n * (n - 1) // 2):
        values[rows], log_rows[rows] = pair_product_rows(_complex_factors(z[rows]))
    return values, log_rows


def vandermonde_log_rows(z: np.ndarray) -> np.ndarray:
    """Sum of log|z_i - z_j| of each row of a (B, n) complex array (canonical order)."""
    n = z.shape[1]
    out = np.empty(z.shape[0])
    for rows in _chunks(z.shape[0], n * (n - 1) // 2):
        out[rows] = _log_sums(_complex_factors(z[rows]))
    return out


def _exp_or_zero(log_value: float) -> float:
    if log_value == -math.inf:
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def vandermonde_metric(points) -> float:
    """Product of all pairwise distances |z_i - z_j| of complex scalars.

    Switches to log-domain evaluation for large tuples or once a partial
    product leaves the representable range.
    """
    values, _ = vandermonde_rows(np.array([_complex_points(points)]))
    return float(values[0])


def vandermonde_metric_log(points) -> float:
    """Sum of log|z_i - z_j| over all pairs; -inf when two points coincide."""
    return float(vandermonde_log_rows(np.array([_complex_points(points)]))[0])


def _root(factors: np.ndarray) -> float:
    """Product of a (1, P) row of pair factors to the 1/P = 2/(n(n-1)), from its log sum."""
    return _exp_or_zero(float(_log_sums(factors)[0]) / factors.shape[1])


def root_metric(points) -> float:
    """Pairwise-distance product raised to 2/(n(n-1)); homogeneous of degree 1."""
    return _root(_complex_factors(np.array([_complex_points(points)])))


# ---------------------------------------------------------------------------
# Cramer / Lagrange coefficients


def cramer_coefficients(points, y: complex) -> list[complex]:
    """Coefficients a with sum_i a_i z_i^k = y^k for k = 0, ..., n-1.

    Evaluated as Lagrange basis values a_k = prod_{l != k} (z_l - y)/(z_l - z_k),
    never via a dense linear solve: the closed form stays meaningful where a
    Vandermonde system would be hopelessly ill-conditioned.
    """
    z = _complex_points(points)
    y = complex(y)
    n = len(z)
    for j in range(n):
        for i in range(j + 1, n):
            if z[i] == z[j]:
                raise SingularityError(f"coincident points z[{j}] == z[{i}]")
    coeffs = []
    for k in range(n):
        a = complex(1.0)
        for l in range(n):
            if l != k:
                a *= (z[l] - y) / (z[l] - z[k])
        coeffs.append(a)
    return coeffs


def cramer_coefficients_determinant_ratio(points, y: complex) -> list[complex]:
    """Same coefficients as ratios of signed pairwise-difference products.

    a_k = V(z with z_k replaced by y) / V(z).  Kept as an independent
    cross-check of the Lagrange form.
    """
    z = list(_complex_points(points))
    y = complex(y)
    n = len(z)
    v = _signed_product(z)
    if v == 0:
        raise SingularityError("coincident points: zero denominator")
    out = []
    for k in range(n):
        replaced = list(z)
        replaced[k] = y
        out.append(_signed_product(replaced) / v)
    return out


def _signed_product(z: list[complex]) -> complex:
    prod = complex(1.0)
    n = len(z)
    for j in range(n):
        for i in range(j + 1, n):
            prod *= z[i] - z[j]
    return prod


# ---------------------------------------------------------------------------
# Euclidean and product-of-distances metrics on R^m


def euclidean_3metric(x1, x2, x3) -> float:
    """||x1-x2|| ||x1-x3|| ||x2-x3|| with the Euclidean norm."""
    pts = _vector_points([x1, x2, x3])
    return pairwise_product_metric(pts)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances over the pairs of each row of a (B, n, m) array.

    Each row's points are sorted lexicographically and the distances come
    in lexicographic pair order.  Each is math.hypot of the coordinate
    differences, which is math.dist of the two points.
    """
    order = np.lexsort(np.moveaxis(x[..., ::-1], -1, 0))
    x = np.take_along_axis(x, order[..., None], axis=1)
    j, i = _pair_indices(x.shape[1])
    out = np.empty((x.shape[0], len(i)))
    for rows in _chunks(x.shape[0], len(i)):
        d = (x[rows, i] - x[rows, j]).reshape(-1, x.shape[2])
        out[rows] = np.fromiter(map(math.hypot, *d.T.tolist()), float, len(d)).reshape(-1, len(i))
    return out


def pairwise_product_metric(points) -> float:
    """Product of all pairwise Euclidean distances of vectors in R^m.

    A genuine 3-metric for n = 3; for n >= 4 in dimension >= 3 the simplex
    inequality fails (see geometry.tetrahedron_counterexample).
    """
    values, _ = pair_product_rows(pairwise_distances(np.array([_vector_points(points)])))
    return float(values[0])


def pairwise_root_metric(points) -> float:
    """pairwise_product_metric raised to 2/(n(n-1))."""
    return _root(pairwise_distances(np.array([_vector_points(points)])))


def _euclidean3_on_tuple(points) -> float:
    pts = _vector_points(points)
    if len(pts) != 3:
        raise ArgumentError(f"euclidean3 takes exactly 3 points, got {len(pts)}")
    return euclidean_3metric(*pts)


METRICS: dict[str, Callable] = {
    "vandermonde": vandermonde_metric,
    "root": root_metric,
    "euclidean3": _euclidean3_on_tuple,
    "pairwise": pairwise_product_metric,
    "pairwise_root": pairwise_root_metric,
}


def resolve_metric(selector) -> Callable:
    if callable(selector):
        return selector
    try:
        return METRICS[selector]
    except KeyError:
        raise ArgumentError(
            f"unknown metric {selector!r}; known: {sorted(METRICS)}"
        ) from None


def _coerce_like(t: PointTuple, y):
    if t.is_complex:
        if isinstance(y, (list, tuple, np.ndarray)):
            if len(y) != 2:
                raise ArgumentError("complex replacement point needs 2 components")
            return complex(float(y[0]), float(y[1]))
        return complex(y)
    y = tuple(float(c) for c in np.atleast_1d(y))
    if len(y) != t.m:
        raise ArgumentError(f"replacement point has dimension {len(y)}, expected {t.m}")
    return y


# ---------------------------------------------------------------------------
# Simplex and extended inequalities


def _replacement_sides(points, y, side):
    """lhs = side(points, y) and rhs = sum_i side(points with slot i -> y, points[i]).

    rhs is summed from 0 in slot order, so it keeps the type of the terms:
    float, numpy array or exact int / Fraction.
    """
    lhs = side(list(points), y)
    rhs = 0
    for i, p in enumerate(points):
        replaced = list(points)
        replaced[i] = y
        rhs = rhs + side(replaced, p)
    return lhs, rhs


def simplex_gap(points, y, metric="vandermonde", tol=INEQUALITY_RTOL) -> MetricReport:
    """Check d(x) <= sum_i d(x with x_i replaced by y) for the chosen metric."""
    t = as_point_tuple(points)
    y = _coerce_like(t, y)
    d = resolve_metric(metric)
    lhs, rhs = _replacement_sides(t.points, y, lambda pts, _: d(pts))
    name = metric if isinstance(metric, str) else getattr(metric, "__name__", "custom")
    return MetricReport("simplex_gap", {"points": t, "y": y, "metric": name}, lhs, rhs, tol,
                        kind=INEQUALITY, domain=LINEAR)


def extended_inequality_gap(points, y: complex, k: int, tol=INEQUALITY_RTOL) -> MetricReport:
    """Check |y|^k d_V(z) <= sum_i |z_i|^k d_V(z with z_i replaced by y).

    k = 0 reduces to the plain simplex inequality.
    """
    z = _complex_points(points)
    y = complex(y)
    n = len(z)
    if not (0 <= k <= n - 1):
        raise ArgumentError(f"k must be in [0, {n - 1}], got {k}")
    lhs, rhs = _replacement_sides(z, y, lambda pts, w: abs(w) ** k * vandermonde_metric(pts))
    return MetricReport("extended_inequality_gap", {"points": list(z), "y": y, "k": k},
                        lhs, rhs, tol, kind=INEQUALITY, domain=LINEAR)


# ---------------------------------------------------------------------------
# Constructions


def product_metric(d_x, d_y, norm: MonotoneNorm, t_x, t_y) -> float:
    """Pseudo n-metric on a product space: monotone norm of the two values."""
    tx = as_point_tuple(t_x)
    ty = as_point_tuple(t_y)
    if tx.n != ty.n:
        raise ArgumentError(f"tuple sizes differ: {tx.n} vs {ty.n}")
    dx = resolve_metric(d_x)
    dy = resolve_metric(d_y)
    values = (dx(list(tx.points)), dy(list(ty.points)))
    if norm.weights is not None and len(norm.weights) != 2:
        raise ArgumentError("product metric needs a 2-dimensional norm")
    return norm(values)


def componentwise_metric(points, norm: MonotoneNorm | None = None) -> float:
    """Monotone norm of the per-coordinate pairwise-distance products.

    Only a pseudo n-metric for k >= 2 coordinates: distinct points may share
    a coordinate value per column and force the value to zero.
    """
    columns = np.array(_vector_points(points)).T.astype(complex)
    values, _ = vandermonde_rows(columns)
    return (norm or MonotoneNorm(p=2.0))(values.tolist())


def lp_function_metric(samples, weights, p: float) -> float:
    """Discrete-measure L^p pseudo n-metric on sampled functions.

    (sum_g w_g prod_{j<i} |f_i(g) - f_j(g)|^p)^(1/p) over a common finite grid.
    """
    if not (p >= 1.0) or math.isinf(p):
        raise ArgumentError(f"p must be a finite real >= 1, got {p}")
    fs = [tuple(float(v) for v in f) for f in samples]
    if len(fs) < 2:
        raise ArgumentError("need at least 2 sampled functions")
    grid_len = len(fs[0])
    if any(len(f) != grid_len for f in fs):
        raise ArgumentError("sample lists of unequal length")
    w = [float(x) for x in weights]
    if len(w) != grid_len:
        raise ArgumentError("weights length must match grid length")
    if not all(math.isfinite(x) for f in fs for x in f):
        raise ArgumentError("non-finite sample")
    if not all(x >= 0.0 and math.isfinite(x) for x in w):
        raise ArgumentError("weights must be finite and nonnegative")
    values, _ = vandermonde_rows(np.array(fs).T.astype(complex))
    total = sum(wg * v ** p for wg, v in zip(w, values.tolist()))
    return total ** (1.0 / p)
