"""Vandermonde n-metrics over the complex plane and Euclidean spaces.

The basic quantity is the product of all pairwise distances of an ordered
point tuple.  This module provides that metric, its overflow-safe log-domain
form, the degree-1 root metric, the Cramer/Lagrange coefficient machinery
behind the simplex inequality, the Euclidean 3-metric, and the standard
combinators (product spaces, componentwise application, weighted L^p
function metrics).

The metrics multiply pairwise factors in lexicographic pair order of a
canonically sorted copy of the input, so permuting the input points yields
bit-identical values.  The simplex and weighted sides come from one
evaluator, replacement_blocks, which also takes the generalized metric of
multilinear as the l2 norm of d_V over the coordinate planes: up to
n = 12 a lockstep fold of the n + 1 tuples in input order, whose bits the
campaigns and the scalar reports share; beyond that, or once a block of
those sides overflows or underflows to 0, Lagrange log sums for the whole
batch.  The campaigns judge its row blocks as they come, and
replacement_sides collects them for the scalar reports.  Every row kernel
runs in row chunks through one loop, _by_rows.
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

# Relative slack on the ODE contraction estimate's exponential bound,
# absorbing quadrature and integration error (the estimate is exact only in
# the continuum).  Kept here, as ode.ESTIMATE_RTOL, so the campaigns' default
# tolerances do not load the ode module.
ESTIMATE_RTOL = 1e-6

# Permutation expansion is factorially expensive; refuse beyond this size
# (multilinear.EXPANSION_MAX_N, read by batch without loading multilinear).
EXPANSION_MAX_N = 8

# Names of the cyclic-polygon checks, in order: geometry.POLYGON_CHECKS
# holds them, and the CLI offers them without loading geometry.
POLYGON_CHECK_NAMES = ("triangle", "quadrilateral", "ptolemy", "ngon", "simplex-equality")

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
        _check_points(len(pts))
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


def _check_points(n: int, m: int = 1, least: int = 1) -> None:
    """Raise ArgumentError below 2 points, or below least coordinates a point.

    Fewer than 2 points have no pair, so no metric of them; vectors need a
    coordinate, and the generalized metric a coordinate plane, so 2.
    """
    if n < 2:
        raise ArgumentError(f"need at least 2 points, got {n}")
    if m < least:
        raise ArgumentError(f"need at least 2 points of {least} or more coordinates, got {m}")


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
            return max((wi * vi for wi, vi in zip(w, v)), default=0.0)
        if self.p == 1.0:
            return sum((wi * vi for wi, vi in zip(w, v)), 0.0)
        return _power_sum_root(w, v, self.p)


def _power_sum_root(weights, values, p: float) -> float:
    """(sum_i w_i v_i^p)^(1/p) of non-negative floats, summed left to right.

    Where a power overflows (a float power raises there), the sum is taken
    as M (sum_i w_i (v_i / M)^p)^(1/p) instead, M the largest value.
    """
    try:
        return sum(w * v**p for w, v in zip(weights, values)) ** (1.0 / p)
    except OverflowError:
        top = max(values)
        return top * sum(w * (v / top) ** p for w, v in zip(weights, values)) ** (1.0 / p)


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


# Side elements per verdict block.  The verdict's temporaries of one block,
# about 1 MiB, stay in a core's 2 MiB L2 cache; on (1e5, 6) identity and
# 4e5-row inequality sides 1 << 14 judged faster than 1 << 13 and 1 << 15.
# It also sizes the campaigns' row blocks (_block_rows) and the pieces of
# their complex draws.
VERDICT_BLOCK_ELEMENTS = 1 << 14


class Verdict(NamedTuple):
    """Outcome of verdict(); each field is a float or an array of rows."""

    normalized: object
    passed: object
    gap: object
    scale: object


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last axis, as an np.maximum fold of its columns.

    Exact, and NaN propagates as in ndarray.max; over a short trailing axis
    the fold is several times faster than max(axis=-1).  An axis of no
    column has no maximum: an ArgumentError.
    """
    if not a.shape[-1]:
        raise ArgumentError("sides with no component have no max-norm gap")
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        np.maximum(out, a[..., c], out=out)
    return out


def verdict(kind: str, domain: str, lhs, rhs, tol) -> Verdict:
    """Normalized gap and pass decision of a claim: the one pass/fail rule.

    lhs and rhs are floats, or equal-shape arrays with one check per row.
    In the linear domain scale = max(|lhs|, |rhs|, 1); in the log domain the
    difference of the sides is already relative and scale = 1.

    - inequality: gap = rhs - lhs, passes when gap / scale >= -tol;
    - identity: gap = |rhs - lhs|, passes when gap / scale <= tol.  Sides
      with a trailing component axis are compared row by row in the max
      norm, in either domain, so a non-finite component fails its row;
    - bound: gap = lhs / rhs - 1 (lhs - rhs in the log domain) over scale 1,
      passes when <= tol.

    The normalized gap is gap / scale.  Fails closed: a check whose
    normalized gap or right side is not finite never passes.  The one
    exception is a log side of -inf, which is the value 0: in the log domain
    a left side of -inf holds against a finite right side, or against one
    of -inf as an equality, as the linear sides 0 and rhs would.
    """
    if kind not in (INEQUALITY, IDENTITY, BOUND) or domain not in (LINEAR, LOG):
        raise ArgumentError(f"unknown verdict kind {kind!r} or domain {domain!r}")
    array = isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray)
    finite = True
    if domain == LOG:
        # -inf is the log of 0, so two sides of -inf are equal, gap 0.
        zeros = (lhs == -math.inf) & (rhs == -math.inf)
        with np.errstate(invalid="ignore"):
            gap = np.where(zeros, 0.0, lhs - rhs if kind == BOUND else rhs - lhs)[()]
        if kind == IDENTITY:
            gap = abs(gap)
            if gap.ndim > 1:
                gap = _row_max(gap)
        scale = 1.0
    elif kind == BOUND:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gap = np.divide(lhs, rhs) - 1.0
        # lhs / inf - 1 is finite, so an infinite bound is caught here.
        finite = abs(rhs) < math.inf
        scale = 1.0
    else:
        gap = rhs - lhs
        if kind == IDENTITY:
            gap = abs(gap)
        if array:
            left, right = abs(lhs), abs(rhs)
            if gap.ndim > 1:
                gap, left, right = _row_max(gap), _row_max(left), _row_max(right)
            scale = np.maximum(np.maximum(left, right), 1.0)
        else:
            scale = max(abs(lhs), abs(rhs), 1.0)
    normalized = gap / scale
    within = normalized >= -tol if kind == INEQUALITY else normalized <= tol
    finite = finite & (abs(normalized) < math.inf)
    if domain == LOG and kind != IDENTITY:
        # A left side of 0 under a finite right side is decided, its gap
        # infinite (an identity's infinite gap fails anyway).
        finite = finite | ((lhs == -math.inf) & (abs(rhs) < math.inf))
    return Verdict(normalized, within & finite, gap, scale)


@dataclass
class MetricReport:
    """Outcome of one inequality, identity or bound check.

    gap is rhs - lhs exactly as computed, and 0 for two log sides of -inf
    (two zeros) as in verdict(); passed is the verdict() of kind and
    domain on the two sides at the given tolerance.
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
        if self.domain == LOG and self.lhs == self.rhs == -math.inf:
            return 0.0
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


def scalar_powers(values, p) -> np.ndarray:
    """values ** p, one Python float at a time (scalar_map)."""
    return scalar_map(lambda v: v**p, values)


@lru_cache(maxsize=None)
def _pair_indices(n: int):
    """Read-only index arrays (j, i) of the pairs j < i in lexicographic order."""
    j, i = np.triu_indices(n, 1)
    j.flags.writeable = i.flags.writeable = False
    return j, i


def _sorted_rows(x: np.ndarray):
    """Each row of a (B, n) complex array sorted by (real, imag), or of a (B, n, m)
    real array lexicographically, and the sort order."""
    if x.ndim == 2:
        order = np.lexsort((x.imag, x.real))
        return np.take_along_axis(x, order, axis=1), order
    order = np.lexsort(np.moveaxis(x[..., ::-1], -1, 0))
    return np.take_along_axis(x, order[..., None], axis=1), order


def _abs(d: np.ndarray) -> np.ndarray:
    """|d| of complex d as np.hypot of the parts, which is Python's abs (numpy's
    rounds differently); of real d, the math.hypot of its last axis (math.dist)."""
    if np.iscomplexobj(d):
        return np.hypot(d.real, d.imag)
    flat = d.reshape(-1, d.shape[-1])
    return np.fromiter(map(math.hypot, *flat.T.tolist()), float, len(flat)).reshape(d.shape[:-1])


def _pair_factors(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j| over the pairs of each sorted row (_sorted_rows), in pair order."""
    x = _sorted_rows(x)[0]
    j, i = _pair_indices(x.shape[1])
    return _abs(x[:, i] - x[:, j])


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-d array, added left to right."""
    return np.cumsum(values, axis=1)[:, -1]


def _log_sums(factors: np.ndarray) -> np.ndarray:
    """Sum of the logs of each row of factors in order; -inf for a row holding a zero."""
    with np.errstate(divide="ignore"):
        sums = _row_sums(np.log(factors))
    sums[np.any(factors == 0.0, axis=1)] = -math.inf
    return sums


def _by_rows(kernel, step: int, *arrays, rows_last: bool = False):
    """kernel's outputs on consecutive slices of at most step rows of the arrays, stacked.

    kernel returns arrays with the chunk's rows first, or with rows_last,
    last.  The (B, ...) or (..., B) outputs are allocated at the first
    chunk, in its dtypes; an empty batch runs one empty chunk for them.
    The temporaries are one chunk's: each chunk's outputs are dropped
    before the next chunk is computed.
    """
    b, outputs = len(arrays[0]), None
    for start in range(0, max(1, b), step):
        rows = slice(start, start + step)
        chunk = kernel(*(a[rows] for a in arrays))
        if outputs is None:
            outputs = tuple(np.empty(c.shape[:-1] + (b,) if rows_last else (b,) + c.shape[1:],
                                     c.dtype) for c in chunk)
        for output, c in zip(outputs, chunk):
            output[(..., rows) if rows_last else rows] = c
        del chunk  # before the next chunk is computed
    return outputs


def _pair_rows(x: np.ndarray) -> int:
    """Rows of one chunk of a pair-factor kernel on (B, n) or (B, n, m) x: 16 P elements a row.

    That is 8192 pair factors a chunk (_chunk_rows).  Fewer than 2 points,
    or vectors of no coordinate, raise ArgumentError (_check_points).
    """
    _check_points(*x.shape[1:])
    return _chunk_rows(8 * x.shape[1] * (x.shape[1] - 1))


def _slices(b: int, step: int):
    """Consecutive slices of at most step rows of b rows; one empty slice when b is 0."""
    return (slice(s, min(s + step, b)) for s in range(0, max(1, b), step))


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
        # inf * 0 is NaN only in a row holding a zero, whose product is 0.
        with np.errstate(over="ignore", invalid="ignore"):
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
    return _by_rows(lambda z: pair_product_rows(_pair_factors(z)), _pair_rows(z), z)


def vandermonde_log_rows(z: np.ndarray) -> np.ndarray:
    """Sum of log|z_i - z_j| of each row of a (B, n) complex array (canonical order)."""
    return _by_rows(lambda z: (_log_sums(_pair_factors(z)),), _pair_rows(z), z)[0]


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


def _root_rows(factors: np.ndarray) -> np.ndarray:
    """Product of each row of (rows, P) pair factors to the 1/P = 2/(n(n-1)), from its log sum."""
    return scalar_map(_exp_or_zero, _log_sums(factors) / factors.shape[1])


def root_metric(points) -> float:
    """Pairwise-distance product raised to 2/(n(n-1)); homogeneous of degree 1."""
    return float(_root_rows(_pair_factors(np.array([_complex_points(points)])))[0])


# ---------------------------------------------------------------------------
# Cramer / Lagrange coefficients


def cramer_coefficients(points, y: complex) -> list[complex]:
    """Coefficients a with sum_i a_i z_i^k = y^k for k = 0, ..., n-1.

    Evaluated as Lagrange basis values a_k = prod_{l != k} (z_l - y)/(z_l - z_k),
    never via a dense linear solve: the closed form stays meaningful where a
    Vandermonde system would be hopelessly ill-conditioned.
    """
    z = _complex_points(points)
    y = _finite(complex(y))
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
    y = _finite(complex(y))
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


def _endpoint_sums(values: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) sums of a (rows, P) array of pair values over the pairs at each point.

    Each pair's value goes into both of its points' rows of an n x n
    matrix, whose rows are added left to right.
    """
    j, i = _pair_indices(n)
    both = np.zeros((len(values), n, n))
    both[:, j, i] = values
    both[:, i, j] = values
    return _row_sums(both.reshape(-1, n)).reshape(-1, n)


def _sums_without_each(logs: np.ndarray, at_points):
    """Row sums of logs, and for each point the sum of the logs not at that point.

    at_points maps a (rows, K) array to the (rows, n) sums of its entries
    at each point.  A log of -inf is a zero factor: a sum that takes one in
    is -inf, and a sum that leaves every one out is the sum of the rest.
    """
    zero = logs == -math.inf
    hit = np.flatnonzero(zero.any(axis=1))
    if len(hit):
        logs = np.where(zero, 0.0, logs)
    total = _row_sums(logs)
    without = total[:, None] - at_points(logs)
    if len(hit):
        zeros = zero[hit].astype(float)
        zeros_left_in = _row_sums(zeros)[:, None] - at_points(zeros)
        without[hit] = np.where(zeros_left_in > 0.0, -math.inf, without[hit])
        total[hit] = -math.inf
    return total, without


def _lagrange_logs(x: np.ndarray, y: np.ndarray):
    """lagrange_log_rows on one chunk of rows."""
    x, order = _sorted_rows(x)
    n = x.shape[1]
    j, i = _pair_indices(n)
    with np.errstate(divide="ignore"):
        pair_logs = np.log(_abs(x[:, i] - x[:, j]))
        y_logs = np.log(_abs(y[:, None] - x))
    log_d, pairs_off = _sums_without_each(pair_logs, lambda v: _endpoint_sums(v, n))
    _, y_off = _sums_without_each(y_logs, lambda v: v)
    terms = np.empty_like(pairs_off)
    np.put_along_axis(terms, order, pairs_off + y_off, axis=1)
    return log_d, terms


def lagrange_log_rows(x: np.ndarray, y: np.ndarray):
    """log d(x) and log d(x with x_i -> y) of each row, d the pairwise-distance product.

    x is (B, n) complex with y (B,), or (B, n, m) real with y (B, m).  Term
    i swaps the pairs at x_i for the |x_l - y|; for complex x it is
    log d_V(x) + log|a_i(y)|, a_i the Lagrange (Cramer) coefficients.  Rows
    are sorted and distances taken as in pairwise_distances, so log d is
    their log sum bit for bit; each pair's log is taken once and added into
    both of its points' sums, at O(n^2) per row.  A zero distance gives the
    sums that hold it -inf, never NaN.  Returns the (B,) log d and the
    (B, n) terms in the input's slot order.
    """
    return _by_rows(_lagrange_logs, _pair_rows(x), x, y)


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log sum_i exp(terms[:, i]) of each row, added left to right; -inf for a row of -inf."""
    top = terms.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log(_row_sums(np.exp(terms - top[:, None])))


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
    differences, which is math.dist of the two points.  A (B, n) complex
    array gives the factors |z_i - z_j| of vandermonde_rows.
    """
    return _by_rows(lambda x: (_pair_factors(x),), _pair_rows(x), x)[0]


def pairwise_product_metric(points) -> float:
    """Product of all pairwise Euclidean distances of vectors in R^m.

    A genuine 3-metric for n = 3; for n >= 4 in dimension >= 3 the simplex
    inequality fails (see geometry.tetrahedron_counterexample).
    """
    values, _ = pair_product_rows(pairwise_distances(np.array([_vector_points(points)])))
    return float(values[0])


def pairwise_root_metric(points) -> float:
    """pairwise_product_metric raised to 2/(n(n-1))."""
    return float(_root_rows(pairwise_distances(np.array([_vector_points(points)])))[0])


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


def checked_tol(tol) -> None:
    """Raise ArgumentError unless tol is None or a finite number >= 0."""
    if tol is not None and not (0.0 <= tol < math.inf):
        raise ArgumentError(f"tol must be a finite number >= 0, got {tol}")


def _finite(y, what="replacement point"):
    """y, when every component of it is finite; an ArgumentError otherwise."""
    if not np.isfinite(y).all():
        raise ArgumentError(f"non-finite {what}: {y!r}")
    return y


def _coerce_like(t: PointTuple, y):
    if t.is_complex:
        if isinstance(y, (list, tuple, np.ndarray)):
            if len(y) != 2:
                raise ArgumentError("complex replacement point needs 2 components")
            return _finite(complex(float(y[0]), float(y[1])))
        return _finite(complex(y))
    y = tuple(float(c) for c in np.atleast_1d(y))
    if len(y) != t.m:
        raise ArgumentError(f"replacement point has dimension {len(y)}, expected {t.m}")
    return _finite(y)


# ---------------------------------------------------------------------------
# Simplex and extended inequalities


def _root_power(n: int) -> float:
    """2 / (n(n-1)), the power of the root metrics; fewer than 2 points have none."""
    _check_points(n)
    return 2.0 / (n * (n - 1))


# Elements of one row chunk of every row kernel but the expansion
# (batch.LAPLACE_CHUNK_ELEMENTS), each counting its own a row (_chunk_rows):
# the replacement passes their pool and lockstep buffers, the pair-factor
# kernels 16 per pair factor (_pair_rows).  A replacement chunk's
# tracemalloc peak: 2.08, 2.17 and 2.50 MiB for complex rows at n = 5, 6
# and 12, 1.24 MiB for the generalized metric at n = 3, m = 4.
REPLACEMENT_CHUNK_ELEMENTS = 1 << 17


@lru_cache(maxsize=None)
def _slot_map(n: int, signed: bool) -> np.ndarray:
    """Read-only (P, n + 1) pool positions of the pair factors of each tuple, step-major.

    Column 0 is x and column 1 + s is x with slot s -> y, and row k holds
    each tuple's k-th factor, the gather of one lockstep step.  The pool
    holds the P pair factors of x (pair (j, i) holds x_i - x_j), then the n
    factors of y - x_k and, when signed, the n factors of x_k - y: a
    replaced slot s = i reads y - x_j and s = j reads x_i - y.  Unsigned
    factors (norms) read x_i - y from y - x_i.
    """
    j, i = _pair_indices(n)
    p = len(i)
    slots = np.repeat(np.arange(p)[:, None], n + 1, axis=1)
    for s in range(n):
        slots[i == s, s + 1] = p + j[i == s]
        slots[j == s, s + 1] = p + (n if signed else 0) + i[j == s]
    slots.flags.writeable = False
    return slots


def _chunk_rows(per_row: int) -> int:
    """Rows of one chunk of a kernel that holds per_row elements a row: at least one."""
    return max(1, REPLACEMENT_CHUNK_ELEMENTS // max(1, per_row))


def _row_elements(n: int, m: int = 0) -> int:
    """Pool and lockstep-buffer elements of one row, the unit of REPLACEMENT_CHUNK_ELEMENTS.

    The product pass pools P + n factors and folds two buffers of n + 1;
    vectors of m coordinates add the copy of their n points and their
    P + n differences, m elements each.
    """
    p = n * (n - 1) // 2
    return p + n + 2 * (n + 1) + (p + 2 * n) * m


def _sides(values):
    """lhs = values[0] and rhs = values[1] + ... + values[n] of a replacement kernel's values.

    values are the n + 1 tuples' values, x first, then x with slot s -> y
    in slot order; rhs is summed from zeros in slot order.
    """
    rhs = np.zeros_like(values[0])
    for value in values[1:]:
        rhs += value
    return values[0], rhs


def _pair_differences(points: np.ndarray, out=None) -> np.ndarray:
    """points[i] - points[j] of the pairs j < i of the (n, ...) points, in pair order.

    One subtraction per j writes the pairs (j, j + 1), ..., (j, n - 1) into
    out[:P], or into a new (P, ...) array; the differences are those of the
    gathered points[i] - points[j], without its two gathered temporaries.
    """
    n, start = len(points), 0
    if out is None:
        out = np.empty((n * (n - 1) // 2,) + points.shape[1:], points.dtype)
    for j in range(n - 1):
        np.subtract(points[j + 1:], points[j], out=out[start:start + n - 1 - j])
        start += n - 1 - j
    return out


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(P + n, rows) pool of _product_rows: the pair distances of x, then |y - x_k|.

    x is (rows, n) complex, distance abs, or (rows, n, m) real, distance
    the Euclidean norm.  The chunk is copied once, point-major, and the
    differences are written into one array (_pair_differences).  Below 8
    coordinates the copy is coordinate-major, (n, m, rows), and the norm is
    the left fold sqrt((d_0 d_0 + d_1 d_1) + ...), which is
    np.linalg.norm(diffs, axis=2) bit for bit: numpy adds so short a
    trailing axis left to right.  From 8 on numpy adds pairwise, so the
    norm is that call.
    """
    n = x.shape[1]
    p = n * (n - 1) // 2
    vectors = x.ndim == 3
    fold = vectors and x.shape[2] < 8
    points = np.ascontiguousarray(x.transpose(1, 2, 0) if fold else np.swapaxes(x, 0, 1))
    diffs = np.empty((p + n,) + points.shape[1:], np.result_type(x, y))
    _pair_differences(points, diffs)
    np.subtract(y.T if fold else y, points, out=diffs[p:])
    if not vectors:
        return np.abs(diffs)
    if not fold:
        return np.linalg.norm(diffs, axis=2)
    if not np.issubdtype(diffs.dtype, np.inexact):
        diffs = diffs.astype(float)  # as np.linalg.norm takes integers
    pool = diffs[:, 0] * diffs[:, 0]
    square = np.empty_like(pool)
    for c in range(1, diffs.shape[1]):
        np.multiply(diffs[:, c], diffs[:, c], out=square)
        pool += square
    return np.sqrt(pool, out=pool)


def _product_rows(x: np.ndarray, y: np.ndarray, power=None) -> np.ndarray:
    """(n + 1, rows) products of the pair distances of x and of each x with slot s -> y.

    x is (rows, n) complex, distance abs, or (rows, n, m) real, distance the
    Euclidean norm.  The factors are pooled factor-major, (P + n, rows)
    (_distances), and all n + 1 tuples multiply theirs in lockstep, left to
    right, one slot-map row per step, as np.prod over each tuple would.
    With a power, the products are raised to it.
    """
    pool = _distances(x, y)
    slots = _slot_map(x.shape[1], False)
    acc = np.take(pool, slots[0], axis=0)
    buf = np.empty_like(acc)
    for step in slots[1:]:
        # mode="clip" writes straight into out; the default mode buffers it.
        np.take(pool, step, axis=0, out=buf, mode="clip")
        acc *= buf
    return acc if power is None else acc**power


def _extended_rows(z: np.ndarray, y: np.ndarray, ks, power=None):
    """n + 1 values (len(ks), rows) of |w|^k times the product (to the power, if given).

    w is y for z and z_s for z with z_s -> y.  ks = [0] takes no weight, so
    vector points take it too.
    """
    products = _product_rows(z, y, power)
    if ks == [0]:
        return products[:, None]
    weights = [np.abs(y)] + [np.abs(z[:, s]) for s in range(z.shape[1])]
    return [np.stack([w**k * v for k in ks]) for w, v in zip(weights, products)]


# The generalized metric of points in R^m, m >= 2, is the l2 norm over the
# M = m(m-1)/2 coordinate planes (s, t) of d_V of the complex projections
# x[s] + i x[t]: the norm of the product-difference form, plane by plane.


def _planes(v: np.ndarray) -> np.ndarray:
    """The (M, ...) complex projections v[..., s] + i v[..., t] of real (..., m) v, plane-major."""
    s, t = _pair_indices(v.shape[-1])
    out = np.empty((len(s),) + v.shape[:-1], dtype=complex)
    re, im = out.real, out.imag
    # One plain copy per coordinate: no gathered temporary, and the same bits.
    for k, (a, b) in enumerate(zip(s.tolist(), t.tolist())):
        re[k] = v[..., a]
        im[k] = v[..., b]
    return out


def _plane_elements(n: int, m: int) -> int:
    """Elements of one row of _generalized_rows, the unit of REPLACEMENT_CHUNK_ELEMENTS.

    Per plane: the product pass (_row_elements), the projected points and
    y as complex (2(n + 1)), and the n + 1 squared products.
    """
    return (_row_elements(n) + 3 * (n + 1)) * (m * (m - 1) // 2)


def _generalized_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n + 1, 1, rows) generalized metrics of x and of each x with slot s -> y.

    _product_rows runs on the (M * rows, n) planes of the chunk at once;
    each tuple's squared products are added over the planes in plane order
    before the square root.
    """
    planes = _planes(x)
    count, rows, n = planes.shape
    squares = _product_rows(planes.reshape(-1, n), _planes(y).ravel()).reshape(n + 1, count, rows)
    squares *= squares
    total = squares[:, 0]
    for plane in range(1, count):
        total += squares[:, plane]
    return np.sqrt(total)[:, None]


def _linear_elements(points: np.ndarray, metric: str) -> int:
    """Elements of one row of _linear_sides, the unit of REPLACEMENT_CHUNK_ELEMENTS.

    Fewer than 2 points, vectors of no coordinate, or of no coordinate
    plane for the generalized metric, raise ArgumentError (_check_points).
    """
    generalized = metric == "generalized"
    _check_points(*points.shape[1:], 2 if generalized else 1)
    return (_plane_elements if generalized else _row_elements)(*points.shape[1:])


def _linear_sides(points: np.ndarray, y: np.ndarray, metric: str, ks):
    """Sides of replacement_sides, (len(ks), B) each, as values, at any n, with no escape to logs.

    The generalized metric folds each coordinate plane (_generalized_rows);
    every other metric folds the pair distances (_extended_rows), the roots
    as the product to the power 2 / (n(n-1)), the weights as np.abs(w) ** k.
    int64 inputs stay int64 up to a power.  The kernels run in row chunks
    of _linear_elements a row, rows last (_by_rows).
    """
    if metric == "generalized":
        values = _generalized_rows
    else:
        power = _root_power(points.shape[1]) if metric.endswith("root") else None
        ks = list(ks)
        values = lambda x, y: _extended_rows(x, y, ks, power)
    step = _chunk_rows(_linear_elements(points, metric))
    return _by_rows(lambda x, y: _sides(values(x, y)), step, points, y, rows_last=True)


def _underflowed(lhs: np.ndarray, points: np.ndarray, y: np.ndarray, metric: str, ks) -> bool:
    """Whether a left side of replacement_sides is 0 only because its product underflowed.

    A zero lhs at k = 0, or at k > 0 with y != 0, is exact only when two
    points of its row coincide (for the generalized metric, on every
    plane).  Only the rows with a zero lhs are checked.
    """
    if not lhs.size or lhs.min() > 0.0:
        return False
    zero = lhs == 0.0
    weighted = np.asarray(ks) > 0
    if weighted.any():
        zero[weighted] &= y != 0.0
    x = points[zero.any(axis=0)]
    if metric == "generalized":
        x = _planes(x).reshape(-1, x.shape[1])
    # Coincident points sort next to each other.
    sorted_x = _sorted_rows(x)[0]
    same = sorted_x[:, 1:] == sorted_x[:, :-1]
    if same.ndim > 2:
        same = same.all(axis=2)
    return bool((~same.any(axis=1)).any())


def _check_replacement(points: np.ndarray, metric: str, ks) -> None:
    """Raise ArgumentError unless replacement_sides takes these points, metric and ks."""
    _check_points(*points.shape[1:])
    if metric not in METRICS and metric != "generalized":
        raise ArgumentError(f"unknown metric {metric!r}; known: "
                            f"{sorted([*METRICS, 'generalized'])}")
    if (points.ndim == 2) != (metric in ("vandermonde", "root")) or (points.ndim > 2 and any(ks)) \
            or (metric == "generalized" and points.shape[2] < 2):
        raise ArgumentError(f"metric {metric!r} with k in {list(ks)} does not take these points")
    if metric == "euclidean3" and points.shape[1] != 3:
        raise ArgumentError(f"euclidean3 takes exactly 3 points, got {points.shape[1]}")


def replacement_sides(points: np.ndarray, y: np.ndarray, metric: str, ks=(0,)):
    """Both sides of |y|^k d(x) <= sum_i |x_i|^k d(x with x_i -> y) for each row and k.

    points is (B, n) complex with y (B,), or (B, n, m) real with y (B, m);
    metric is a METRICS name or "generalized" (m >= 2), and k > 0 needs
    complex points.  The sides are those of replacement_blocks, which
    evaluates them: up to n = 12 the lockstep fold of the n + 1 tuples in
    the points' input order (_linear_sides); beyond n = 12, or once a block
    of finite inputs gives a side that is not finite there, or a left side
    of 0 that only underflow explains, Lagrange log sums
    (lagrange_log_rows) for the whole call.  Returns lhs and rhs, each
    (len(ks), B), and their domain, LINEAR or LOG.
    """
    blocks = []
    for rows, lhs, rhs, domain in replacement_blocks(points, y, metric, ks):
        if not rows.start:  # the blocks of a domain cover the call from row 0
            blocks.clear()
        blocks.append((lhs, rhs))
    lhs, rhs = (np.concatenate(side, axis=1) for side in zip(*blocks))
    return lhs, rhs, domain


def _generalized_log_rows(x: np.ndarray, y: np.ndarray):
    """lagrange_log_rows of the generalized metric: of each plane's d_V, then the l2 norm.

    log d = 1/2 logsumexp over the planes of 2 log d^plane, and each term
    likewise over its planes' terms.  Rows run in chunks of at most
    REPLACEMENT_CHUNK_ELEMENTS, four per projected point (its complex value,
    its term and that doubled); lagrange_log_rows chunks its pair factors.
    """
    n, count = x.shape[1], x.shape[2] * (x.shape[2] - 1) // 2

    def norms(x, y):
        plane_d, plane_terms = lagrange_log_rows(_planes(x).reshape(-1, n), _planes(y).ravel())
        return (0.5 * _log_sum_exp(2.0 * plane_d.reshape(count, -1).T),
                0.5 * _log_sum_exp(2.0 * plane_terms.reshape(count, -1).T).reshape(-1, n))

    return _by_rows(norms, _chunk_rows(4 * count * n), x, y)


def _lagrange_sides(points: np.ndarray, y: np.ndarray, metric: str, ks):
    """The logs of both replacement_sides sides, (len(ks), B) each, as Lagrange log sums."""
    lhs = np.empty((len(ks), len(points)))
    rhs = np.empty_like(lhs)
    log_rows = _generalized_log_rows if metric == "generalized" else lagrange_log_rows
    log_x, terms = log_rows(points, y)
    if metric.endswith("root"):
        power = _root_power(points.shape[1])
        log_x, terms = power * log_x, power * terms
    if any(ks):
        with np.errstate(divide="ignore"):
            log_y, log_points = np.log(_abs(y)), np.log(_abs(points))
    for row, k in enumerate(ks):
        # k = 0 adds nothing: |0|^0 is 1, where 0 * log 0 would be NaN.
        lhs[row] = log_x + k * log_y if k else log_x
        rhs[row] = _log_sum_exp(terms + k * log_points if k else terms)
    return lhs, rhs


def _log_elements(n: int) -> int:
    """Elements of one row of _lagrange_sides that grow with the rows of a call.

    The n terms, the n logs of the points, and per k the n weighted terms
    and the three temporaries of n of _log_sum_exp; the pair factors are
    chunked inside lagrange_log_rows.
    """
    return 6 * n


def _block_rows(per_row: int, width: int) -> int:
    """Rows of one block of a kernel of per_row elements a row and width side elements a row.

    The most whole kernel chunks (_chunk_rows) whose sides fit one verdict
    block, or one chunk, so the kernel runs no short chunk but the last.  A
    width of 0 counts as 1.
    """
    chunk = _chunk_rows(per_row)
    return chunk * max(1, VERDICT_BLOCK_ELEMENTS // max(1, width) // chunk)


def replacement_blocks(points: np.ndarray, y: np.ndarray, metric: str, ks=(0,)):
    """The sides of replacement_sides, computed one row block at a time: their one evaluator.

    Yields (rows, lhs, rhs, domain): the slice rows of the batch and the
    sides of its rows, (len(ks), rows) each, in domain; a batch of no row
    is one empty block.  Up to n = 12 a block is _block_rows of the LINEAR
    kernel (_linear_sides).  A block of finite inputs whose sides are not finite,
    or whose left side is 0 only by underflow (_underflowed), escapes: it
    is not yielded, and the whole batch follows again from row 0, in row
    order, as LOG blocks (_lagrange_sides).  Those blocks are one chunk of
    the log sums' working set each (_log_elements), as their temporaries
    grow with the rows of a call, and beyond n = 12 they are the only
    blocks.  So the blocks from the last one at row 0 on cover the batch in
    one domain.  The arguments are checked once, before any block.
    """
    _check_replacement(points, metric, ks)
    b, n = len(points), points.shape[1]
    if n <= _LOG_SWITCH_N:
        for rows in _slices(b, _block_rows(_linear_elements(points, metric), len(ks))):
            x, w = points[rows], y[rows]
            # Overflow and inf * 0 give inf and NaN; inputs that are not finite fail closed.
            with np.errstate(over="ignore", invalid="ignore"):
                lhs, rhs = _linear_sides(x, w, metric, ks)
            # Sides of products (>= 0 or NaN) are finite where their max is: NaN
            # propagates, and no temporary the size of a side is made.
            finite = all(not side.size or math.isfinite(side.max()) for side in (lhs, rhs))
            if not (finite and not _underflowed(lhs, x, w, metric, ks)) \
                    and np.isfinite(x).all() and np.isfinite(w).all():
                break
            yield rows, lhs, rhs, LINEAR
            del lhs, rhs  # before the next block's sides are computed
        else:
            return
        del lhs, rhs  # the escaped block's, before the log sums are computed
    for rows in _slices(b, _chunk_rows(_log_elements(n))):
        yield rows, *_lagrange_sides(points[rows], y[rows], metric, ks), LOG


def _replacement_report(operation, inputs, points, y, metric, k, tol) -> MetricReport:
    """Inequality report of replacement_sides on one row, flagged log_domain in that domain."""
    lhs, rhs, domain = replacement_sides(np.array([points]), np.array([y]), metric, (k,))
    return MetricReport(operation, inputs, float(lhs[0, 0]), float(rhs[0, 0]), tol,
                        kind=INEQUALITY, domain=domain,
                        flags={"log_domain": True} if domain == LOG else {})


def simplex_gap(points, y, metric="vandermonde", tol=INEQUALITY_RTOL) -> MetricReport:
    """Check d(x) <= sum_i d(x with x_i replaced by y) for a METRICS metric.

    For n > 12, and for finite points whose sides overflow, the logs of
    the sides are compared (replacement_sides).
    """
    t = as_point_tuple(points)
    y = _coerce_like(t, y)
    return _replacement_report("simplex_gap", {"points": t, "y": y, "metric": metric},
                               t.points, y, metric, 0, tol)


def extended_inequality_gap(points, y: complex, k: int, tol=INEQUALITY_RTOL) -> MetricReport:
    """Check |y|^k d_V(z) <= sum_i |z_i|^k d_V(z with z_i replaced by y).

    k = 0 reduces to the plain simplex inequality.  For n > 12, and for
    finite points whose sides overflow, the logs of the sides are compared
    (replacement_sides).
    """
    z = _complex_points(points)
    y = _finite(complex(y))
    n = len(z)
    if not (0 <= k <= n - 1):
        raise ArgumentError(f"k must be in [0, {n - 1}], got {k}")
    return _replacement_report("extended_inequality_gap", {"points": list(z), "y": y, "k": k},
                               z, y, "vandermonde", k, tol)


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
    return _power_sum_root(w, values.tolist(), p)
