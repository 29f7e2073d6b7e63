"""Symmetric multilinear machinery generalizing the pairwise-distance product.

The concrete map projects each argument vector in R^m onto every ordered
coordinate pair, multiplies the resulting planar vectors as complex numbers,
and stacks the products.  Being symmetric and multilinear, it turns the
product of pairwise differences into a pseudo n-metric on R^m, expands as a
signed sum over permutations, and satisfies an exact replacement identity.
Definiteness of the induced metric is decided combinatorially for small
(n, m) by enumerating pair-killing assignments.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .core import (EXPANSION_MAX_N, INEQUALITY, INEQUALITY_RTOL, LINEAR, MetricReport,
                   MonotoneNorm, _vector_points)
from .errors import ArgumentError, ResourceError

log = logging.getLogger(__name__)


def ordered_pairs(k: int) -> list[tuple[int, int]]:
    """All index pairs (j, i) with 0 <= j < i < k, lexicographic."""
    return [(j, i) for j in range(k) for i in range(j + 1, k)]


def permutation_sign(perm) -> int:
    inversions = 0
    for j in range(len(perm)):
        for i in range(j + 1, len(perm)):
            if perm[j] > perm[i]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _complex_fold(factors) -> tuple:
    """Product of (re, im) pairs as complex numbers; exact on ints/Fractions."""
    re, im = 1, 0
    for a, b in factors:
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _exact_number(c):
    """An exact coordinate as a Python int or Fraction (numpy ints never wrap)."""
    return c if isinstance(c, Fraction) else int(c)


@dataclass(frozen=True)
class MultilinearMapSpec:
    """Parameters of the complex-product-projection map on R^m.

    The map takes arity = n(n-1)/2 (plus `extra` trailing) arguments and
    returns one complex product per ordered coordinate pair, flattened to a
    real vector of dimension m(m-1).  Factors are multiplied in canonical
    sorted order, so permuting the arguments gives bit-identical output.
    """

    n: int
    m: int
    extra: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ArgumentError(f"tuple size must be >= 2, got {self.n}")
        if self.m < 2:
            raise ArgumentError(f"ambient dimension must be >= 2, got {self.m}")
        if self.extra < 0:
            raise ArgumentError(f"extra argument count must be >= 0, got {self.extra}")

    @property
    def arity(self) -> int:
        return self.n * (self.n - 1) // 2

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return ordered_pairs(self.m)

    @property
    def output_dim(self) -> int:
        return self.m * (self.m - 1)

    def _check_args(self, args):
        if len(args) != self.arity + self.extra:
            raise ArgumentError(
                f"expected {self.arity + self.extra} arguments, got {len(args)}"
            )
        for x in args:
            if len(x) != self.m:
                raise ArgumentError(f"argument of dimension {len(x)}, expected {self.m}")

    def apply(self, args) -> np.ndarray:
        """Evaluate the map; output is (re, im) per coordinate pair.

        Float input gives a float64 array.  When every coordinate is an int,
        a numpy integer or a Fraction, the output is an object array of exact
        Python ints / Fractions.
        """
        self._check_args(args)
        exact = all(isinstance(c, (int, np.integer, Fraction)) for x in args for c in x)
        number = _exact_number if exact else float
        out = np.empty(self.output_dim, dtype=object if exact else float)
        for idx, (t1, t2) in enumerate(self.pairs):
            factors = sorted((number(x[t1]), number(x[t2])) for x in args)
            re, im = _complex_fold(factors)
            out[2 * idx] = re
            out[2 * idx + 1] = im
        return out


def _differences(points, pairs_n):
    return [tuple(points[i][c] - points[j][c] for c in range(len(points[i])))
            for j, i in pairs_n]


def _check_points(spec, points):
    if len(points) != spec.n:
        raise ArgumentError(f"expected {spec.n} points, got {len(points)}")
    for p in points:
        if len(p) != spec.m:
            raise ArgumentError(f"point of dimension {len(p)}, expected {spec.m}")


def product_difference_form(spec: MultilinearMapSpec, points) -> np.ndarray:
    """Map applied to the pairwise differences x_i - x_j in canonical order."""
    _check_points(spec, points)
    return spec.apply(_differences(points, ordered_pairs(spec.n)))


@lru_cache(maxsize=None)
def expansion_terms(n: int):
    """Read-only signs and argument index multisets of the permutations of {0, ..., n-1}.

    Row k is the k-th permutation in lexicographic order; index j occurs perm(j) times.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    signs = np.array([permutation_sign(perm) for perm in perms.tolist()])
    indices = np.repeat(np.tile(np.arange(n), len(perms)), perms.ravel()).reshape(len(perms), -1)
    signs.flags.writeable = indices.flags.writeable = False
    return signs, indices


def permutation_expansion(spec: MultilinearMapSpec, points) -> np.ndarray:
    """Signed sum over permutations of the map on repeated-argument multisets.

    Each point x_j enters with multiplicity perm(j) - 1 (multiplicity zero
    means the argument is simply omitted).  Must agree with
    product_difference_form; that identity is the module's central oracle.
    """
    _check_points(spec, points)
    if spec.n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    signs, indices = expansion_terms(spec.n)
    return sum(sign * spec.apply([points[j] for j in idx])
               for sign, idx in zip(signs.tolist(), indices.tolist()))


def sum_identity_gap(spec: MultilinearMapSpec, points, y):
    """Max-norm discrepancy of V(x) = sum_i V(x with x_i replaced by y)."""
    return w_identity_gap(spec, points, y, 1)


def _check_w_args(spec, points, q):
    _check_points(spec, points)
    if not (1 <= q <= spec.n):
        raise ArgumentError(f"q must be in [1, {spec.n}], got {q}")
    if spec.extra != q - 1:
        raise ArgumentError(f"spec.extra = {spec.extra} but q - 1 = {q - 1}")


def _w_value(spec, points, tail, q):
    args = _differences(points, ordered_pairs(spec.n)) + [tail] * (q - 1)
    return spec.apply(args)


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


def w_identity_gap(spec: MultilinearMapSpec, points, y, q: int):
    """Max-norm discrepancy of the extended replacement identity.

    W(x_1,...,x_n, y) = sum_i W(..., y at slot i, ..., x_i) where the form
    carries q - 1 extra trailing arguments; q = 1 is sum_identity_gap.  A
    float for float input, exact for int / Fraction input (see apply).
    """
    _check_w_args(spec, points, q)
    lhs, rhs = _replacement_sides(points, y, lambda pts, tail: _w_value(spec, pts, tail, q))
    gap = np.max(np.abs(lhs - rhs))
    return gap if isinstance(gap, (int, Fraction)) else float(gap)


def w_norm_inequality(spec: MultilinearMapSpec, points, y, q: int,
                      tol: float = INEQUALITY_RTOL) -> MetricReport:
    """||W(x, y)|| <= sum_i ||W(..., y at slot i, ..., x_i)||."""
    _check_w_args(spec, points, q)

    def norm(pts, tail):
        return float(np.linalg.norm(np.asarray(_w_value(spec, pts, tail, q), dtype=float)))

    lhs, rhs = _replacement_sides(points, y, norm)
    return MetricReport(
        "w_norm_inequality",
        {"n": spec.n, "m": spec.m, "q": q,
         "points": [list(p) for p in points], "y": list(y)},
        lhs, rhs, tol, kind=INEQUALITY, domain=LINEAR,
    )


def generalized_metric(spec: MultilinearMapSpec, points, norm: MonotoneNorm | None = None) -> float:
    """Norm of the product-difference form; a pseudo n-metric on R^m.

    For m = 2 with the Euclidean norm this reduces to the complex
    pairwise-distance product of the planar embeddings.
    """
    pts = sorted(_vector_points(points))
    _check_points(spec, pts)
    v = product_difference_form(spec, pts)
    if norm is None:
        return float(np.linalg.norm(v))
    return norm(v)


# ---------------------------------------------------------------------------
# Definiteness


def counterexample_4_4() -> tuple:
    """Four pairwise-distinct points in R^4 with generalized metric exactly 0."""
    return (
        (0, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 1, 1, 0),
        (1, 0, 1, 0),
    )


def counterexample_4_4_report() -> dict:
    """Structural verification of the 4-point zero-metric configuration."""
    pts = counterexample_4_4()
    spec = MultilinearMapSpec(n=4, m=4)
    pairs = ordered_pairs(4)
    diffs = _differences(pts, pairs)
    value = spec.apply(diffs).tolist()  # the product-difference form
    # Each output component vanishes structurally iff some difference is zero
    # on both coordinates of its pair.
    killing = {}
    for t1, t2 in spec.pairs:
        zeroed = [pair for pair, d in zip(pairs, diffs) if d[t1] == 0 and d[t2] == 0]
        killing[f"({t1 + 1},{t2 + 1})"] = [(j + 1, i + 1) for j, i in zeroed]
    distinct = all(pts[i] != pts[j] for j, i in pairs)
    return {
        "points": [list(p) for p in pts],
        "metric_components": value,
        "metric_value": float(np.linalg.norm(np.asarray(value, dtype=float))),
        "pairwise_distinct": distinct,
        "killing_pairs": killing,
        "structurally_zero": all(len(v) > 0 for v in killing.values()),
    }


@dataclass(frozen=True)
class DefinitenessVerdict:
    n: int
    m: int
    verdict: str  # "definite" | "counterexample" | "exhausted"
    assignments_tried: int
    witness: tuple | None = None
    assignment: tuple | None = None

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "m": self.m,
            "verdict": self.verdict,
            "assignments_tried": self.assignments_tried,
        }
        if self.witness is not None:
            d["witness_matrix"] = [list(p) for p in self.witness]
        if self.assignment is not None:
            d["assignment"] = [
                {"tau": [t1 + 1, t2 + 1], "kills": [a + 1, b + 1]}
                for (t1, t2), (a, b) in self.assignment
            ]
        return d


# The first block of assignments holds at most DECIDE_CHUNK // (n + ceil(P/8))
# of them, n labels and ceil(P/8) bitmask bytes each at most, and each later
# block at most twice as many as the one before, up to DECIDE_CHUNK_MAX //
# (n + ceil(P/8)).  The first block is small, so an early counterexample
# stays cheap; the later ones spread each block's per-coordinate numpy
# calls over more assignments.  The tracemalloc peak at budget 1e6 measured
# 0.5 MiB at (3, 6) and 0.6 MiB at (4, 6), and does not grow past it.
DECIDE_CHUNK = 1 << 16
DECIDE_CHUNK_MAX = 1 << 20


def definiteness_decide(n: int, m: int, budget: int = 1_000_000) -> DefinitenessVerdict:
    """Decide whether the generalized metric on R^m is definite for n points.

    The metric vanishes iff every coordinate pair tau kills some point pair
    (both tau-components of that difference are zero).  All assignments from
    coordinate pairs to point pairs are enumerated lexicographically; an
    assignment admits pairwise-distinct points iff for every point pair some
    coordinate separates it under the forced equalities.  The first witness
    found wins; exhaustion of all assignments proves definiteness.  Past
    `budget` assignments the verdict is "exhausted".

    An assignment is a number whose digits in base P = n(n-1)/2 are the
    point pairs of the taus, most significant first.  The numbers run in
    aligned blocks (_blocks), each up to twice the one before, in which
    the leading digits are fixed and the trailing ones run through a grid.
    Coordinate r's classes depend only on the digits of the m - 1 taus
    that contain r, so each block computes them once per such
    sub-assignment (_first_separable); only the first separable
    assignment gets its full labels, for the witness.
    """
    if n < 3:
        raise ArgumentError(f"n must be >= 3, got {n}")
    if m < 2:
        raise ArgumentError(f"m must be >= 2, got {m}")
    if budget < 1:
        raise ArgumentError(f"budget must be >= 1, got {budget}")
    pairs_n = ordered_pairs(n)
    pairs_m = ordered_pairs(m)
    base, width = len(pairs_n), len(pairs_m)
    total = base ** width
    limit = min(budget, total)
    ends = np.array(pairs_n).T  # (2, P): the two points of each point pair
    taus = [[k for k, tau in enumerate(pairs_m) if r in tau] for r in range(m)]
    per_assignment = n + -(-base // 8)
    first, cap = (max(1, size // per_assignment) for size in (DECIDE_CHUNK, DECIDE_CHUNK_MAX))
    chunks, memo = 0, {}
    for start, fixed, axes in _blocks(base, width, limit, first, cap):
        chunks += 1
        row = _first_separable(fixed, axes, taus, ends, n, memo)
        if row is None or start + row >= limit:
            continue
        index = start + row
        digits = [index // base ** (width - 1 - k) % base for k in range(width)]
        labels = [_coordinate_classes([np.array([digits[k]]) for k in ks], ends, n)[:, 0]
                  for ks in taus]
        witness = _build_witness(labels, n, m)
        _verify_witness(n, m, witness)
        chosen = tuple((tau, pairs_n[d]) for tau, d in zip(pairs_m, digits))
        verdict = DefinitenessVerdict(
            n=n, m=m, verdict="counterexample", assignments_tried=index + 1,
            witness=witness, assignment=chosen,
        )
        break
    else:
        verdict = DefinitenessVerdict(n=n, m=m, verdict="exhausted" if limit < total else
                                      "definite", assignments_tried=limit)
    log.debug("definiteness_decide n=%d m=%d: %s after %d assignments in %d chunks", n, m,
              verdict.verdict, verdict.assignments_tried, chunks)
    return verdict


def _blocks(base, width, limit, size, cap):
    """Aligned blocks of consecutive assignments that start below limit.

    Yields (start, fixed, axes): the block's first assignment number, the
    digits of its leading positions and the values that each trailing
    position runs through, the block being their grid in lexicographic
    order.  The first block holds at most `size` assignments and each later
    one at most twice as many as the one before, up to `cap`.  In a block
    of at most s, the last e positions run through every digit, with
    base**e <= s and start a multiple of base**e, and the position before
    them through c consecutive digits, not past base - 1.
    """
    start = 0
    while start < limit:
        e = 0
        while e < width - 1 and base ** (e + 1) <= size and start % base ** (e + 1) == 0:
            e += 1
        span = base ** e
        low = start // span % base
        c = max(1, min(base - low, size // span))
        fixed = [start // base ** (width - 1 - k) % base for k in range(width - 1 - e)]
        yield start, fixed, [np.arange(low, low + c)] + [np.arange(base)] * e
        start += c * span
        size = min(2 * size, cap)


def _first_separable(fixed, axes, taus, ends, n, memo):
    """Position, in its block, of the block's first assignment that admits pairwise-distinct points.

    fixed and axes describe the block as _blocks yields it; taus[r] lists
    the taus that contain coordinate r.  Coordinate r's classes are
    computed once for each combination of its taus' digits in the block,
    and each combination's point pairs kept together (in one class) become
    a bitmask.  The masks AND-ed across coordinates, broadcast over the
    block, leave an assignment's bits all zero iff every point pair is
    separated somewhere.  Returns None when no assignment of the block is
    separable.

    The masks depend on the coordinate only through the digits its taus
    run through, so coordinates, in this block or the one before, whose
    taus run through the same digits share them: memo maps those digits
    to the masks and is left holding this block's.
    """
    lead = len(fixed)
    together = None
    used = {}
    for ks in taus:
        key = tuple(fixed[k] if k < lead else (axes[k - lead][0], len(axes[k - lead])) for k in ks)
        kept = used.get(key)
        if kept is None:
            kept = memo.get(key)
        if kept is None:
            # The digits of each tau over the sub-assignments, in grid order.
            size = inner = math.prod(len(axes[k - lead]) for k in ks if k >= lead)
            kills = []
            for k in ks:
                if k < lead:
                    kills.append(np.full(size, fixed[k]))
                    continue
                values = axes[k - lead]
                inner //= len(values)
                kills.append(np.tile(np.repeat(values, inner), size // (inner * len(values))))
            classes = _coordinate_classes(kills, ends, n)
            kept = np.packbits(classes[ends[0]] == classes[ends[1]], axis=0)
        used[key] = kept
        kept = kept.reshape((len(kept),) + tuple(len(v) if lead + a in ks else 1
                                                 for a, v in enumerate(axes)))
        together = kept if together is None else together & kept
    memo.clear()
    memo.update(used)
    free = ~together.any(axis=0).ravel()
    row = int(free.argmax())
    return row if free[row] else None


def _coordinate_classes(kills, ends, n):
    """(n, C) labels of the points that C sub-assignments force equal at one coordinate.

    kills holds, for each tau that contains the coordinate, the point pair
    each sub-assignment gives it, and ends the two points of each pair.
    The pairs are merged one edge at a time: the larger of the two labels
    becomes the smaller, in every sub-assignment at once.
    """
    c = len(kills[0])
    rows = np.arange(c)
    offsets = ends * c
    labels = np.repeat(np.arange(n)[:, None], c, axis=1)
    for digit in kills:
        # The labels of the two killed points, through their offsets into the flattened labels.
        ab = labels.take(offsets[:, digit] + rows)
        low, high = ab.min(0), ab.max(0)
        labels = np.where(labels == high, low, labels)
    return labels


def _build_witness(labels, n, m) -> tuple:
    """Per coordinate, relabel equivalence classes 0, 1, 2, ... in discovery order."""
    coords = []
    for r in range(m):
        seen: dict[int, int] = {}
        col = []
        for i in range(n):
            root = labels[r][i]
            if root not in seen:
                seen[root] = len(seen)
            col.append(seen[root])
        coords.append(col)
    return tuple(tuple(coords[r][i] for r in range(m)) for i in range(n))


def _verify_witness(n, m, witness):
    spec = MultilinearMapSpec(n=n, m=m)
    value = product_difference_form(spec, witness)
    if any(v != 0 for v in value):
        raise AssertionError("witness does not annihilate the metric")
    for j, i in ordered_pairs(n):
        if witness[i] == witness[j]:
            raise AssertionError("witness points not pairwise distinct")
