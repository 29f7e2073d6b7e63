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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import INEQUALITY, LINEAR, MetricReport, MonotoneNorm, _replacement_sides, _vector_points
from .errors import ArgumentError, ResourceError

# Permutation expansion is factorially expensive; refuse beyond this size.
EXPANSION_MAX_N = 8


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


def _expansion_terms(n):
    """(sign, argument index multiset) per permutation of {0, ..., n-1}."""
    for perm in itertools.permutations(range(n)):
        idx = []
        for j, power in enumerate(perm):
            idx.extend([j] * power)
        yield permutation_sign(perm), idx


def permutation_expansion(spec: MultilinearMapSpec, points) -> np.ndarray:
    """Signed sum over permutations of the map on repeated-argument multisets.

    Each point x_j enters with multiplicity perm(j) - 1 (multiplicity zero
    means the argument is simply omitted).  Must agree with
    product_difference_form; that identity is the module's central oracle.
    """
    _check_points(spec, points)
    if spec.n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    return sum(sign * spec.apply([points[j] for j in idx])
               for sign, idx in _expansion_terms(spec.n))


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
                      tol: float = 1e-10) -> MetricReport:
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


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def definiteness_decide(n: int, m: int, budget: int = 1_000_000) -> DefinitenessVerdict:
    """Decide whether the generalized metric on R^m is definite for n points.

    The metric vanishes iff every coordinate pair tau kills some point pair
    (both tau-components of that difference are zero).  All assignments from
    coordinate pairs to point pairs are enumerated lexicographically; an
    assignment admits pairwise-distinct points iff for every point pair some
    coordinate separates it under the forced equalities.  The first witness
    found wins; exhaustion of all assignments proves definiteness.
    """
    if n < 3:
        raise ArgumentError(f"n must be >= 3, got {n}")
    if m < 2:
        raise ArgumentError(f"m must be >= 2, got {m}")
    pairs_n = ordered_pairs(n)
    pairs_m = ordered_pairs(m)
    taus_by_coord = [
        [k for k, t in enumerate(pairs_m) if r in t] for r in range(m)
    ]
    tried = 0
    for assignment in itertools.product(range(len(pairs_n)), repeat=len(pairs_m)):
        if tried >= budget:
            return DefinitenessVerdict(n=n, m=m, verdict="exhausted", assignments_tried=tried)
        tried += 1
        # Per coordinate: equivalence classes of points forced equal there.
        labels = []
        for r in range(m):
            parent = list(range(n))
            for k in taus_by_coord[r]:
                a, b = pairs_n[assignment[k]]
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    parent[ra] = rb
            labels.append([_find(parent, i) for i in range(n)])
        separable = all(
            any(labels[r][a] != labels[r][b] for r in range(m)) for a, b in pairs_n
        )
        if not separable:
            continue
        witness = _build_witness(labels, n, m)
        _verify_witness(n, m, witness)
        chosen = tuple((pairs_m[k], pairs_n[assignment[k]]) for k in range(len(pairs_m)))
        return DefinitenessVerdict(
            n=n, m=m, verdict="counterexample", assignments_tried=tried,
            witness=witness, assignment=chosen,
        )
    return DefinitenessVerdict(n=n, m=m, verdict="definite", assignments_tried=tried)


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
