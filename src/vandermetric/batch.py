"""Vectorized evaluators used by the randomized campaigns.

These mirror the scalar operations in core/multilinear over whole batches of
inputs.  They trade the canonical factor ordering of the scalar API for
speed (campaign checks are tolerance-based), and they run on int64 arrays
as well, which gives exact integer arithmetic for small inputs.

The replacement kernels compare a function of each tuple x with the n
tuples "x with x_s -> y".  Replacing slot s changes only the n - 1 pair
factors that involve x_s, so each row's factors are computed once: the
P = n(n-1)/2 pair factors of x, then those of y with each point.  The
cached slot map of n lists where each of the n + 1 tuples finds its P
factors in that pool, in lexicographic pair order; one gather then gives
every tuple's factor row, which each kernel reduces exactly as it would
reduce the tuple's own factors.  Rows run in chunks that gather at most
REPLACEMENT_CHUNK_ELEMENTS elements, or one row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import IDENTITY, LINEAR, _pair_indices, verdict
from .multilinear import EXPANSION_MAX_N, expansion_terms
from .errors import ResourceError


# ---------------------------------------------------------------------------
# Complex scalar metrics


def dv_batch(z: np.ndarray) -> np.ndarray:
    """Pairwise-distance products for a (B, n) array of complex points."""
    j_idx, i_idx = _pair_indices(z.shape[1])
    return np.prod(np.abs(z[:, i_idx] - z[:, j_idx]), axis=1)


def _root_power(n: int) -> float:
    return 2.0 / (n * (n - 1))


def root_batch(z: np.ndarray) -> np.ndarray:
    return dv_batch(z) ** _root_power(z.shape[1])


# ---------------------------------------------------------------------------
# The replacement pass


# Elements of one chunk's gathered factor rows: rows times the elements the
# n + 1 tuples of a row gather.  About 256 KiB of float64.
REPLACEMENT_CHUNK_ELEMENTS = 1 << 15


@lru_cache(maxsize=None)
def _slot_map(n: int, signed: bool) -> np.ndarray:
    """Read-only (n + 1, P) pool positions of the pair factors of each tuple.

    Row 0 is x and row 1 + s is x with slot s -> y.  The pool holds the P
    pair factors of x (pair (j, i) holds x_i - x_j), then the n factors of
    y - x_k and, when signed, the n factors of x_k - y: a replaced slot
    s = i reads y - x_j and s = j reads x_i - y.  Unsigned factors (norms)
    read x_i - y from y - x_i.
    """
    j, i = _pair_indices(n)
    p = len(i)
    slots = np.tile(np.arange(p), (n + 1, 1))
    for s in range(n):
        slots[s + 1, i == s] = p + j[i == s]
        slots[s + 1, j == s] = p + (n if signed else 0) + i[j == s]
    slots.flags.writeable = False
    return slots


def _replacement_rows(kernel, per_row: int, points: np.ndarray, y: np.ndarray, *args):
    """kernel(points[rows], y[rows], *args) over row chunks, joined along axis 1.

    The kernel returns (n + 1, rows, ...) values: x first, then x with slot
    s -> y in slot order.  per_row is the elements one row gathers.
    """
    step = max(1, REPLACEMENT_CHUNK_ELEMENTS // max(1, per_row))
    return np.concatenate([kernel(points[start:start + step], y[start:start + step], *args)
                           for start in range(0, len(points), step)], axis=1)


def _sides(values):
    """lhs = values[0] and rhs = values[1] + ... + values[n], summed from zeros in slot order."""
    rhs = np.zeros_like(values[0])
    for v in values[1:]:
        rhs += v
    return values[0], rhs


def _product_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n + 1, rows) products of the pair distances of x and of each x with slot s -> y.

    x is (rows, n) complex, distance abs, or (rows, n, m) real, distance the
    Euclidean norm.
    """
    n = x.shape[1]
    j, i = _pair_indices(n)
    diffs = np.concatenate([x[:, i] - x[:, j], y[:, None] - x], axis=1)
    factors = np.abs(diffs) if diffs.ndim == 2 else np.linalg.norm(diffs, axis=2)
    return np.prod(np.take(factors, _slot_map(n, False), axis=1), axis=2).T


def _replacement_products(points: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = points.shape[1]
    return _replacement_rows(_product_rows, (n + 1) * n * (n - 1) // 2, points, y)


def simplex_sides_complex(points: np.ndarray, y: np.ndarray, root: bool = False):
    """(lhs, rhs) of the simplex inequality for each row.

    points is (B, n) complex with y (B,), or (B, n, m) real with y (B, m).
    The sides are the pairwise-distance product (d_V for complex points),
    or its 2 / (n(n-1)) power (the root metric) with root.
    """
    values = _replacement_products(points, y)
    return _sides(values ** _root_power(points.shape[1]) if root else values)


# The same kernel: _product_rows measures vectors with the Euclidean norm.
# Both names stay, as bench/spans.py traces each.
simplex_sides_vectors = simplex_sides_complex


def extended_sides_complex(z: np.ndarray, y: np.ndarray, ks):
    """(lhs, rhs) of |y|^k d_V(z) <= sum_s |z_s|^k d_V(z with z_s -> y) for each k of ks.

    Both are (len(ks), B); the products are computed once for every k.
    """
    values = _replacement_products(z, y)
    weights = [np.abs(y)] + [np.abs(z[:, s]) for s in range(z.shape[1])]
    lhs, rhs = zip(*(_sides([w ** k * v for w, v in zip(weights, values)]) for k in ks))
    return np.array(lhs), np.array(rhs)


# ---------------------------------------------------------------------------
# Complex-product-projection map, batched over re/im planes


def _complex_step(re, im, a, b, x, y):
    """(re + i im)(a + i b) into buffers; returns (re, im, free buffer).

    Split as re*a - im*b, re*b + im*a, never numpy's complex multiply; x
    receives the real part, y is scratch, im is overwritten.
    """
    np.multiply(re, a, out=x)
    np.multiply(im, b, out=y)
    np.subtract(x, y, out=x)
    np.multiply(re, b, out=y)
    np.multiply(im, a, out=im)
    np.add(y, im, out=im)
    return x, im, re


def _apply_projected(planes_re: np.ndarray, planes_im: np.ndarray):
    """Fold K projected complex factors left to right; planes are (K, ...) re and im.

    Returns the (re, im) products, each shaped like one plane.
    """
    re, im = planes_re[0].copy(), planes_im[0].copy()
    x, y = np.empty_like(re), np.empty_like(re)
    for a, b in zip(planes_re[1:], planes_im[1:]):
        re, im, x = _complex_step(re, im, a, b, x, y)
    return re, im


def _coordinate_planes(points: np.ndarray):
    """Contiguous re and im planes (n, B, M_m) of (B, n, m) points, point-major.

    The re plane holds coordinate t1 and the im plane coordinate t2 of each
    coordinate pair t1 < t2.
    """
    return tuple(np.ascontiguousarray(points[:, :, t].transpose(1, 0, 2))
                 for t in _pair_indices(points.shape[2]))


def pdf_batch(points: np.ndarray):
    """Product-difference form per row; points is (B, n, m).

    Returns (re, im) arrays of shape (B, M_m).
    """
    j_idx, i_idx = _pair_indices(points.shape[1])
    return _apply_projected(*(p[i_idx] - p[j_idx] for p in _coordinate_planes(points)))


@lru_cache(maxsize=None)
def _fold_map(n: int, q: int) -> np.ndarray:
    """Read-only (P + q - 1, n + 1) projected-pool positions of each tuple's factors.

    The pool of _projected_rows: the signed slot-map pool, then the tails y
    and x_0 .. x_{n-1}; each tuple's P pair factors come first, then q - 1
    copies of its tail (y for x, x_s for x with slot s -> y).
    """
    p = n * (n - 1) // 2
    tails = np.tile(p + 2 * n + np.arange(n + 1), (q - 1, 1))
    fold = np.concatenate([_slot_map(n, True).T, tails])
    fold.flags.writeable = False
    return fold


def _projected_rows(x: np.ndarray, y: np.ndarray, q: int):
    """Re and im (n + 1, rows, M_m) of the projected fold of x and of each x with slot s -> y."""
    n = x.shape[1]
    j, i = _pair_indices(n)
    fold = _fold_map(n, q)
    planes = []
    for p in _coordinate_planes(np.concatenate([y[:, None], x], axis=1)):
        yp, xp = p[:1], p[1:]
        pool = np.concatenate([xp[i] - xp[j], yp - xp, xp - yp, p])
        planes.append(np.take(pool, fold, axis=0))
    return _apply_projected(*planes)


def _projected_elements(points: np.ndarray, q: int) -> int:
    """Elements of one row's gathered re planes in _projected_rows (as many for im)."""
    n, m = points.shape[1:]
    return (n + 1) * (n * (n - 1) // 2 + q - 1) * (m * (m - 1) // 2)


# Elements of one (C, B, P) fold buffer: C permutations of B rows at P
# coordinate pairs.  Six such buffers stay near 1 MB of float64.
EXPANSION_CHUNK_ELEMENTS = 16384


def expansion_batch(points: np.ndarray):
    """Signed permutation expansion per row; must match pdf_batch.

    The permutations run in chunks of C, lexicographically.  Each leaf is
    folded left to right with _complex_step, as in _apply_projected, and
    the signed leaves are added into the accumulator in permutation order,
    so every element gets the same sequence of operations as a
    per-permutation loop.
    """
    B, n, m = points.shape
    if n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    p = m * (m - 1) // 2
    # Point-major planes, so that one np.take gathers a factor of every leaf.
    planes_re, planes_im = _coordinate_planes(points)
    acc_re = np.zeros((B, p), dtype=points.dtype)
    acc_im = np.zeros((B, p), dtype=points.dtype)
    chunk = max(1, EXPANSION_CHUNK_ELEMENTS // (B * p))
    re, im, a, b, x, y = (np.empty((chunk, B, p), dtype=points.dtype) for _ in range(6))
    signs, indices = expansion_terms(n)
    for start in range(0, len(signs), chunk):
        idx = indices[start:start + chunk]
        c = len(idx)
        # mode="clip" writes straight into out; the default mode buffers it.
        re_c, im_c, a_c, b_c, x_c, y_c = re[:c], im[:c], a[:c], b[:c], x[:c], y[:c]
        np.take(planes_re, idx[:, 0], axis=0, out=re_c, mode="clip")
        np.take(planes_im, idx[:, 0], axis=0, out=im_c, mode="clip")
        for k in range(1, idx.shape[1]):
            np.take(planes_re, idx[:, k], axis=0, out=a_c, mode="clip")
            np.take(planes_im, idx[:, k], axis=0, out=b_c, mode="clip")
            re_c, im_c, x_c = _complex_step(re_c, im_c, a_c, b_c, x_c, y_c)
        for j, sign in enumerate(signs[start:start + c].tolist()):
            step = np.add if sign > 0 else np.subtract
            step(acc_re, re_c[j], out=acc_re)
            step(acc_im, im_c[j], out=acc_im)
    return acc_re, acc_im


def _norm(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Euclidean norm of the [re | im] components along the last axis, in float."""
    return np.sqrt(np.sum(re.astype(float) ** 2 + im.astype(float) ** 2, axis=-1))


def generalized_metric_batch(points: np.ndarray) -> np.ndarray:
    return _norm(*pdf_batch(points))


def _generalized_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _norm(*_projected_rows(x, y, 1))


def simplex_sides_generalized(points: np.ndarray, y: np.ndarray):
    return _sides(_replacement_rows(_generalized_rows, _projected_elements(points, 1),
                                    points, y))


def sum_identity_sides(points: np.ndarray, y: np.ndarray):
    """(lhs, rhs) component stacks of the replacement identity; y is (B, m)."""
    return w_identity_sides(points, y, 1)


def _w_rows(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    return np.concatenate(_projected_rows(x, y, q), axis=2)


def w_identity_sides(points: np.ndarray, y: np.ndarray, q: int):
    """(lhs, rhs) component stacks [re | im] of the extended identity; y is (B, m)."""
    return _sides(_replacement_rows(_w_rows, _projected_elements(points, q), points, y, q))


def max_gap_and_scale(lhs: np.ndarray, rhs: np.ndarray):
    """Per-row max-norm identity gap and scale max(|lhs|, |rhs|, 1)."""
    v = verdict(IDENTITY, LINEAR, lhs.astype(float), rhs.astype(float), 0.0)
    return v.gap, v.scale
