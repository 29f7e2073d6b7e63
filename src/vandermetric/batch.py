"""Vectorized evaluators used by the randomized campaigns.

These mirror the scalar operations in core/multilinear over whole batches of
inputs.  They trade the canonical factor ordering of the scalar API for
speed (campaign checks are tolerance-based), and they run on int64 arrays
as well, which gives exact integer arithmetic for small inputs.
"""

from __future__ import annotations

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


def root_batch(z: np.ndarray) -> np.ndarray:
    n = z.shape[1]
    return dv_batch(z) ** (2.0 / (n * (n - 1)))


def _replacement_sides(points: np.ndarray, y: np.ndarray, side):
    """lhs = side(points, y) and rhs = sum_i side(points with slot i -> y, points[:, i]).

    points is (B, n) or (B, n, m) and y is one slot of each row; rhs is
    summed in slot order.
    """
    lhs = side(points, y)
    rhs = np.zeros_like(lhs)
    for i in range(points.shape[1]):
        replaced = points.copy()
        replaced[:, i] = y
        rhs += side(replaced, points[:, i])
    return lhs, rhs


def simplex_sides_complex(z: np.ndarray, y: np.ndarray, metric=dv_batch):
    """(lhs, rhs) of the simplex inequality for each row; y is (B,) complex."""
    return _replacement_sides(z, y, lambda points, _: metric(points))


def extended_sides_complex(z: np.ndarray, y: np.ndarray, k: int):
    return _replacement_sides(z, y, lambda points, w: np.abs(w) ** k * dv_batch(points))


# ---------------------------------------------------------------------------
# Euclidean metrics on R^m


def pairwise_product_batch(x: np.ndarray) -> np.ndarray:
    """Products of pairwise Euclidean distances for (B, n, m) point batches."""
    j_idx, i_idx = _pair_indices(x.shape[1])
    d = np.linalg.norm(x[:, i_idx, :] - x[:, j_idx, :], axis=2)
    return np.prod(d, axis=1)


def simplex_sides_vectors(x: np.ndarray, y: np.ndarray, metric=pairwise_product_batch):
    """(lhs, rhs) of the simplex inequality; y is (B, m)."""
    return _replacement_sides(x, y, lambda points, _: metric(points))


# ---------------------------------------------------------------------------
# Complex-product-projection map, batched over re/im planes


def _apply_projected(args: np.ndarray, t1: np.ndarray, t2: np.ndarray):
    """Fold K projected complex factors; args is (B, K, m) real (or int).

    Returns (re, im) arrays of shape (B, P) with P coordinate pairs.
    """
    ar = args[:, :, t1]
    ai = args[:, :, t2]
    re = ar[:, 0, :].copy()
    im = ai[:, 0, :].copy()
    for k in range(1, args.shape[1]):
        a, b = ar[:, k, :], ai[:, k, :]
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _projected_form(points: np.ndarray, tail, q: int):
    """Fold each row's pairwise differences plus q - 1 copies of tail (B, m).

    Returns (re, im) arrays of shape (B, M_m).
    """
    j_idx, i_idx = _pair_indices(points.shape[1])
    args = points[:, i_idx, :] - points[:, j_idx, :]
    if q > 1:
        args = np.concatenate([args, np.repeat(tail[:, None, :], q - 1, axis=1)], axis=1)
    return _apply_projected(args, *_pair_indices(points.shape[2]))


def pdf_batch(points: np.ndarray):
    """Product-difference form per row; points is (B, n, m).

    Returns (re, im) arrays of shape (B, M_m).
    """
    return _projected_form(points, None, 1)


# Elements of one (C, B, P) fold buffer: C permutations of B rows at P
# coordinate pairs.  Six such buffers stay near 1 MB of float64.
EXPANSION_CHUNK_ELEMENTS = 16384


def expansion_batch(points: np.ndarray):
    """Signed permutation expansion per row; must match pdf_batch.

    The permutations run in chunks of C, lexicographically.  Each leaf is
    folded left to right with the step of _apply_projected, and the signed
    leaves are added into the accumulator in permutation order, so every
    element gets the same sequence of operations as a per-permutation loop.
    """
    B, n, m = points.shape
    if n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    t1, t2 = _pair_indices(m)
    p = len(t1)
    # Point-major planes, so that one np.take gathers a factor of every leaf.
    planes_re = np.ascontiguousarray(points[:, :, t1].transpose(1, 0, 2))
    planes_im = np.ascontiguousarray(points[:, :, t2].transpose(1, 0, 2))
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
            # re, im = re * a - im * b, re * b + im * a
            np.multiply(re_c, a_c, out=x_c)
            np.multiply(im_c, b_c, out=y_c)
            np.subtract(x_c, y_c, out=x_c)
            np.multiply(re_c, b_c, out=y_c)
            np.multiply(im_c, a_c, out=im_c)
            np.add(y_c, im_c, out=im_c)
            re_c, x_c = x_c, re_c
        for j, sign in enumerate(signs[start:start + c].tolist()):
            step = np.add if sign > 0 else np.subtract
            step(acc_re, re_c[j], out=acc_re)
            step(acc_im, im_c[j], out=acc_im)
    return acc_re, acc_im


def generalized_metric_batch(points: np.ndarray) -> np.ndarray:
    re, im = pdf_batch(points)
    return np.sqrt(np.sum(re.astype(float) ** 2 + im.astype(float) ** 2, axis=1))


def simplex_sides_generalized(points: np.ndarray, y: np.ndarray):
    return _replacement_sides(points, y, lambda x, _: generalized_metric_batch(x))


def sum_identity_sides(points: np.ndarray, y: np.ndarray):
    """(lhs, rhs) component stacks of the replacement identity; y is (B, m)."""
    return w_identity_sides(points, y, 1)


def w_identity_sides(points: np.ndarray, y: np.ndarray, q: int):
    """(lhs, rhs) component stacks [re | im] of the extended identity; y is (B, m)."""
    return _replacement_sides(
        points, y, lambda x, tail: np.concatenate(_projected_form(x, tail, q), axis=1))


def max_gap_and_scale(lhs: np.ndarray, rhs: np.ndarray):
    """Per-row max-norm identity gap and scale max(|lhs|, |rhs|, 1)."""
    v = verdict(IDENTITY, LINEAR, lhs.astype(float), rhs.astype(float), 0.0)
    return v.gap, v.scale
