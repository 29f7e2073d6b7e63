"""Vectorized evaluators used by the randomized campaigns.

These mirror the scalar operations in core/multilinear over whole batches of
inputs.  They trade the canonical factor ordering of the scalar API for
speed (campaign checks are tolerance-based), and they run on int64 arrays
as well, which gives exact integer arithmetic for small inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import IDENTITY, LINEAR, verdict
from .multilinear import EXPANSION_MAX_N, ordered_pairs, permutation_sign
from .errors import ResourceError


def pair_index_arrays(n: int):
    pairs = ordered_pairs(n)
    j_idx = np.array([j for j, _ in pairs])
    i_idx = np.array([i for _, i in pairs])
    return j_idx, i_idx


# ---------------------------------------------------------------------------
# Complex scalar metrics


def dv_batch(z: np.ndarray) -> np.ndarray:
    """Pairwise-distance products for a (B, n) array of complex points."""
    j_idx, i_idx = pair_index_arrays(z.shape[1])
    return np.prod(np.abs(z[:, i_idx] - z[:, j_idx]), axis=1)


def root_batch(z: np.ndarray) -> np.ndarray:
    n = z.shape[1]
    return dv_batch(z) ** (2.0 / (n * (n - 1)))


def simplex_sides_complex(z: np.ndarray, y: np.ndarray, metric=dv_batch):
    """(lhs, rhs) of the simplex inequality for each row; y is (B,) complex."""
    lhs = metric(z)
    rhs = np.zeros_like(lhs)
    for i in range(z.shape[1]):
        replaced = z.copy()
        replaced[:, i] = y
        rhs += metric(replaced)
    return lhs, rhs


def extended_sides_complex(z: np.ndarray, y: np.ndarray, k: int):
    lhs = np.abs(y) ** k * dv_batch(z)
    rhs = np.zeros_like(lhs)
    for i in range(z.shape[1]):
        replaced = z.copy()
        replaced[:, i] = y
        rhs += np.abs(z[:, i]) ** k * dv_batch(replaced)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Euclidean metrics on R^m


def pairwise_product_batch(x: np.ndarray) -> np.ndarray:
    """Products of pairwise Euclidean distances for (B, n, m) point batches."""
    j_idx, i_idx = pair_index_arrays(x.shape[1])
    d = np.linalg.norm(x[:, i_idx, :] - x[:, j_idx, :], axis=2)
    return np.prod(d, axis=1)


def simplex_sides_vectors(x: np.ndarray, y: np.ndarray, metric=pairwise_product_batch):
    """(lhs, rhs) of the simplex inequality; y is (B, m)."""
    lhs = metric(x)
    rhs = np.zeros_like(lhs)
    for i in range(x.shape[1]):
        replaced = x.copy()
        replaced[:, i, :] = y
        rhs += metric(replaced)
    return lhs, rhs


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


def _tau_arrays(m: int):
    pairs = ordered_pairs(m)
    return (np.array([t1 for t1, _ in pairs]), np.array([t2 for _, t2 in pairs]))


def pdf_batch(points: np.ndarray):
    """Product-difference form per row; points is (B, n, m).

    Returns (re, im) arrays of shape (B, M_m).
    """
    n = points.shape[1]
    j_idx, i_idx = pair_index_arrays(n)
    diffs = points[:, i_idx, :] - points[:, j_idx, :]
    t1, t2 = _tau_arrays(points.shape[2])
    return _apply_projected(diffs, t1, t2)


def expansion_batch(points: np.ndarray):
    """Signed permutation expansion per row; must match pdf_batch."""
    B, n, m = points.shape
    if n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    t1, t2 = _tau_arrays(m)
    p = len(t1)
    acc_re = np.zeros((B, p), dtype=points.dtype)
    acc_im = np.zeros((B, p), dtype=points.dtype)
    for perm in itertools.permutations(range(n)):
        idx = [j for j, power in enumerate(perm) for _ in range(power)]
        sign = permutation_sign(perm)
        re, im = _apply_projected(points[:, idx, :], t1, t2)
        if sign > 0:
            acc_re += re
            acc_im += im
        else:
            acc_re -= re
            acc_im -= im
    return acc_re, acc_im


def generalized_metric_batch(points: np.ndarray) -> np.ndarray:
    re, im = pdf_batch(points)
    return np.sqrt(np.sum(re.astype(float) ** 2 + im.astype(float) ** 2, axis=1))


def simplex_sides_generalized(points: np.ndarray, y: np.ndarray):
    lhs = generalized_metric_batch(points)
    rhs = np.zeros_like(lhs)
    for i in range(points.shape[1]):
        replaced = points.copy()
        replaced[:, i, :] = y
        rhs += generalized_metric_batch(replaced)
    return lhs, rhs


def sum_identity_sides(points: np.ndarray, y: np.ndarray):
    """(lhs, rhs) component stacks of the replacement identity; y is (B, m)."""
    lr, li = pdf_batch(points)
    rr = np.zeros_like(lr)
    ri = np.zeros_like(li)
    for i in range(points.shape[1]):
        replaced = points.copy()
        replaced[:, i, :] = y
        tr, ti = pdf_batch(replaced)
        rr += tr
        ri += ti
    lhs = np.concatenate([lr, li], axis=1)
    rhs = np.concatenate([rr, ri], axis=1)
    return lhs, rhs


def _w_sides_one(points, tail, q, t1, t2):
    n = points.shape[1]
    j_idx, i_idx = pair_index_arrays(n)
    diffs = points[:, i_idx, :] - points[:, j_idx, :]
    if q > 1:
        tail_args = np.repeat(tail[:, None, :], q - 1, axis=1)
        args = np.concatenate([diffs, tail_args], axis=1)
    else:
        args = diffs
    return _apply_projected(args, t1, t2)


def w_identity_sides(points: np.ndarray, y: np.ndarray, q: int):
    """(lhs, rhs) component stacks of the extended identity; y is (B, m)."""
    m = points.shape[2]
    t1, t2 = _tau_arrays(m)
    lr, li = _w_sides_one(points, y, q, t1, t2)
    rr = np.zeros_like(lr)
    ri = np.zeros_like(li)
    for i in range(points.shape[1]):
        replaced = points.copy()
        replaced[:, i, :] = y
        tr, ti = _w_sides_one(replaced, points[:, i, :], q, t1, t2)
        rr += tr
        ri += ti
    lhs = np.concatenate([lr, li], axis=1)
    rhs = np.concatenate([rr, ri], axis=1)
    return lhs, rhs


def max_gap_and_scale(lhs: np.ndarray, rhs: np.ndarray):
    """Per-row max-norm identity gap and scale max(|lhs|, |rhs|, 1)."""
    v = verdict(IDENTITY, LINEAR, lhs.astype(float), rhs.astype(float), 0.0)
    return v.gap, v.scale
