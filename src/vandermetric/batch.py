"""Vectorized evaluators used by the randomized campaigns.

These mirror the scalar operations in core/multilinear over whole batches of
inputs.  They trade the canonical factor ordering of the scalar API for
speed (campaign checks are tolerance-based), and they run on int64 arrays
as well, which gives exact integer arithmetic for small inputs.

The replacement kernels compare a function of each tuple x with the n
tuples "x with x_s -> y".  The product pass, core's lockstep fold, is
the evaluator of core.replacement_sides, which the simplex, extended and
equality-family campaigns call; simplex_sides_complex,
simplex_sides_vectors, extended_sides_complex and
simplex_sides_generalized are that fold (core._linear_sides) without
its log escape, at any n and on int64 inputs, the last one on each
coordinate plane with the l2 norm over the planes.

The multilinear kernels multiply projected complex factors with one
complex product, _product_calls: re and im are the halves of one stacked
(2, ...) array, and a product is four numpy calls over both.  One
lockstep fold, _fold, gathers one factor per member from a stacked
factor-major (2, K, ...) re/im pool each step and multiplies it in.
pdf_batch folds the pair differences as one member; the projected pass
of the replacement identities folds the n + 1 tuples, as the signed slot
map (core._slot_map) lists their factors, in chunks of at most
core.REPLACEMENT_CHUNK_ELEMENTS pool and buffer elements, or one row,
then multiplies in their q - 1 tails straight from the pool.  Both pools
are plane-major, rows last (_plane_pool), and so is that pass from end
to end (_projected_rows): a chunk's points are copied once,
coordinate-major, its factors make one (2, K, M_m, rows) re/im pool, and
the products are summed straight into component-major (2 M_m, B) sides,
whose transposed (B, 2 M_m) views, [re | im] per row, are what
w_identity_sides returns.  The identity campaigns take their sides from
identity_blocks, one row block of whole chunks at a time, and judge each
block before the next, so their sides never span the whole batch.

The permutation expansion, expansion_batch, is the one kernel of the
Leibniz sum for float and int64 points alike: a Laplace subset recursion
in n 2^(n-1) complex multiply-adds per row and plane (_laplace_rows).
Its re and im planes are stacked as well, and its complex products are
_product_calls; each step's tables are column-major, so each column of
terms it sums is one contiguous block per plane; and each term's sign
is folded into the row of a signed power table it reads, which keeps
the bits of negating the power.  Its row chunks of
LAPLACE_CHUNK_ELEMENTS share one working set, so its temporaries do not
grow with B either, and every full chunk runs one plan, the list of its
numpy calls with their views of that working set, built once per call
(_laplace_plan).
"""

from __future__ import annotations

import itertools
import logging
import math
from functools import lru_cache

import numpy as np

from .core import (EXPANSION_MAX_N, IDENTITY, LINEAR, _block_rows, _check_points,
                   _linear_sides, _pair_differences, _pair_indices, _replacement_rows,
                   _root_power, _slices, _slot_map, verdict)
from .errors import ResourceError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Complex scalar metrics


def dv_batch(z: np.ndarray) -> np.ndarray:
    """Pairwise-distance products for a (B, n) array of complex points."""
    j_idx, i_idx = _pair_indices(z.shape[1])
    return np.prod(np.abs(z[:, i_idx] - z[:, j_idx]), axis=1)


def root_batch(z: np.ndarray) -> np.ndarray:
    return dv_batch(z) ** _root_power(z.shape[1])


# ---------------------------------------------------------------------------
# The raw replacement kernels: core's lockstep fold without its log escape


def simplex_sides_complex(points: np.ndarray, y: np.ndarray, root: bool = False):
    """(lhs, rhs) of the simplex inequality for each row, at any n.

    points is (B, n) complex with y (B,), or (B, n, m) real with y (B, m).
    The sides are the pairwise-distance product (d_V for complex points),
    or its 2 / (n(n-1)) power (the root metric) with root.
    """
    lhs, rhs = _linear_sides(points, y, "root" if root else "vandermonde", (0,))
    return lhs[0], rhs[0]


# The same kernel: core._product_rows measures vectors with the Euclidean norm.
# Both names stay, as bench/spans.py traces each.
simplex_sides_vectors = simplex_sides_complex


def extended_sides_complex(z: np.ndarray, y: np.ndarray, ks):
    """(lhs, rhs) of |y|^k d_V(z) <= sum_s |z_s|^k d_V(z with z_s -> y) for each k of ks.

    Both are (len(ks), B); the products are computed once for every k.
    """
    return _linear_sides(z, y, "vandermonde", ks)


# ---------------------------------------------------------------------------
# Complex-product-projection map, batched over stacked re/im planes


def _product_calls(a, b, out, scratch):
    """The four numpy calls of (a[0] + i a[1])(b[0] + i b[1]) into out[0] (re) and out[1] (im).

    re = a_re b_re - a_im b_im and im = a_re b_im + a_im b_re, split, never
    numpy's complex multiply, over re and im at once: out = a b[0] and
    scratch = a b[1] broadcast each part of b over both of a's, then
    out[0] - scratch[1] and scratch[0] + out[1].  The calls come as
    (function, arguments) pairs.  scratch may be a, and is overwritten.
    """
    return [(np.multiply, (a, b[0], out)), (np.multiply, (a, b[1], scratch)),
            (np.subtract, (out[0], scratch[1], out[0])), (np.add, (scratch[0], out[1], out[1]))]


def _fold(pool, columns, tails, count):
    """The lockstep products of the factors columns names, times tails count times.

    pool is the (2, K, ...) re and im of K factors and columns is
    (L, members): step k gathers each member's k-th factor,
    pool[:, columns[k]], into one (2, members, ...) buffer and multiplies
    it in (_product_calls); the first factor starts the fold.  Then the
    (2, members, ...) tails multiply in count times, read where they are.
    The products alternate between two accumulators, so the calls of both
    directions are built once.  Returns the (2, members, ...) products in
    the pool's dtype.
    """
    acc = np.empty((2, columns.shape[1]) + pool.shape[2:], pool.dtype)
    other, factor = np.empty_like(acc), np.empty_like(acc)
    # mode="clip" writes straight into out; the default mode buffers it.
    pool.take(columns[0], 1, acc, "clip")
    # Step k multiplies sides[k % 2][0] into sides[k % 2][1].
    sides = (acc, other), (other, acc)
    gathered = [_product_calls(a, factor, out, a) for a, out in sides]
    tailed = [_product_calls(a, tails, out, a) for a, out in sides] if count else None
    gathers, steps = len(columns) - 1, len(columns) - 1 + count
    for k in range(steps):
        if k < gathers:
            pool.take(columns[k + 1], 1, factor, "clip")
        for call, arguments in (gathered if k < gathers else tailed)[k % 2]:
            call(*arguments)
    return sides[steps % 2][0]


def _plane_pool(factors: np.ndarray) -> np.ndarray:
    """The (2, K, M_m, rows) re/im pool of K coordinate-major (K, m, rows) factors.

    One take per part: coordinate s (re) and t (im) of each coordinate
    pair s < t.
    """
    coordinates = _pair_indices(factors.shape[1])
    pool = np.empty((2, len(factors), len(coordinates[0])) + factors.shape[2:], factors.dtype)
    for part, c in zip(pool, coordinates):
        factors.take(c, 1, part, "clip")
    return pool


def pdf_batch(points: np.ndarray):
    """Product-difference form per row; points is (B, n, m).

    The points are copied once, coordinate-major, their P pair
    differences (core._pair_differences) make the (2, P, M_m, B) pool
    (_plane_pool), and the pool folds as one member (_fold).  Returns
    contiguous (re, im) arrays of shape (B, M_m), in the points' dtype;
    one point is the empty product, 1 + 0i, as in expansion_batch.
    """
    b, n, m = points.shape
    if n < 2:
        shape = (b, m * (m - 1) // 2)
        return np.ones(shape, points.dtype), np.zeros(shape, points.dtype)
    pool = _plane_pool(_pair_differences(np.ascontiguousarray(points.transpose(1, 2, 0))))
    product = _fold(pool, np.arange(pool.shape[1])[:, None], None, 0)
    re, im = np.ascontiguousarray(product[:, 0].transpose(0, 2, 1))
    return re, im


def _projected_elements(n: int, m: int) -> int:
    """Elements of one row of _projected_rows at its peak, with K = P + 3n + 1.

    Per coordinate pair the re/im pool of K factors stays throughout;
    beside it first the K coordinate-major factors of m coordinates
    (_projected_pool), then the three re/im buffers of n + 1 of the fold
    (_fold), one of them the result.  Fewer than 2 points are an
    ArgumentError (core._check_points).
    """
    _check_points(n)
    k, pairs = n * (n - 1) // 2 + 3 * n + 1, m * (m - 1) // 2
    return 2 * k * pairs + max(k * m, 6 * (n + 1) * pairs)


def _projected_pool(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (2, K, M_m, rows) re/im pool of _projected_rows, K = P + 3n + 1.

    The signed slot-map pool (core._slot_map), then the tails y and x_0
    .. x_{n-1}, are written coordinate-major into one (K, m, rows) array:
    the chunk is copied once into the tails, and the differences are
    subtracted from them (core._pair_differences), and its planes make
    the pool (_plane_pool).  Both take the dtype np.result_type(x, y).
    """
    rows, n, m = x.shape
    p = n * (n - 1) // 2
    factors = np.empty((p + 3 * n + 1, m, rows), np.result_type(x, y))
    tails = factors[p + 2 * n:]
    tails[0] = y.T
    tails[1:] = x.transpose(1, 2, 0)
    ys, xs = tails[:1], tails[1:]
    _pair_differences(xs, factors)
    np.subtract(ys, xs, out=factors[p:p + n])
    np.subtract(xs, ys, out=factors[p + n:p + 2 * n])
    return _plane_pool(factors)


def _projected_rows(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """(n + 1, 2, M_m, rows) re and im of the projected fold of x and of each x with slot s -> y.

    Plane-major throughout, rows last.  The n + 1 tuples fold their P pair
    factors from the chunk's pool (_projected_pool) in lockstep, as the
    signed slot map lists them, then multiply in q - 1 times their tails
    (y for x, x_s for x with slot s -> y), the pool's last n + 1 factors,
    in tuple order (_fold).  The values are in the pool's dtype.
    """
    n = x.shape[1]
    pool = _projected_pool(x, y)
    return _fold(pool, _slot_map(n, True), pool[:, -(n + 1):], q - 1).swapaxes(0, 1)


# Elements of one row chunk's working set in the subset recursion: the
# coordinates, the signed power table and the three term buffers of its
# widest step, re and im, of R rows and P coordinate pairs (_laplace_rows).
# 1.5 MiB of float64 or int64, so a chunk still fits a 2 MiB L2 cache.  A
# chunk makes the same numpy calls whatever its rows, about 70 at n = 6,
# so fewer, larger chunks spend less of the time on them.
LAPLACE_CHUNK_ELEMENTS = 196608


@lru_cache(maxsize=None)
def _laplace_steps(n: int) -> tuple:
    """The steps of the subset recursion that add points 1 .. n-1, each (sources, powers).

    The subsets of {0, ..., n-1} of each size are listed in combinations
    order.  Adding point j gives each subset T of j + 1 powers the sum over
    p in T of (-1)^#{s in T : s > p} D[T - {p}] z_j^p.  Both tables are
    read-only (j + 1, C(n, j + 1)), column-major: row k holds, for every T,
    its k-th power p in ascending order.  sources holds the position of
    T - {p} among the subsets of j powers, and powers the row of +-z_j^p
    among the 2n^2 rows of the signed power table (_signed_power_calls),
    s n + j with s = p where the sign is + and s = n + p where it is -.
    The p in row k has j - k members of T above it, so the rows alternate
    in sign and the last is +.
    """
    steps = []
    previous = {(p,): p for p in range(n)}
    for j in range(1, n):
        targets = list(itertools.combinations(range(n), j + 1))
        sources = np.array([[previous[t[:k] + t[k + 1:]] for t in targets] for k in range(j + 1)],
                           dtype=np.intp)
        signed = np.array(targets, dtype=np.intp).T + n * (np.arange(j, -1, -1) % 2)[:, None]
        powers = signed * n + j
        sources.flags.writeable = powers.flags.writeable = False
        steps.append((sources, powers))
        previous = {t: k for k, t in enumerate(targets)}
    return tuple(steps)


def _laplace_terms(n: int) -> int:
    """The most terms of one step, (j + 1) C(n, j + 1) = n C(n - 1, j) at j = (n - 1) // 2."""
    return n * math.comb(n - 1, (n - 1) // 2)


def _laplace_elements(n: int, m: int) -> int:
    """Working-set elements per row of _laplace_rows, of at least one coordinate pair.

    re and im of the n coordinates, of the 2n^2 signed powers and of three
    term buffers of the widest step (_laplace_terms), per coordinate pair.
    """
    return 2 * (n + 2 * n * n + 3 * _laplace_terms(n)) * max(1, m * (m - 1) // 2)


def _signed_power_calls(xs, table, scratch):
    """The calls that fill the (2, 2n, n, W) table: z_j^p at [:, p, j], -z_j^p at [:, n + p, j].

    xs is the (2, n, W) re and im of the n points z, and scratch is
    (2, n, W).  z^0 = 1 is written here, once: no call writes over it.
    Each further power is one complex product of all n points
    (_product_calls), and the lower half is the upper half negated, so a
    - term of the recursion multiplies by -z_j^p: the operands, and so the
    bits, of negating the power before the product.  Subtracting the +
    product in the sum instead would flip the sign of exact zeros.
    """
    n = xs.shape[1]
    table[0, 0], table[1, 0] = 1, 0
    calls = [call for p in range(1, n)
             for call in _product_calls(table[:, p - 1], xs, table[:, p], scratch)]
    return calls + [(np.negative, (table[:, :n], table[:, n:]))]


def _left_sum_calls(terms):
    """The calls that add terms[:, 0] + terms[:, 1] + ... left to right into terms[:, 0].

    Each terms[:, k] is one contiguous block per plane.  np.add.reduce
    adds the terms of an element pairwise once they are contiguous, so its
    bits would depend on the chunk's shape.
    """
    first = terms[:, 0]
    return [(np.add, (first, terms[:, k], first)) for k in range(1, terms.shape[1])]


def _views(work, *shapes):
    """Consecutive views of the flat work array, one of each shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[at:at + size].reshape(shape))
        at += size
    return views


def _laplace_plan(work, n, rows, pairs):
    """The numpy calls that expand a chunk of rows rows of pairs coordinate pairs in work.

    Returns (coordinates, calls, result): the (rows, n, 2, pairs) view the
    chunk's coordinates are copied into, the (function, arguments) calls
    that compute the chunk's expansion from them, every view they take
    made here, and the (2, rows, pairs) view that then holds it.  With
    W = rows pairs, the calls fill the signed power table
    (_signed_power_calls); the subset table starts as D[{p}] = z_0^p.  A
    step gathers its terms' D values and signed powers into
    (2, j + 1, C, W) buffers, multiplies them into the third
    (_product_calls), over the table it has read, and sums the j + 1
    columns into the first (_left_sum_calls), which is the next table.
    """
    width = rows * pairs
    xs, table, *buffers = _views(work, (2, n, rows, pairs), (2, 2 * n, n, width),
                                 *[(2 * _laplace_terms(n) * width,)] * 3)
    coordinates, xs = xs.transpose(2, 1, 0, 3), xs.reshape(2, n, width)
    calls = _signed_power_calls(xs, table, buffers[0][:xs.size].reshape(xs.shape))
    # Both takes read contiguous tables: the power rows, and a step's
    # terms, whose first column holds the sums.
    d, rows_of_powers = table[:, :n, 0], table.reshape(2, -1, width)
    for sources, signed in _laplace_steps(n):
        shape = (2,) + sources.shape + (width,)
        a, b, products = (buffer[:math.prod(shape)].reshape(shape) for buffer in buffers)
        calls += [(d.take, (sources, 1, a, "clip")), (rows_of_powers.take, (signed, 1, b, "clip")),
                  *_product_calls(a, b, products, a), *_left_sum_calls(products)]
        d = products.reshape(2, -1, width)
    return coordinates, calls, d[:, 0].reshape(2, rows, pairs)


def _laplace_rows(points, out):
    """The expansion of the (B, n, m) points by subset recursion into the (2, B, P) out, re then im.

    Rows run in chunks of R rows whose working set, re and im of W = R P
    row-planes, holds at most LAPLACE_CHUNK_ELEMENTS elements
    (_laplace_elements per row).  It is allocated once per call, in the
    points' dtype.  The plan of a full chunk (_laplace_plan) is built once
    and runs every full chunk, so a chunk makes only the kernel's numpy
    calls; the last chunk, if partial, gets its own plan over the same
    work array.  n is not limited here.  Returns R.
    """
    B, n, m = points.shape
    pairs = np.array(_pair_indices(m))
    per_row = _laplace_elements(n, m)
    rows = max(1, min(B, LAPLACE_CHUNK_ELEMENTS // per_row))
    work = np.empty(rows * per_row, points.dtype)
    plan = _laplace_plan(work, n, rows, pairs.shape[1])
    for start in range(0, B, rows):
        if B - start < rows:
            plan = _laplace_plan(work, n, B - start, pairs.shape[1])
        coordinates, calls, result = plan
        coordinates[...] = points[start:start + rows, :, pairs]
        for call, arguments in calls:
            call(*arguments)
        out[:, start:start + rows] = result
    return rows


def expansion_batch(points: np.ndarray):
    """Signed permutation expansion per row by Laplace subset recursion; must match pdf_batch.

    points is (B, n, m), float or int; returns (re, im) arrays of shape
    (B, M_m) in the points' dtype.  Per coordinate pair, with z_j =
    x_j[s] + i x_j[t], the sum over permutations sigma of sgn(sigma)
    prod_j z_j^sigma(j) is the last of the subset sums D[S] over
    bijections from points 0 .. |S|-1 to the powers in S; adding one
    point costs a complex multiply-add per (subset, power) pair, n 2^(n-1)
    in all (_laplace_steps), against the n! leaves of the sum as written
    (multilinear.permutation_expansion).  On int64 points the result is
    that sum in the ring Z/2^64, wraparound included.  Rows run in chunks
    of at most LAPLACE_CHUNK_ELEMENTS working-set elements (_laplace_rows);
    n > 8 is a ResourceError.
    """
    B, n, m = points.shape
    if n > EXPANSION_MAX_N:
        raise ResourceError(f"permutation expansion limited to n <= {EXPANSION_MAX_N}")
    out = np.empty((2, B, m * (m - 1) // 2), dtype=points.dtype)
    if not out.size:  # no row or no coordinate pair: nothing to plan
        return out[0], out[1]
    rows = _laplace_rows(points, out)
    log.debug("expansion_batch n=%d: %d terms per row and plane by subset recursion, "
              "%d rows in %d chunks of %d", n, n * 2 ** (n - 1), B, -(-B // rows), rows)
    return out[0], out[1]


def _norm(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Euclidean norm of the [re | im] components along the last axis, in float."""
    return np.sqrt(np.sum(re.astype(float, copy=False) ** 2 + im.astype(float, copy=False) ** 2,
                          axis=-1))


def generalized_metric_batch(points: np.ndarray) -> np.ndarray:
    return _norm(*pdf_batch(points))


def simplex_sides_generalized(points: np.ndarray, y: np.ndarray):
    """(lhs, rhs) of the simplex inequality of the generalized metric for each row, at any n.

    points is (B, n, m) real with y (B, m), m >= 2: core's per-plane
    product pass with the l2 norm over the planes, without its log escape.
    """
    lhs, rhs = _linear_sides(points, y, "generalized", (0,))
    return lhs[0], rhs[0]


def sum_identity_sides(points: np.ndarray, y: np.ndarray):
    """(lhs, rhs) component stacks of the replacement identity; y is (B, m)."""
    return w_identity_sides(points, y, 1)


def w_identity_sides(points: np.ndarray, y: np.ndarray, q: int):
    """(lhs, rhs) component stacks [re | im] of the extended identity, (B, 2 M_m); y is (B, m).

    The sides are written component-major, (2 M_m, B), chunk by chunk
    (_projected_rows), and returned as their transposed views.
    """
    b, n, m = points.shape
    sides = _replacement_rows(_projected_rows, _projected_elements(n, m), points, y, q)
    return tuple(side.reshape(m * (m - 1), b).T for side in sides)


def identity_blocks(points: np.ndarray, y: np.ndarray, q: int):
    """The identity sides of (B, n, m) points and (B, m) y, computed one row block at a time.

    Yields (rows, lhs, rhs, LINEAR) as core.replacement_blocks does, each
    side (1, rows, 2 M_m): w_identity_sides with q (sum_identity_sides at
    q = 1), called once a block of core._block_rows.
    """
    b, n, m = points.shape
    for rows in _slices(0, b, _block_rows(_projected_elements(n, m), m * (m - 1))):
        lhs, rhs = w_identity_sides(points[rows], y[rows], q)
        yield rows, lhs[None], rhs[None], LINEAR
        del lhs, rhs  # before the next block's sides are computed


def max_gap_and_scale(lhs: np.ndarray, rhs: np.ndarray):
    """Per-row max-norm identity gap and scale max(|lhs|, |rhs|, 1)."""
    v = verdict(IDENTITY, LINEAR, lhs.astype(float), rhs.astype(float), 0.0)
    return v.gap, v.scale
