"""Linear ODE integration and the 3-metric cluster-contraction estimate.

Three trajectories of x' = A(t) x are integrated with a classical 4th-order
one-step scheme (with per-step step-doubling error control), and the product
of their pairwise distances is checked against the exponential bound
exp(3 * integral of alpha) times its initial value, where alpha(t) is a
growth bound with <A(t)x, x> <= alpha(t) <x, x>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (BOUND, ESTIMATE_RTOL, LINEAR, MetricReport, pair_product_rows,
                   pairwise_distances, scalar_map, scalar_powers)
from .core import euclidean_3metric  # noqa: F401  (bench/spans.py traces it under this module)
from .errors import ArgumentError, StepSizeError

# Per-step relative error allowed by the step-doubling estimate.
STEP_RTOL = 1e-8

_NEAR_COLLISION = 1e-12

# Right side of the estimate for degenerate initials, relative to the cube
# of the largest trajectory norm (at least 1).
_DEGENERATE_FLOOR = 1e-9


def _float_array(value) -> np.ndarray:
    """value as a float array; a non-numeric entry is an ArgumentError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"expected numbers: {exc}") from None


def _square_matrices(*values) -> list:
    """values as float arrays of one shape (..., m, m), m >= 1; otherwise an ArgumentError."""
    arrays = [_float_array(v) for v in values]
    shape = arrays[0].shape
    if len(shape) < 2 or shape[-1] != shape[-2] or not shape[-1] \
            or any(a.shape != shape for a in arrays):
        raise ArgumentError(f"need square matrices of one shape, got {[a.shape for a in arrays]}")
    return arrays


@dataclass(frozen=True)
class MatrixFunction:
    """Serializable time-dependent coefficient matrix.

    Catalog: constant A0, linear A0 + t*A1, sinusoidal A0 + sin(omega t)*A1,
    or grid samples with entrywise linear interpolation.
    """

    kind: str
    a0: np.ndarray | None = None
    a1: np.ndarray | None = None
    omega: float = 1.0
    times: np.ndarray | None = None
    samples: np.ndarray | None = None

    @classmethod
    def constant(cls, a):
        (a0,) = _square_matrices(a)
        return cls(kind="constant", a0=a0)

    @classmethod
    def linear(cls, a0, a1):
        a0, a1 = _square_matrices(a0, a1)
        return cls(kind="linear", a0=a0, a1=a1)

    @classmethod
    def sinusoidal(cls, a0, a1, omega=1.0):
        a0, a1 = _square_matrices(a0, a1)
        omega = _float_array(omega)
        if omega.ndim:
            raise ArgumentError(f"omega must be a number, got {omega.tolist()}")
        return cls(kind="sinusoidal", a0=a0, a1=a1, omega=float(omega))

    @classmethod
    def sampled(cls, times, samples):
        times = _float_array(times)
        (samples,) = _square_matrices(samples)
        if times.ndim != 1 or not np.all(np.diff(times) > 0.0):
            raise ArgumentError("sample times must be strictly increasing")
        if samples.ndim != 3 or samples.shape[0] != times.shape[0]:
            raise ArgumentError("one sample matrix per sample time required")
        return cls(kind="sampled", times=times, samples=samples)

    @property
    def dim(self) -> int:
        return (self.samples if self.kind == "sampled" else self.a0).shape[-1]

    def __call__(self, t) -> np.ndarray:
        """A(t); at an array of times, the stack times.shape + A's shape.

        Each matrix of the stack equals the call at its time alone, bit for bit.
        """
        if self.kind not in _MATRIX_FIELDS:
            raise ArgumentError(f"unknown matrix kind {self.kind!r}")
        times = np.asarray(t, dtype=float)
        if self.kind == "sampled":
            out = np.empty(times.shape + self.samples.shape[1:])
            for i in range(out.shape[-2]):
                for j in range(out.shape[-1]):
                    out[..., i, j] = np.interp(times, self.times, self.samples[:, i, j])
            return out
        if self.kind == "constant":
            return np.broadcast_to(self.a0, times.shape + self.a0.shape)
        at = times.reshape(times.shape + (1,) * self.a0.ndim)
        if self.kind == "sinusoidal":
            at = scalar_map(math.sin, self.omega * at)
        out = at * self.a1
        return np.add(self.a0, out, out=out)  # one stack-sized array, not two

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in _MATRIX_FIELDS[self.kind]:
            value = getattr(self, name)
            d[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixFunction":
        """The matrix function of a to_dict record; omega defaults to 1.0."""
        if not isinstance(d, dict):
            raise ArgumentError(f"a matrix function is a mapping, got {d!r}")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in _MATRIX_FIELDS:
            raise ArgumentError(f"unknown matrix kind {kind!r}")
        args = [d.get(name, 1.0) if name == "omega" else d[name] for name in _MATRIX_FIELDS[kind]]
        return getattr(cls, kind)(*args)


# The fields each kind of MatrixFunction stores, in its constructor's argument order.
_MATRIX_FIELDS = {
    "constant": ("a0",),
    "linear": ("a0", "a1"),
    "sinusoidal": ("a0", "a1", "omega"),
    "sampled": ("times", "samples"),
}

def growth_bounds(a: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the symmetric part of each matrix of a (..., m, m) stack, m >= 1."""
    if not a.shape[-1]:
        raise ArgumentError("a 0 x 0 matrix has no eigenvalue")
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    return np.linalg.eigvalsh(sym)[..., -1]


def derive_alpha(a: np.ndarray) -> float:
    """Sharpest growth bound: largest eigenvalue of the symmetric part."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"matrix must be square, got shape {a.shape}")
    return float(growth_bounds(a))


@dataclass
class ODEProblem:
    """Coefficient matrix, three initial vectors, time grid, optional alpha."""

    matrix: MatrixFunction
    initials: np.ndarray  # (3, m)
    grid: np.ndarray
    alpha: Callable[[float], float] | None = None

    def __post_init__(self):
        self.initials = _float_array(self.initials)
        self.grid = _float_array(self.grid)
        if not self.matrix.dim:
            raise ArgumentError("the coefficient matrix is 0 x 0")
        if self.initials.shape != (3, self.matrix.dim):
            raise ArgumentError(
                f"initials must have shape (3, {self.matrix.dim}), got {self.initials.shape}"
            )
        if self.grid.ndim != 1 or len(self.grid) < 2:
            raise ArgumentError("time grid needs at least 2 points")
        if self.grid[0] != 0.0:
            raise ArgumentError("time grid must start at 0")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ArgumentError("time grid must be strictly increasing")
        if self.alpha is not None:
            for t in self.grid:
                bound = derive_alpha(self.matrix(t))
                if self.alpha(t) < bound - 1e-10:
                    raise ArgumentError(
                        f"alpha({t}) = {self.alpha(t)} below the derived bound {bound}"
                    )

    def alpha_at(self, t: float) -> float:
        if self.alpha is not None:
            return float(self.alpha(t))
        return derive_alpha(self.matrix(t))

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_dict(),
            "initials": self.initials.tolist(),
            "grid": self.grid.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ODEProblem":
        return cls(
            matrix=MatrixFunction.from_dict(d["matrix"]),
            initials=d["initials"],
            grid=d["grid"],
        )


# Grid steps per evaluation of A and per step-doubling check.  The block's
# stack of A and its kept steps grow with it, and the calls it saves are a
# small part of a step beyond a few steps: on 1000 rows of m = 4 over 100
# steps, integrate_rows peaks at 24.6 MiB (tracemalloc) with 8 steps,
# 38.7 MiB with 16, and 11.8 MiB evaluating A once per step.
_STEP_BLOCK = 8


def _rk4_stages(y, k1, mid, end, steps, work, out):
    """Write into out the RK4 step of y, given k1 = y @ A(t)^T and A^T at t + h/2 and t + h.

    steps is (h, 0.5 * h, h / 6), each a number or an array of steps
    stacked ahead of y's shape (each stacked step then has the bits of the
    step taken alone); work is three buffers of y's shape.  The operations
    and their order are those of
        k2 = (y + 0.5 * h * k1) @ mid
        k3 = (y + 0.5 * h * k2) @ mid
        k4 = (y + h * k3) @ end
        out = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    with the sum of the k's accumulated left to right as each k is made,
    and 2 * k computed as k + k, which rounds the same.
    """
    h, half, sixth = steps
    k, total, w = work
    np.matmul(np.add(y, np.multiply(half, k1, out=w), out=w), mid, out=k)  # k2
    np.add(k1, np.add(k, k, out=total), out=total)
    np.matmul(np.add(y, np.multiply(half, k, out=w), out=w), mid, out=k)  # k3
    np.add(total, np.add(k, k, out=w), out=total)
    np.matmul(np.add(y, np.multiply(h, k, out=w), out=w), end, out=k)  # k4
    np.add(total, k, out=total)
    np.add(y, np.multiply(sixth, total, out=total), out=out)


def integrate_rows(matrix, initials: np.ndarray, grid: np.ndarray, rel_tol: float = STEP_RTOL):
    """RK4 trajectories of B problems that share one time grid.

    matrix(t) is the (B, m, m) stack of coefficient matrices at time t, and
    at an array of times the stack times.shape + (B, m, m) (a MatrixFunction
    of stacked coefficient arrays is one); initials is (B, 3, m).  Each step
    is validated by step doubling, row by row; a row whose error estimate
    exceeds rel_tol stays frozen from that step on, to the last column.  Returns the (B, 3, K, m)
    trajectories, each row's first rejected step (-1 for none) and that
    step's error estimate.

    The steps run in blocks of _STEP_BLOCK, and one call evaluates A at the
    six distinct times of every step of a block.  The full step h and the
    first half step h/2 start from the same y at the same t, so they run as
    one (2, B, 3, m) stack; the second half step follows.  The stages run in
    place, in buffers allocated once per call, with 0.5 * h and h / 6
    computed once per step; y and k1 are copied to the stack's shape, as
    numpy adds arrays of one shape faster than broadcast ones.
    The step-doubling check runs once per block, on the block's kept full
    and half steps, once the half steps are copied into the trajectory: a
    row's first step over rel_tol is its rejected step.
    A rejected row is integrated on, and after the loop its later columns
    are filled with its value before that step; the loop stops at the end
    of the block in which the last row was rejected.  Every element is
    computed by the same operations in the same order as three separate
    steps, so the bits are those of integrating each row alone.  Rows of
    smaller dimension may be zero-padded: a zero coefficient row or column
    adds exact zeros to each dot product, and the padded coordinates stay
    0.  Overflow gives inf/NaN trajectories, not warnings; the caller
    checks that they are finite.
    """
    rows, _, m = initials.shape
    out = np.empty((rows, 3, len(grid), m))
    out[:, :, 0] = initials
    rejected = np.full(rows, -1)
    errors = np.zeros(rows)
    t0, h = grid[:-1], grid[1:] - grid[:-1]
    half_h, tm = 0.5 * h, t0 + 0.5 * h
    # Per step: A(t0), the full step's end, the shared time t0 + h/2 (the
    # full step's midpoint, the first half's end and the second's start),
    # the first half's midpoint, and the second half's midpoint and end.
    times = np.stack([t0, t0 + h, tm, t0 + 0.5 * half_h, tm + 0.5 * half_h, tm + half_h], axis=1)
    # (h, 0.5 * h, h / 6) of each step: the full and first half steps
    # stacked, then the second half step.
    pair = np.stack([h, half_h], axis=1)[:, :, None, None, None]
    pair_steps = np.stack([pair, 0.5 * pair, pair / 6.0], axis=1)
    second_steps = np.stack([half_h, 0.5 * half_h, half_h / 6.0], axis=1)
    # One block's full and first half steps, and its second half steps.
    pairs = np.empty((_STEP_BLOCK, 2, rows, 3, m))
    halves = np.empty((_STEP_BLOCK, rows, 3, m))
    y, stacked_y = initials.copy(), np.empty((2, rows, 3, m))
    k1, stacked_k1 = np.empty((rows, 3, m)), np.empty((2, rows, 3, m))
    pair_work, half_work = np.empty((3, 2, rows, 3, m)), np.empty((3, rows, 3, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(grid) - 1, _STEP_BLOCK):
            # A(t)^T at the six times of each step of the block, (S, 6, B, m, m).
            at = matrix(times[start:start + _STEP_BLOCK]).swapaxes(-1, -2)
            size = len(at)
            for j, a in enumerate(at):
                # Full step and first half step stacked: midpoints tm and t0 + h/4,
                # ends t0 + h and tm.
                np.copyto(stacked_y, y)
                np.copyto(stacked_k1, np.matmul(y, a[0], out=k1))
                _rk4_stages(stacked_y, stacked_k1, a[2:4], a[1:3], pair_steps[start + j], pair_work,
                            pairs[j])
                half, y = pairs[j, 1], halves[j]
                _rk4_stages(half, np.matmul(half, a[2], out=k1), a[4], a[5],
                            second_steps[start + j], half_work, y)
            block = halves[:size]
            out[:, :, start + 1:start + 1 + size] = block.transpose(1, 2, 0, 3)
            scale = np.maximum(np.abs(block).max(axis=(2, 3)), 1.0)
            err = np.abs(pairs[:size, 0] - block).max(axis=(2, 3)) / scale  # (S, B)
            over = (err > rel_tol) & (rejected < 0)
            new = over.any(axis=0)
            if new.any():
                first = over.argmax(axis=0)[new]
                rejected[new] = start + first
                errors[new] = err[first, new]
                if np.all(rejected >= 0):
                    break
    for row in np.flatnonzero(rejected >= 0):  # a rejected row stays at its value before that step
        k = rejected[row]
        out[row, :, k + 1:] = out[row, :, k, None]
    return out, rejected, errors


def step_size_error(step, err, grid_steps, rel_tol=STEP_RTOL) -> StepSizeError:
    """The error of a grid of grid_steps steps whose step `step` has estimate err > rel_tol."""
    factor = math.ceil((err / rel_tol) ** 0.2) + 1  # RK4's local error scales as h^5
    return StepSizeError(
        f"step {step} error estimate {err:.3e} exceeds {rel_tol:.1e}; "
        f"refine the grid by a factor of about {factor}",
        suggested_steps=grid_steps * factor,
    )


def integrate(problem: ODEProblem, rel_tol: float = STEP_RTOL) -> np.ndarray:
    """RK4 trajectories of all three initial conditions on the grid.

    Returns an array of shape (3, K, m).  Each step is validated by step
    doubling; a too-coarse grid raises StepSizeError with a suggested size.
    """
    grid = problem.grid
    out, rejected, errors = integrate_rows(lambda t: problem.matrix(t)[..., None, :, :],
                                           problem.initials[None], grid, rel_tol)
    if rejected[0] >= 0:
        raise step_size_error(int(rejected[0]), float(errors[0]), len(grid) - 1, rel_tol)
    return out[0]


def cumulative_simpson(y, x) -> np.ndarray:
    """Cumulative composite Simpson quadrature on a (possibly nonuniform) grid.

    y holds the samples along its last axis, one row per leading index.
    Step k integrates over [x_{k-1}, x_k] the quadratic through the samples
    k-1, k, k+1 (odd k with a point after it) or k-2, k-1, k; a 2-point
    grid takes the trapezoid.  All steps are evaluated at once and summed
    left to right from 0.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    k_max = len(x) - 1
    if k_max < 1:
        return np.zeros(y.shape)
    if k_max == 1:
        pieces = (0.5 * (y[..., 0] + y[..., 1]) * (x[1] - x[0]))[..., None]
    else:
        k = np.arange(1, k_max + 1)
        s = np.where((k % 2 == 1) & (k < k_max), k - 1, k - 2)
        x0, x1, x2 = x[s], x[s + 1], x[s + 2]
        y0, y1, y2 = y[..., s], y[..., s + 1], y[..., s + 2]
        c1 = (y1 - y0) / (x1 - x0)
        c2 = ((y2 - y1) / (x2 - x1) - c1) / (x2 - x0)
        squares, cubes = scalar_powers(x, 2), scalar_powers(x, 3)

        def antideriv(t):
            """Antiderivative of each step's quadratic at the grid points t."""
            return (y0 * x[t] + c1 * scalar_powers(x[t] - x0, 2) / 2.0
                    + c2 * (cubes[t] / 3.0 - (x0 + x1) * squares[t] / 2.0 + x0 * x1 * x[t]))

        pieces = antideriv(k) - antideriv(k - 1)
    zero = np.zeros(y.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([zero, pieces], axis=-1), axis=-1)


class EstimateSides(NamedTuple):
    """Sides of the contraction estimate, one row per problem and one column per grid time."""

    lhs: np.ndarray
    rhs: np.ndarray
    near_collision: np.ndarray
    degenerate: np.ndarray  # (B,): the initial points are not distinct


def estimate_rows(trajectories: np.ndarray, alphas: np.ndarray, grid) -> EstimateSides:
    """d3 of the trajectories and exp(3 int_0^t alpha) d3 of the initials.

    trajectories is (B, 3, K, m) and alphas the (B, K) growth bounds on the
    grid.  A grid time where two trajectories come within 1e-12 of each
    other is near a collision.  Degenerate initials (d3 = 0 at t = 0) force
    the trajectory metric to stay at zero up to rounding, so their right
    side is the rounding floor 1e-9 * max(1, max ||x_i(t)||)^3.
    """
    rows, _, times, m = trajectories.shape
    points = np.swapaxes(trajectories, 1, 2).reshape(rows * times, 3, m)
    distances = pairwise_distances(points)
    lhs = pair_product_rows(distances)[0].reshape(rows, times)
    near = (distances.min(axis=1) <= _NEAR_COLLISION).reshape(rows, times)
    d0 = lhs[:, :1]
    with np.errstate(over="ignore"):  # an infinite bound fails the verdict
        rhs = scalar_map(math.exp, 3.0 * cumulative_simpson(alphas, grid)) * d0
    degenerate = d0[:, 0] == 0.0
    for row in np.flatnonzero(degenerate):
        for k in range(times):
            largest = max(np.linalg.norm(p) for p in trajectories[row, :, k])
            rhs[row, k] = _DEGENERATE_FLOOR * max(1.0, largest) ** 3
    return EstimateSides(lhs, rhs, near, degenerate)


def verify_estimate(problem: ODEProblem, trajectories: np.ndarray | None = None,
                    tol: float = ESTIMATE_RTOL) -> list[MetricReport]:
    """Check d3(x1, x2, x3)(t) <= exp(3 int_0^t alpha) d3 of the initials.

    One report per grid time, each a bound (see estimate_rows).  Grid points
    near a collision are flagged near_collision (and reported, not failed);
    degenerate initials are flagged degenerate_initials.  Trajectories that
    are not finite, given or integrated here, are an ArgumentError.
    """
    if trajectories is None:
        trajectories = integrate(problem)
        if not np.all(np.isfinite(trajectories)):
            raise ArgumentError("the trajectories left the float range")
    elif not np.all(np.isfinite(trajectories)):
        raise ArgumentError("non-finite input coordinate")
    grid = problem.grid
    if problem.alpha is None:
        alphas = growth_bounds(problem.matrix(grid))
    else:
        alphas = np.array([problem.alpha_at(t) for t in grid])
    sides = estimate_rows(trajectories[None], alphas[None], grid)
    return [
        MetricReport(
            "ode_estimate", {"t": float(t)}, float(sides.lhs[0, k]), float(sides.rhs[0, k]), tol,
            kind=BOUND, domain=LINEAR,
            flags={"near_collision": bool(sides.near_collision[0, k]),
                   "degenerate_initials": bool(sides.degenerate[0])},
        )
        for k, t in enumerate(grid)
    ]
