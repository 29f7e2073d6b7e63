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

from .core import BOUND, LINEAR, MetricReport, pair_product_rows, pairwise_distances, scalar_map
from .core import euclidean_3metric  # noqa: F401  (bench/spans.py traces it under this module)
from .errors import ArgumentError, StepSizeError

# Per-step relative error allowed by the step-doubling estimate.
STEP_RTOL = 1e-8

# Relative slack on the exponential bound, absorbing quadrature and
# integration error (the estimate is exact only in the continuum).
ESTIMATE_RTOL = 1e-6

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
        return cls(kind="constant", a0=_float_array(a))

    @classmethod
    def linear(cls, a0, a1):
        return cls(kind="linear", a0=_float_array(a0), a1=_float_array(a1))

    @classmethod
    def sinusoidal(cls, a0, a1, omega=1.0):
        return cls(kind="sinusoidal", a0=_float_array(a0), a1=_float_array(a1),
                   omega=float(omega))

    @classmethod
    def sampled(cls, times, samples):
        times = _float_array(times)
        samples = _float_array(samples)
        if samples.shape[0] != times.shape[0]:
            raise ArgumentError("one sample matrix per sample time required")
        return cls(kind="sampled", times=times, samples=samples)

    @property
    def dim(self) -> int:
        if self.kind == "sampled":
            return self.samples.shape[1]
        return self.a0.shape[0]

    def __call__(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.a0
        if self.kind == "linear":
            return self.a0 + t * self.a1
        if self.kind == "sinusoidal":
            return self.a0 + math.sin(self.omega * t) * self.a1
        if self.kind == "sampled":
            out = np.empty_like(self.samples[0])
            for i in range(out.shape[0]):
                for j in range(out.shape[1]):
                    out[i, j] = np.interp(t, self.times, self.samples[:, i, j])
            return out
        raise ArgumentError(f"unknown matrix kind {self.kind!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in _MATRIX_FIELDS[self.kind]:
            value = getattr(self, name)
            d[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixFunction":
        """The matrix function of a to_dict record; omega defaults to 1.0."""
        kind = d["kind"]
        if kind not in _MATRIX_FIELDS:
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
    """Largest eigenvalue of the symmetric part of each matrix of a (..., m, m) stack."""
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


def _rk4_step(matrix, y, t, h):
    mid = matrix(t + 0.5 * h).swapaxes(-1, -2)
    k1 = y @ matrix(t).swapaxes(-1, -2)
    k2 = (y + 0.5 * h * k1) @ mid
    k3 = (y + 0.5 * h * k2) @ mid
    k4 = (y + h * k3) @ matrix(t + h).swapaxes(-1, -2)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rows(matrix, initials: np.ndarray, grid: np.ndarray, rel_tol: float = STEP_RTOL):
    """RK4 trajectories of B problems that share one time grid.

    matrix(t) is the (B, m, m) stack of coefficient matrices at time t (a
    MatrixFunction of stacked coefficient arrays is one) and initials is
    (B, 3, m).  Each step is validated by step doubling, row by row; a row
    whose error estimate exceeds rel_tol stays frozen from that step on.
    Returns the (B, 3, K, m) trajectories, each row's first rejected step
    (-1 for none) and that step's error estimate.
    """
    rows = initials.shape[0]
    out = np.empty((rows, 3, len(grid), initials.shape[2]))
    y = initials.copy()
    out[:, :, 0] = y
    rejected = np.full(rows, -1)
    errors = np.zeros(rows)
    for k in range(len(grid) - 1):
        t0, t1 = grid[k], grid[k + 1]
        h = t1 - t0
        full = _rk4_step(matrix, y, t0, h)
        half = _rk4_step(matrix, _rk4_step(matrix, y, t0, 0.5 * h), t0 + 0.5 * h, 0.5 * h)
        scale = np.maximum(np.abs(half).max(axis=(1, 2)), 1.0)
        err = np.abs(full - half).max(axis=(1, 2)) / scale
        new = (err > rel_tol) & (rejected < 0)
        if new.any():
            rejected[new] = k
            errors[new] = err[new]
            if np.all(rejected >= 0):
                break
        if rejected.max() >= 0:
            half = np.where((rejected < 0)[:, None, None], half, y)
        y = half
        out[:, :, k + 1] = y
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
    out, rejected, errors = integrate_rows(lambda t: problem.matrix(t)[None],
                                           problem.initials[None], grid, rel_tol)
    if rejected[0] >= 0:
        raise step_size_error(int(rejected[0]), float(errors[0]), len(grid) - 1, rel_tol)
    return out[0]


def _quad_piece(x0, x1, x2, y0, y1, y2, a, b) -> float:
    """Integral over [a, b] of the quadratic through three sample points."""
    c1 = (y1 - y0) / (x1 - x0)
    c2 = ((y2 - y1) / (x2 - x1) - c1) / (x2 - x0)

    def antideriv(t):
        return (
            y0 * t
            + c1 * (t - x0) ** 2 / 2.0
            + c2 * (t**3 / 3.0 - (x0 + x1) * t**2 / 2.0 + x0 * x1 * t)
        )

    return antideriv(b) - antideriv(a)


def cumulative_simpson(y, x) -> np.ndarray:
    """Cumulative composite Simpson quadrature on a (possibly nonuniform) grid.

    y holds the samples along its last axis, one row per leading index.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    k_max = len(x) - 1
    out = np.zeros(y.shape)
    for k in range(1, k_max + 1):
        if k == 1 and k_max == 1:
            piece = 0.5 * (y[..., 0] + y[..., 1]) * (x[1] - x[0])
        elif k % 2 == 1 and k < k_max:
            piece = _quad_piece(x[k - 1], x[k], x[k + 1], y[..., k - 1], y[..., k],
                                y[..., k + 1], x[k - 1], x[k])
        else:
            piece = _quad_piece(x[k - 2], x[k - 1], x[k], y[..., k - 2], y[..., k - 1],
                                y[..., k], x[k - 1], x[k])
        out[..., k] = out[..., k - 1] + piece
    return out


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
    degenerate initials are flagged degenerate_initials.
    """
    if trajectories is None:
        trajectories = integrate(problem)
    if not np.all(np.isfinite(trajectories)):
        raise ArgumentError("non-finite input coordinate")
    grid = problem.grid
    if problem.alpha is None:
        alphas = growth_bounds(np.stack([problem.matrix(t) for t in grid]))
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
