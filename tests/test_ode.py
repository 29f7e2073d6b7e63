"""Integrator, quadrature, and the 3-metric contraction estimate."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vandermetric import (
    ArgumentError,
    MatrixFunction,
    ODEProblem,
    StepSizeError,
    cumulative_simpson,
    derive_alpha,
    integrate,
    verify_estimate,
)
from vandermetric.ode import _STEP_BLOCK, integrate_rows

INITIALS_2D = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def problem_minus_identity(steps=100, t_end=1.0):
    return ODEProblem(
        matrix=MatrixFunction.constant(-np.eye(2)),
        initials=INITIALS_2D,
        grid=np.linspace(0.0, t_end, steps + 1),
    )


class TestMatrixFunction:
    def test_catalog(self):
        a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a1 = np.eye(2)
        assert np.array_equal(MatrixFunction.constant(a0)(5.0), a0)
        assert np.array_equal(MatrixFunction.linear(a0, a1)(2.0), a0 + 2.0 * a1)
        sin = MatrixFunction.sinusoidal(a0, a1, omega=2.0)
        assert np.allclose(sin(0.25), a0 + math.sin(0.5) * a1)

    def test_sampled_interpolates(self):
        times = [0.0, 1.0, 2.0]
        samples = [np.zeros((2, 2)), np.eye(2), 2 * np.eye(2)]
        mf = MatrixFunction.sampled(times, samples)
        assert np.allclose(mf(0.5), 0.5 * np.eye(2))
        assert np.allclose(mf(1.5), 1.5 * np.eye(2))

    def test_roundtrip_dict(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        for mf in (
            MatrixFunction.constant(a0),
            MatrixFunction.linear(a0, 2 * a0),
            MatrixFunction.sinusoidal(a0, a0, omega=3.0),
            MatrixFunction.sampled([0.0, 1.0], [a0, 2 * a0]),
        ):
            again = MatrixFunction.from_dict(mf.to_dict())
            assert np.allclose(again(0.7), mf(0.7))

    def test_sampled_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            MatrixFunction.sampled([0.0, 1.0], [np.eye(2)])

    @pytest.mark.parametrize("build", [
        lambda: MatrixFunction.constant([[1.0, 2.0]]),
        lambda: MatrixFunction.constant([1.0, 2.0]),
        lambda: MatrixFunction.linear(np.eye(2), np.eye(3)),
        lambda: MatrixFunction.linear([[1.0, 2.0]], [[1.0, 2.0]]),
        lambda: MatrixFunction.sinusoidal(np.eye(2), np.ones((3, 2, 2))),
        lambda: MatrixFunction.sampled([0.0, 1.0], np.ones((2, 2, 3))),
        lambda: MatrixFunction.sampled([0.0, 1.0], np.ones((2, 2))),
        lambda: MatrixFunction.sampled([1.0, 0.0], [[[1.0]], [[2.0]]]),
        lambda: MatrixFunction.sampled([0.0, 0.0], [[[1.0]], [[2.0]]]),
    ])
    def test_malformed_matrices_are_rejected(self, build):
        with pytest.raises(ArgumentError):
            build()

    def test_stacked_matrices_of_one_shape_are_accepted(self):
        a = np.ones((4, 3, 3))
        mf = MatrixFunction.linear(a, 2 * a)
        assert mf(1.0).shape == (4, 3, 3) and mf.dim == 3

    @pytest.mark.parametrize("mf,expected", [
        (MatrixFunction.constant([[1.0, 2.0], [3.0, 4.0]]),
         {"kind": "constant", "a0": [[1.0, 2.0], [3.0, 4.0]]}),
        (MatrixFunction.linear([[1.0]], [[2.0]]),
         {"kind": "linear", "a0": [[1.0]], "a1": [[2.0]]}),
        (MatrixFunction.sinusoidal([[1.0]], [[2.0]], omega=3),
         {"kind": "sinusoidal", "a0": [[1.0]], "a1": [[2.0]], "omega": 3.0}),
        (MatrixFunction.sampled([0.0, 1.0], [[[1.0]], [[2.0]]]),
         {"kind": "sampled", "times": [0.0, 1.0], "samples": [[[1.0]], [[2.0]]]}),
    ])
    def test_to_dict_holds_the_fields_of_its_kind(self, mf, expected):
        assert mf.to_dict() == expected
        assert list(mf.to_dict()) == list(expected)

    def test_sinusoidal_omega_defaults_to_one(self):
        mf = MatrixFunction.from_dict({"kind": "sinusoidal", "a0": [[0.0]], "a1": [[1.0]]})
        assert mf.omega == 1.0
        assert mf(0.5)[0, 0] == math.sin(0.5)

    def test_unknown_kind_is_a_usage_error(self, cli):
        with pytest.raises(ArgumentError, match="unknown matrix kind 'cubic'"):
            MatrixFunction.from_dict({"kind": "cubic", "a0": [[1.0]]})
        spec = json.dumps({"matrix": {"kind": "cubic", "a0": [[-1.0, 0.0], [0.0, -1.0]]},
                           "initials": INITIALS_2D.tolist(), "grid": [0.0, 0.5, 1.0]})
        result = cli(["ode", "--input", spec])
        assert result.exit_code == 2
        assert result.output == "error: unknown matrix kind 'cubic'\n"


class TestAlpha:
    def test_symmetric_matrix(self):
        a = np.diag([3.0, -1.0])
        assert derive_alpha(a) == pytest.approx(3.0)

    def test_skew_part_ignored(self):
        skew = np.array([[0.0, 5.0], [-5.0, 0.0]])
        assert derive_alpha(skew) == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_quotient_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            a = rng.standard_normal((4, 4))
            alpha = derive_alpha(a)
            x = rng.standard_normal(4)
            assert x @ a @ x <= alpha * (x @ x) + 1e-10

    def test_non_square(self):
        with pytest.raises(ArgumentError):
            derive_alpha(np.zeros((2, 3)))


class TestProblemValidation:
    def test_initials_shape(self):
        with pytest.raises(ArgumentError):
            ODEProblem(matrix=MatrixFunction.constant(np.eye(2)),
                       initials=np.zeros((2, 2)), grid=[0.0, 1.0])

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ArgumentError):
            ODEProblem(matrix=MatrixFunction.constant(np.eye(2)),
                       initials=np.zeros((3, 2)), grid=[0.5, 1.0])

    def test_grid_monotone(self):
        with pytest.raises(ArgumentError):
            ODEProblem(matrix=MatrixFunction.constant(np.eye(2)),
                       initials=np.zeros((3, 2)), grid=[0.0, 1.0, 1.0])

    def test_alpha_below_derived_bound_rejected(self):
        with pytest.raises(ArgumentError):
            ODEProblem(matrix=MatrixFunction.constant(np.eye(2)),
                       initials=np.zeros((3, 2)), grid=[0.0, 1.0],
                       alpha=lambda t: 0.0)

    def test_valid_alpha_accepted(self):
        p = ODEProblem(matrix=MatrixFunction.constant(-np.eye(2)),
                       initials=INITIALS_2D, grid=[0.0, 1.0],
                       alpha=lambda t: -0.5)
        assert p.alpha_at(0.3) == -0.5

    def test_roundtrip_dict(self):
        p = problem_minus_identity(steps=4)
        again = ODEProblem.from_dict(p.to_dict())
        assert np.allclose(again.grid, p.grid)
        assert np.allclose(again.initials, p.initials)


class TestIntegrator:
    def test_exact_decay(self):
        p = problem_minus_identity(steps=100)
        traj = integrate(p)
        for k, t in enumerate(p.grid):
            assert np.allclose(traj[:, k, :], math.exp(-t) * INITIALS_2D,
                               rtol=1e-9, atol=1e-12)

    def test_rotation_preserves_norm(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = ODEProblem(matrix=MatrixFunction.constant(a),
                       initials=INITIALS_2D, grid=np.linspace(0.0, 2.0, 101))
        traj = integrate(p)
        norms = np.linalg.norm(traj, axis=2)
        assert np.allclose(norms, norms[:, :1], rtol=1e-8, atol=1e-10)

    def test_coarse_grid_raises(self):
        a = 10.0 * np.eye(2)
        p = ODEProblem(matrix=MatrixFunction.constant(a),
                       initials=INITIALS_2D, grid=[0.0, 1.0, 2.0])
        with pytest.raises(StepSizeError) as exc_info:
            integrate(p)
        assert exc_info.value.suggested_steps > 2

    def test_order_four_convergence(self):
        a = np.diag([-1.0, -2.0])
        decay = np.array([-1.0, -2.0])
        errs = []
        for steps in (8, 16, 32):
            p = ODEProblem(matrix=MatrixFunction.constant(a),
                           initials=INITIALS_2D, grid=np.linspace(0.0, 1.0, steps + 1))
            traj = integrate(p, rel_tol=1.0)
            exact = INITIALS_2D * np.exp(decay * 1.0)
            errs.append(float(np.max(np.abs(traj[:, -1, :] - exact))))
        # halving h must shrink the error by about 2^4
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0

    def test_trajectories_shape(self):
        p = problem_minus_identity(steps=40)
        assert integrate(p).shape == (3, 41, 2)


# The integrator as it was before a step's stages were stacked: three
# separate RK4 steps per grid step, each evaluating A(t) at its own three
# times.  The bit-for-bit reference of integrate_rows.
def _rk4_step_reference(matrix, y, t, h):
    mid = matrix(t + 0.5 * h).swapaxes(-1, -2)
    k1 = y @ matrix(t).swapaxes(-1, -2)
    k2 = (y + 0.5 * h * k1) @ mid
    k3 = (y + 0.5 * h * k2) @ mid
    k4 = (y + h * k3) @ matrix(t + h).swapaxes(-1, -2)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_rows_reference(matrix, initials, grid, rel_tol=1e-8):
    rows = initials.shape[0]
    out = np.empty((rows, 3, len(grid), initials.shape[2]))
    y = initials.copy()
    out[:, :, 0] = y
    rejected = np.full(rows, -1)
    errors = np.zeros(rows)
    for k in range(len(grid) - 1):
        t0, t1 = grid[k], grid[k + 1]
        h = t1 - t0
        full = _rk4_step_reference(matrix, y, t0, h)
        half = _rk4_step_reference(
            matrix, _rk4_step_reference(matrix, y, t0, 0.5 * h), t0 + 0.5 * h, 0.5 * h)
        scale = np.maximum(np.abs(half).max(axis=(1, 2)), 1.0)
        err = np.abs(full - half).max(axis=(1, 2)) / scale
        new = (err > rel_tol) & (rejected < 0)
        if new.any():
            rejected[new] = k
            errors[new] = err[new]
        if rejected.max() >= 0:
            half = np.where((rejected < 0)[:, None, None], half, y)
        y = half
        out[:, :, k + 1] = y
    return out, rejected, errors


def _assert_same_integration(got, want):
    """Equal bits in the rejections, the errors and every trajectory time."""
    (out, rejected, errors), (ref_out, ref_rejected, ref_errors) = got, want
    assert rejected.tolist() == ref_rejected.tolist()
    assert errors.tobytes() == ref_errors.tobytes()
    assert out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()


def _stacked(functions):
    """One matrix function of B per-row functions: (B, m, m) at a time, T + (B, m, m) at times T."""
    return lambda t: np.stack([f(t) for f in functions], axis=-3)


def _matrix_functions(kind, rng, rows, m):
    """rows MatrixFunctions of one kind, and the matrix function of the stack."""
    a0 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
    a1 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
    a0[::2] *= 3.0  # a stiffer row or two, which the coarse grids reject
    if kind == "sampled":
        # Knots on the test grids' points, where A's kinks cost no accuracy.
        times = np.linspace(0.0, 2.0, 6)
        samples = rng.uniform(-2.0, 2.0, size=(rows, 6, m, m))
        functions = [MatrixFunction.sampled(times, s) for s in samples]
        return functions, _stacked(functions)
    build = {"constant": lambda a, b: MatrixFunction.constant(a),
             "linear": MatrixFunction.linear,
             "sinusoidal": lambda a, b: MatrixFunction.sinusoidal(a, b, omega=2.5)}[kind]
    return [build(a0[r], a1[r]) for r in range(rows)], build(a0, a1)


MATRIX_KINDS = ["constant", "linear", "sinusoidal", "sampled"]


class TestIntegrateRows:
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("steps", [100, 150])
    def test_equals_the_three_step_loop(self, kind, rows, steps):
        rng = np.random.default_rng([rows, steps, MATRIX_KINDS.index(kind)])
        _, matrix = _matrix_functions(kind, rng, rows, 3)
        initials = rng.uniform(-1.0, 1.0, size=(rows, 3, 3))
        grid = np.linspace(0.0, 2.0, steps + 1)
        _assert_same_integration(integrate_rows(matrix, initials, grid),
                                 _integrate_rows_reference(matrix, initials, grid))

    def test_equals_the_three_step_loop_with_rows_rejected_at_different_steps(self):
        rng = np.random.default_rng(3)
        rows, m = 6, 3
        a0 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
        a1 = rng.uniform(-1.0, 1.0, size=(rows, m, m))
        initials = rng.uniform(-1.0, 1.0, size=(rows, 3, m))
        a0[2] *= 4.0
        grid = np.linspace(0.0, 2.0, 41)
        matrix = MatrixFunction.linear(a0, a1)
        got = integrate_rows(matrix, initials, grid)
        assert got[1].tolist() == [26, 22, 0, -1, -1, 12]
        _assert_same_integration(got, _integrate_rows_reference(matrix, initials, grid))

    def test_rows_all_rejected_at_the_first_step_stay_frozen_to_the_last_column(self):
        rng = np.random.default_rng(8)
        a0 = 40.0 * rng.uniform(-1.0, 1.0, size=(4, 3, 3))
        matrix = MatrixFunction.linear(a0, np.zeros_like(a0))
        initials = rng.uniform(-1.0, 1.0, size=(4, 3, 3))
        grid = np.linspace(0.0, 2.0, 11)
        out, rejected, _ = integrate_rows(matrix, initials, grid)
        assert rejected.tolist() == [0, 0, 0, 0]
        again, _, _ = integrate_rows(matrix, initials, grid)
        assert np.array_equal(out, again)  # no column is left as uninitialized memory
        assert np.array_equal(out, np.repeat(initials[:, :, None], len(grid), axis=2))

    def test_a_zero_padded_stack_of_mixed_m_equals_each_row_alone(self):
        rng = np.random.default_rng(5)
        dims = [2, 3, 4, 2, 3, 4, 3]
        width = max(dims)
        a0, a1 = np.zeros((2, len(dims), width, width))
        initials = np.zeros((len(dims), 3, width))
        alone = []
        for b, m in enumerate(dims):
            a0[b, :m, :m] = rng.uniform(-1.0, 1.0, size=(m, m)) * (4.0 if b == 4 else 1.0)
            a1[b, :m, :m] = rng.uniform(-1.0, 1.0, size=(m, m))
            initials[b, :, :m] = rng.uniform(-1.0, 1.0, size=(3, m))
            alone.append((MatrixFunction.linear(a0[b:b + 1, :m, :m], a1[b:b + 1, :m, :m]),
                          initials[b:b + 1, :, :m].copy()))
        grid = np.linspace(0.0, 2.0, 41)
        out, rejected, errors = integrate_rows(MatrixFunction.linear(a0, a1), initials, grid)
        assert 0 <= rejected[4] and (rejected >= 0).sum() < len(dims)
        for b, (m, (matrix, row_initials)) in enumerate(zip(dims, alone)):
            row = (out[b:b + 1, ..., :m], rejected[b:b + 1], errors[b:b + 1])
            _assert_same_integration(row, integrate_rows(matrix, row_initials, grid))
            assert not out[b, ..., m:].any()  # the padded coordinates stay 0

    def test_a_block_of_steps_evaluates_the_matrix_once(self):
        # One call per block of steps, not one per step: a later edit that
        # evaluates A step by step again fails here, with no timing involved.
        rng = np.random.default_rng(4)
        _, matrix = _matrix_functions("linear", rng, 2, 3)
        initials = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
        for steps in (1, _STEP_BLOCK, _STEP_BLOCK + 1, 100):
            calls = []
            integrate_rows(lambda t: calls.append(t) or matrix(t), initials,
                           np.linspace(0.0, 0.1, steps + 1))
            assert len(calls) == math.ceil(steps / _STEP_BLOCK)
        assert len(calls) < steps

    @given(steps=st.integers(1, 40), rows=st.integers(0, 6), m=st.integers(1, 4),
           kind=st.sampled_from(MATRIX_KINDS), where=st.sampled_from(["none", "first", "last"]),
           block=st.integers(0, 4), stiff=st.lists(st.booleans(), min_size=6, max_size=6),
           seed=st.integers(0, 2**16))
    @example(steps=20, rows=4, m=3, kind="linear", where="first", block=0, stiff=[True] * 6,
             seed=0)  # every row rejected at step 0
    @example(steps=23, rows=6, m=2, kind="constant", where="first", block=1, stiff=[True] * 6,
             seed=1)  # every row rejected on the first step of the second block
    @example(steps=13, rows=5, m=2, kind="sinusoidal", where="last", block=0,
             stiff=[True, False] * 3, seed=2)
    @example(steps=21, rows=3, m=4, kind="sampled", where="last", block=2,
             stiff=[False, True, True] * 2, seed=3)  # the last step of a short last block
    @example(steps=1, rows=1, m=1, kind="sampled", where="first", block=0, stiff=[True] * 6,
             seed=4)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_three_step_loop_on_non_uniform_grids(self, steps, rows, m, kind, where,
                                                             block, stiff, seed):
        # Short steps that every row passes, and at most one long step on
        # the first or the last step of a block, which the stiff rows (A of
        # order 10) fail and the quiet ones (A of order 1e-8) pass.
        rng = np.random.default_rng(seed)
        h = rng.uniform(1e-4, 1e-3, size=steps)
        rejected = np.full(rows, -1)
        if where != "none":
            start = min(block, (steps - 1) // _STEP_BLOCK) * _STEP_BLOCK
            long_step = start if where == "first" else min(start + _STEP_BLOCK, steps) - 1
            h[long_step] = 1.0
            rejected[np.array(stiff[:rows], dtype=bool)] = long_step
        grid = np.concatenate([[0.0], np.cumsum(h)])
        scale = np.where(rejected >= 0, 10.0, 1e-8)[:, None, None]
        a0 = scale * (np.eye(m) + 0.1 * rng.uniform(-1.0, 1.0, size=(rows, m, m)))
        a1 = scale * 0.1 * rng.uniform(-1.0, 1.0, size=(rows, m, m))
        initials = rng.uniform(-1.0, 1.0, size=(rows, 3, m))
        if kind == "sampled":
            functions = [MatrixFunction.sampled([0.0, grid[-1]], [a, a + b])
                         for a, b in zip(a0, a1)]
            matrix = _stacked(functions) if rows else lambda t: np.zeros(np.shape(t) + (0, m, m))
        else:
            matrix = {"constant": lambda: MatrixFunction.constant(a0),
                      "linear": lambda: MatrixFunction.linear(a0, a1),
                      "sinusoidal": lambda: MatrixFunction.sinusoidal(a0, a1, omega=2.5)}[kind]()
        got = integrate_rows(matrix, initials, grid)
        assert got[1].tolist() == rejected.tolist()
        if rows:
            want = _integrate_rows_reference(matrix, initials, grid)
        else:  # the reference loop takes the max of its rejections, which no row has
            want = np.empty((0, 3, steps + 1, m)), rejected, np.zeros(0)
        _assert_same_integration(got, want)


class TestMatrixFunctionAtArrayTimes:
    # A sampled MatrixFunction holds one matrix per sample time, not a stack.
    @pytest.mark.parametrize("kind,rows", [(kind, None) for kind in MATRIX_KINDS]
                             + [(kind, 4) for kind in MATRIX_KINDS if kind != "sampled"])
    def test_equals_one_call_per_time(self, kind, rows):
        rng = np.random.default_rng(MATRIX_KINDS.index(kind))
        functions, stacked = _matrix_functions(kind, rng, rows or 1, 3)
        mf = functions[0] if rows is None else stacked
        # The sample times, times between them and times outside their range.
        times = np.concatenate([np.linspace(0.0, 2.0, 6), np.linspace(-0.5, 2.5, 19)])
        times = times.reshape(5, 5)
        got = mf(times)
        one = mf(0.7)
        assert got.shape == times.shape + one.shape
        for index in np.ndindex(times.shape):
            assert got[index].tobytes() == np.ascontiguousarray(mf(times[index])).tobytes()
            assert mf(float(times[index])).tobytes() == mf(times[index]).tobytes()


def _quad_piece(x0, x1, x2, y0, y1, y2, a, b):
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


def _simpson_loop(y, x):
    """The per-step loop that cumulative_simpson vectorizes."""
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


class TestQuadrature:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(62)
        x = np.sort(rng.uniform(0.0, 2.0, size=9))
        x[0] = 0.0
        a, b, c = 1.5, -2.0, 0.75
        y = a * x**2 + b * x + c
        exact = a * x**3 / 3 + b * x**2 / 2 + c * x
        out = cumulative_simpson(y, x)
        assert np.allclose(out, exact - exact[0], rtol=1e-12, atol=1e-12)

    def test_single_interval_trapezoid(self):
        out = cumulative_simpson([0.0, 2.0], [0.0, 1.0])
        assert out[1] == pytest.approx(1.0)

    def test_smooth_function_accuracy(self):
        x = np.linspace(0.0, 1.0, 201)
        out = cumulative_simpson(np.exp(x), x)
        assert out[-1] == pytest.approx(math.e - 1.0, rel=1e-9)

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 8, 301])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_equals_the_per_step_loop_bit_for_bit(self, points, uniform):
        rng = np.random.default_rng(points * 2 + uniform)
        for _ in range(20):
            if uniform:
                x = np.linspace(0.0, rng.uniform(0.5, 3.0), points)
            else:
                x = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.1, points - 1))])
            y = rng.standard_normal((4, points)) * 10.0 ** rng.integers(-3, 4, size=(4, 1))
            y[0, :2] = -0.0  # a signed zero piece becomes 0.0 + -0.0
            for got, want in ((cumulative_simpson(y, x), _simpson_loop(y, x)),
                              (cumulative_simpson(y[1], x), _simpson_loop(y[1], x))):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestVerifyEstimate:
    def test_closed_form_equality_case(self):
        p = problem_minus_identity(steps=200, t_end=1.0)
        reports = verify_estimate(p)
        d0 = math.sqrt(2.0)
        for rep in reports:
            t = rep.inputs["t"]
            expected = math.exp(-3.0 * t) * d0
            assert rep.passed
            assert abs(rep.lhs - expected) <= 1e-8 * expected
            assert abs(rep.rhs - expected) <= 1e-8 * expected

    def test_random_problems_hold(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            a = rng.uniform(-1.0, 1.0, size=(m, m))
            p = ODEProblem(matrix=MatrixFunction.constant(a),
                           initials=rng.uniform(-1, 1, size=(3, m)),
                           grid=np.linspace(0.0, 1.0, 81))
            for rep in verify_estimate(p):
                if rep.flags["near_collision"]:
                    continue
                assert rep.passed, rep.to_json()

    def test_degenerate_initials_flagged(self):
        init = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = ODEProblem(matrix=MatrixFunction.constant(-np.eye(2)),
                       initials=init, grid=np.linspace(0.0, 0.5, 11))
        reports = verify_estimate(p)
        assert all(r.flags["degenerate_initials"] for r in reports)
        assert all(r.passed for r in reports)

    def test_supplied_alpha_looser_bound(self):
        p = ODEProblem(matrix=MatrixFunction.constant(-np.eye(2)),
                       initials=INITIALS_2D, grid=np.linspace(0.0, 1.0, 51),
                       alpha=lambda t: 0.0)
        # alpha = 0 gives the weaker bound d3(t) <= d3(0)
        for rep in verify_estimate(p):
            assert rep.passed
            assert rep.rhs == pytest.approx(math.sqrt(2.0))
