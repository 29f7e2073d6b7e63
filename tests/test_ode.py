"""Integrator, quadrature, and the 3-metric contraction estimate."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

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
from vandermetric.cli import main

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

    def test_unknown_kind_is_a_usage_error(self):
        with pytest.raises(ArgumentError, match="unknown matrix kind 'cubic'"):
            MatrixFunction.from_dict({"kind": "cubic", "a0": [[1.0]]})
        spec = json.dumps({"matrix": {"kind": "cubic", "a0": [[-1.0, 0.0], [0.0, -1.0]]},
                           "initials": INITIALS_2D.tolist(), "grid": [0.0, 0.5, 1.0]})
        result = CliRunner().invoke(main, ["ode", "--input", spec])
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
