"""Builtin problem definitions and their dynamics/cost consistency."""

import dataclasses
import math

import numpy as np
import pytest

from rklqr.errors import NotFound
from rklqr.problem import (
    LQProblem,
    builtin_problem,
    cross_term,
    example31,
    load_problem,
    pendulum,
    spring_oscillator,
)

# closed-form control values, computed from u*(t) = (0.5 e^t - 1.5 e^(2-t)) / (0.5 + 1.5 e^2)
U_STAR_0 = -0.9136709340400074
U_STAR_1 = -0.23466673126689006


class TestExample31:
    def test_fields(self):
        prob, ref = example31()
        assert prob.n == 1 and prob.m == 1
        assert prob.A[0, 0] == 0.0 and prob.B[0, 0] == 1.0
        assert prob.Q[0, 0] == 1.0 and prob.R[0, 0] == 1.0 and prob.M[0, 0] == 0.0
        assert prob.S[0, 0] == 0.5  # the 1/2 x u integrand
        assert prob.x0[0] == 1.0 and prob.tf == 1.0

    def test_reference_endpoints(self):
        _, ref = example31()
        assert ref(0.0) == pytest.approx(U_STAR_0, abs=1e-14)
        assert ref(1.0) == pytest.approx(U_STAR_1, abs=1e-14)
        # same numbers straight from the closed form
        denom = 0.5 + 1.5 * math.e**2
        assert ref(1.0) == pytest.approx(-math.e / denom, abs=1e-15)

    def test_reference_satisfies_u_double_prime_equals_u(self):
        # second centered difference of u* reproduces u* itself
        _, ref = example31()
        ts = np.linspace(0.05, 0.95, 19)
        d = 1e-4
        for t in ts:
            upp = (ref(t + d) - 2 * ref(t) + ref(t - d)) / d**2
            assert upp == pytest.approx(ref(t), abs=1e-6)


class TestSpringOscillator:
    def test_fields(self):
        prob = spring_oscillator()
        np.testing.assert_array_equal(prob.A, [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(prob.B, [[1], [0]])
        assert prob.R[0, 0] == 3.0  # 1.5 u^2 == (1/2) u' (3) u
        np.testing.assert_array_equal(prob.M, 10.0 * np.eye(2))
        np.testing.assert_array_equal(prob.Q, np.eye(2))
        assert prob.tf == 40.0
        assert cross_term(prob) is None


class TestPendulum:
    def test_dynamics_values(self):
        prob = pendulum()
        f = prob.f(np.array([math.pi / 3, 0.0]), np.array([0.0]))
        np.testing.assert_allclose(f, [0.0, math.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_array_equal(prob.jac_u(prob.x0, np.zeros(1)), [[0.0], [1.0]])
        assert prob.R[0, 0] == 0.05  # 0.025 u^2 == (1/2) u' (0.05) u
        np.testing.assert_array_equal(prob.M, 5.0 * np.eye(2))
        assert prob.control_affine
        np.testing.assert_array_equal(prob.input_matrix(prob.x0), [[0.0], [1.0]])

    @pytest.mark.parametrize("prob_factory", [pendulum, lambda: spring_oscillator()])
    def test_jacobians_match_finite_differences(self, prob_factory):
        prob = prob_factory()
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.standard_normal(prob.n)
            u = rng.standard_normal(prob.m)
            Jx, Ju = prob.jac_x(x, u), prob.jac_u(x, u)
            hx = 1e-6 * (1 + np.linalg.norm(x))
            for col in range(prob.n):
                e = np.zeros(prob.n)
                e[col] = hx
                fd = (prob.f(x + e, u) - prob.f(x - e, u)) / (2 * hx)
                np.testing.assert_allclose(fd, Jx[:, col], rtol=1e-5, atol=1e-7)
            for col in range(prob.m):
                e = np.zeros(prob.m)
                e[col] = hx
                fd = (prob.f(x, u + e) - prob.f(x, u - e)) / (2 * hx)
                np.testing.assert_allclose(fd, Ju[:, col], rtol=1e-5, atol=1e-7)


class TestValidation:
    def test_indefinite_R_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[-1.0]], M=[[0.0]], x0=[1.0], tf=1.0)

    def test_indefinite_Q_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            LQProblem(A=[[0.0]], B=[[1.0]], Q=[[-1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=1.0)

    def test_asymmetric_Q_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LQProblem(
                A=np.zeros((2, 2)), B=np.eye(2), Q=[[1.0, 0.3], [0.0, 1.0]],
                R=np.eye(2), M=np.zeros((2, 2)), x0=[1.0, 0.0], tf=1.0,
            )

    @pytest.mark.parametrize("field, value", [
        ("tf", np.nan), ("tf", np.inf), ("A", [[np.nan]]), ("B", [[np.inf]]),
        ("Q", [[np.nan]]), ("S", [[np.nan]]), ("R", [[np.inf]]), ("M", [[np.nan]]), ("x0", [np.nan]),
    ])
    def test_non_finite_lq_data_rejected(self, field, value):
        data = dict(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=1.0)
        data[field] = value
        with pytest.raises(ValueError, match="finite"):
            LQProblem(**data)

    @pytest.mark.parametrize("field, value", [
        ("tf", np.nan), ("x0", [np.inf, 0.0]), ("M", np.full((2, 2), np.nan)),
    ])
    def test_non_finite_nonlinear_data_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(pendulum(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("f_fn", None), ("jac_x_fn", None), ("jac_u_fn", "jac"), ("input_matrix_fn", 3),
    ])
    def test_non_callable_dynamics_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be callable"):
            dataclasses.replace(pendulum(), **{field: value})

    def test_non_finite_spec_rejected(self):
        data = {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": float("nan")}
        with pytest.raises(ValueError, match="finite"):
            load_problem(data)


class TestLoading:
    def test_builtin_dispatch(self):
        prob, ref = builtin_problem("example31")
        assert ref is not None
        prob, ref = builtin_problem("spring")
        assert ref is None and prob.name == "spring"
        with pytest.raises(NotFound):
            builtin_problem("rocket")

    def test_lq_spec_roundtrip(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(
            '{"kind": "lq", "n": 2, "m": 1,'
            ' "A": [0, 1, -1, 0], "B": [1, 0], "Q": [1, 0, 0, 1],'
            ' "R": [3], "M": [10, 0, 0, 10], "x0": [1, 1], "tf": 40}'
        )
        prob, ref = load_problem(str(path))
        spring = spring_oscillator()
        np.testing.assert_array_equal(prob.A, spring.A)
        assert ref is None and prob.tf == 40.0

    def test_lq_spec_with_cross_term(self):
        data = {
            "kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1],
            "S": [0.5], "R": [1], "M": [0], "x0": [1], "tf": 1,
        }
        prob, _ = load_problem(data)
        builtin, _ = example31()
        np.testing.assert_array_equal(prob.S, builtin.S)

    def test_builtin_spec(self):
        prob, ref = load_problem({"kind": "builtin", "name": "pendulum"})
        assert prob.name == "pendulum" and ref is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            load_problem({"kind": "nlp"})
