"""Builtin problem definitions and their dynamics/cost consistency."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rklqr.errors import NotFound
from rklqr.problem import (
    LQProblem,
    NonlinearProblem,
    builtin_problem,
    example31,
    load_problem,
    pendulum,
    pendulum_tanh,
    spring_oscillator,
)
from rklqr.tableau import builtin

# closed-form control values, computed from u*(t) = (0.5 e^t - 1.5 e^(2-t)) / (0.5 + 1.5 e^2)
U_STAR_0 = -0.9136709340400074
U_STAR_1 = -0.23466673126689006


def _stacked_points(bound):
    """P = 1..50 stacked states (P, 2) and controls (P, 1) with entries in [-bound, bound]."""
    return st.integers(1, 50).flatmap(
        lambda P: st.tuples(
            arrays(float, (P, 2), elements=st.floats(-bound, bound)),
            arrays(float, (P, 1), elements=st.floats(-bound, bound)),
        )
    )


POINTS = _stacked_points(1e3)


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
        assert not prob.S.any()


class TestPendulum:
    def test_cross_term_is_read_only_zero_data(self):
        prob = pendulum()
        moved = dataclasses.replace(prob, x0=[0.5, 0.0])
        for p in (prob, moved):
            assert p.S.shape == (2, 1) and not p.S.any()
            assert not p.S.flags.writeable

    def test_cross_term_is_not_an_argument(self):
        prob = pendulum()
        args = {f.name: getattr(prob, f.name) for f in dataclasses.fields(prob) if f.init}
        NonlinearProblem(**args)
        with pytest.raises(TypeError, match="'S'"):
            NonlinearProblem(**args, S=np.ones((2, 1)))

    def test_dynamics_values(self):
        prob = pendulum()
        f = prob.f(np.array([[math.pi / 3, 0.0]]), np.array([[0.0]]))
        np.testing.assert_allclose(f, [[0.0, math.sqrt(3) / 2]], atol=1e-15)
        _, Ju = prob.stage_jacobians(prob.x0[None], np.zeros((1, 1)))
        np.testing.assert_array_equal(Ju, [[[0.0], [1.0]]])
        assert prob.R[0, 0] == 0.05  # 0.025 u^2 == (1/2) u' (0.05) u
        np.testing.assert_array_equal(prob.M, 5.0 * np.eye(2))
        np.testing.assert_array_equal(prob.input_matrix(prob.x0), [[0.0], [1.0]])

    @pytest.mark.parametrize("prob_factory", [pendulum, lambda: spring_oscillator()])
    @given(points=_stacked_points(10.0))
    @settings(max_examples=50, deadline=None)
    def test_jacobians_match_finite_differences(self, prob_factory, points):
        # central differences of the stacked f, column by column, at every stacked point
        prob, (X, U) = prob_factory(), points
        Jx, Ju = prob.stage_jacobians(X, U)
        d = 1e-6

        def central(dx, du):
            return (prob.f(X + dx, U + du) - prob.f(X - dx, U - du)) / (2 * d)

        for col, e in enumerate(d * np.eye(prob.n)):
            np.testing.assert_allclose(central(e, 0.0), Jx[:, :, col], rtol=1e-5, atol=1e-7)
        for col, e in enumerate(d * np.eye(prob.m)):
            np.testing.assert_allclose(central(0.0, e), Ju[:, :, col], rtol=1e-5, atol=1e-7)


class TestStageJacobians:
    @given(POINTS)
    @settings(max_examples=50, deadline=None)
    def test_linear_problem_broadcasts_A_and_B(self, points):
        prob, (X, U) = spring_oscillator(), points
        Jx, Ju = prob.stage_jacobians(X, U)
        np.testing.assert_array_equal(Jx, np.broadcast_to(prob.A, (len(X), 2, 2)))
        np.testing.assert_array_equal(Ju, np.broadcast_to(prob.B, (len(X), 2, 1)))
        assert np.shares_memory(Jx, prob.A) and np.shares_memory(Ju, prob.B)

    @pytest.mark.parametrize("field, result, shapes", [
        ("jac_u_fn", lambda X, U: np.zeros((len(X), 1, 2)), r"\(3, 2, 1\) for P = 3 points, not \(3, 1, 2\)"),
        ("jac_x_fn", lambda X, U: np.zeros((2, 2)), r"\(3, 2, 2\) for P = 3 points, not \(2, 2\)"),
    ], ids=["transposed-Ju", "unstacked-Jx"])
    def test_wrong_shape_rejected(self, field, result, shapes):
        prob = dataclasses.replace(pendulum(), **{field: result})
        with pytest.raises(ValueError, match=f"{field} must return shape {shapes}"):
            prob.stage_jacobians(np.zeros((3, 2)), np.zeros((3, 1)))

    @pytest.mark.parametrize("result, shapes", [
        (lambda X, U: np.zeros(2), r"\(3, 2\) for P = 3 points, not \(2,\)"),
        (lambda X, U: np.zeros((2, 3)), r"\(3, 2\) for P = 3 points, not \(2, 3\)"),
    ], ids=["one-point", "transposed"])
    def test_wrong_f_shape_rejected(self, result, shapes):
        prob = dataclasses.replace(pendulum(), f_fn=result)
        with pytest.raises(ValueError, match=f"f_fn must return shape {shapes}"):
            prob.f(np.zeros((3, 2)), np.zeros((3, 1)))

    @given(POINTS)
    @settings(max_examples=50, deadline=None)
    def test_input_matrix_is_Ju_at_zero_control(self, points):
        # the pendulum's B is constant; the second problem's B(x) = [0; cos x_1] is not
        X, _ = points
        varying = dataclasses.replace(
            pendulum(),
            f_fn=lambda X, U: np.column_stack([X[:, 1], np.sin(X[:, 0]) + np.cos(X[:, 0]) * U[:, 0]]),
            jac_u_fn=lambda X, U: np.stack([np.zeros(len(X)), np.cos(X[:, 0])], axis=1)[:, :, None],
        )
        for prob in (pendulum(), varying, spring_oscillator()):
            _, Ju = prob.stage_jacobians(X, np.zeros((len(X), 1)))
            for x, B in zip(X, Ju):
                np.testing.assert_array_equal(prob.input_matrix(x), B)


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

    @pytest.mark.parametrize("tf", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, tf):
        with pytest.raises(ValueError, match="^tf must be positive$"):
            LQProblem(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=tf)

    @pytest.mark.parametrize("field, value", [
        ("tf", np.nan), ("x0", [np.inf, 0.0]), ("M", np.full((2, 2), np.nan)),
    ])
    def test_non_finite_nonlinear_data_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(pendulum(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("f_fn", None), ("jac_x_fn", None), ("jac_u_fn", "jac"),
    ])
    def test_non_callable_dynamics_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be callable"):
            dataclasses.replace(pendulum(), **{field: value})

    def test_non_finite_spec_rejected(self):
        data = {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": float("nan")}
        with pytest.raises(ValueError, match="finite"):
            load_problem(data)


@pytest.mark.parametrize("factory", [pendulum, spring_oscillator, lambda: builtin("methodB")],
                         ids=["pendulum", "spring", "methodB"])
def test_equality_is_identity(factory):
    # the array fields would make a field-wise == raise on fresh instances
    one, other = factory(), factory()
    assert (one == other) is False and (one != other) is True
    assert (one == one) is True


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

    def test_builtin_kind_rejected(self):
        # a builtin is named directly (``builtin_problem``), not through a spec
        with pytest.raises(ValueError, match="^malformed problem spec: unknown kind 'builtin'$"):
            load_problem({"kind": "builtin", "name": "pendulum"})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            load_problem({"kind": "nlp"})

    @pytest.mark.parametrize("sizes", [{"n": 1.9}, {"m": 1.5}, {"n": "1"}, {"n": True}, {"n": True, "m": True},
                                       {"m": 0}])
    def test_non_integral_size_rejected(self, sizes):
        # int() would truncate 1.9 to n = 1, and JSON true equals 1
        data = {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": 1, **sizes}
        bad = next(iter(sizes))  # n is read before m
        message = f"^malformed problem spec: {bad} = {re.escape(repr(sizes[bad]))} is not a positive integer$"
        with pytest.raises(ValueError, match=message):
            load_problem(data)

    @pytest.mark.parametrize("field, value", [
        ("tf", "4"), ("tf", True), ("tf", [4]), ("A", ["1.5"]), ("A", [[True]]), ("x0", [True]),
        ("S", ["0.5"]), ("R", [None]), ("M", {"0": 1}),
    ])
    def test_non_number_rejected(self, field, value):
        # numpy reads "1.5" as 1.5 with dtype=float, and [1, true] as int64 [1, 1]
        data = {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": 1, field: value}
        with pytest.raises(ValueError, match=rf"^malformed problem spec: {field} holds .*, not a JSON number$"):
            load_problem(data)

    @pytest.mark.parametrize("field, value", [("A", [0, 1]), ("B", []), ("x0", [[1], [2]])])
    def test_wrong_entry_count_rejected(self, field, value):
        data = {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": 1, field: value}
        with pytest.raises(ValueError, match=rf"^malformed problem spec: {field} has {len(value)} entries, not 1$"):
            load_problem(data)

    def test_integral_float_size_accepted(self):
        data = {"kind": "lq", "n": 1.0, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                "M": [0], "x0": [1], "tf": 1}
        assert load_problem(data)[0].n == 1

    def test_nested_rows_read_row_major(self):
        flat = {"kind": "lq", "n": 2, "m": 1, "A": [0, 1, -1, 0], "B": [1, 0], "Q": [1, 0, 0, 1],
                "R": [3], "M": [10, 0, 0, 10], "x0": [1, 1], "tf": 40}
        nested = dict(flat, A=[[0, 1], [-1, 0]], B=[[1], [0]])
        np.testing.assert_array_equal(load_problem(nested)[0].A, load_problem(flat)[0].A)
        np.testing.assert_array_equal(load_problem(flat)[0].A, spring_oscillator().A)


class TestPendulumTanh:
    def test_builtin(self):
        prob, ref = builtin_problem("pendulum_tanh")
        assert ref is None and prob.name == "pendulum_tanh"
        np.testing.assert_array_equal(prob.Q, np.eye(2))
        np.testing.assert_array_equal(prob.R, [[0.1]])
        np.testing.assert_array_equal(prob.M, 5.0 * np.eye(2))
        np.testing.assert_array_equal(prob.x0, [math.pi / 3, 0.0])
        assert prob.tf == 3.0
        f = prob.f(np.array([[math.pi / 2, 0.25]]), np.array([[0.5]]))
        np.testing.assert_allclose(f, [[0.25, 1.0 + math.tanh(0.5)]], rtol=1e-15)

    @given(points=_stacked_points(3.0))
    @settings(max_examples=50, deadline=None)
    def test_jacobians_match_finite_differences(self, points):
        prob, (X, U) = pendulum_tanh(), points
        Jx, Ju = prob.stage_jacobians(X, U)
        d = 1e-6
        for col, e in enumerate(d * np.eye(2)):
            central = (prob.f(X + e, U) - prob.f(X - e, U)) / (2 * d)
            np.testing.assert_allclose(central, Jx[:, :, col], rtol=1e-5, atol=1e-7)
        central = (prob.f(X, U + d) - prob.f(X, U - d)) / (2 * d)
        np.testing.assert_allclose(central, Ju[:, :, 0], rtol=1e-5, atol=1e-7)
