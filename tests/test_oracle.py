"""Oracle machinery: KKT solve, gradient routes, quasi-Newton metric, 1-D demo."""

import ast
from pathlib import Path

import numpy as np
import pytest
from curve_demo import scalar_curve_demo
from fixtures import GAUSS2, PROBE_GRID, ZERO_COST_SPRING

from rklqr import dlqr, ilqr, oracle
from rklqr.errors import OracleFailure
from rklqr.problem import example31, pendulum, pendulum_tanh, spring_oscillator
from rklqr.tableau import builtin

# direction -Y/W at u = 0.1 for the curve x = u^2 + 1:
# -(u + g'(u) g(u)) / (1 + g'(u)^2) = -0.302 / 1.04
CURVE_DIR_AT_01 = -0.2903846153846154


def _residuals(prob, tab, N, v):
    """The stage and node equations in residual form at v = (U, X, x_1..x_N), from prob.f and the tableau."""
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    U, X, x = np.split(v, np.cumsum([N * s * m, N * s * n]))
    X, x = X.reshape(N, s, n), np.vstack([prob.x0, x.reshape(N, n)])
    F = prob.f(X.reshape(-1, n), U.reshape(-1, m)).reshape(N, s, n)
    stage = x[:-1, None] + h * np.einsum("ij,kjn->kin", tab.a, F) - X
    node = x[:-1] + h * np.einsum("j,kjn->kn", tab.b, F) - x[1:]
    return np.concatenate([stage.ravel(), node.ravel()])


class TestDenseCore:
    @pytest.mark.parametrize("prob", [pendulum_tanh(), spring_oscillator()], ids=lambda p: p.name)
    @pytest.mark.parametrize("tab", [builtin("trapezoidal"), GAUSS2], ids=lambda t: t.name)
    def test_constraint_jacobian_matches_central_differences(self, prob, tab):
        N, s = 3, tab.s
        rng = np.random.default_rng(len(prob.name) + s)
        sizes = np.cumsum([N * s * prob.m, N * s * prob.n])
        v = rng.standard_normal(sizes[-1] + N * prob.n)
        U, X, _ = (part.reshape(N, -1) for part in np.split(v, sizes))
        got = oracle._constraint_jacobian(prob, tab, N, X, U)
        eps = 1e-6
        want = np.column_stack([(_residuals(prob, tab, N, v + d) - _residuals(prob, tab, N, v - d)) / (2 * eps)
                                for d in eps * np.eye(v.size)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
        if prob.name == "spring":  # linear dynamics: the same Jacobian at every stage point
            zero = oracle._constraint_jacobian(prob, tab, N, np.zeros_like(X), np.zeros_like(U))
            assert np.array_equal(got, zero)

    def test_oracle_reads_only_the_solvers_rollout_and_cost_blocks(self):
        # the dense model takes its iterate from ilqr.rollout and nothing else of
        # the solvers, so a defect in their step operators, backward pass or
        # gradient cannot pass both sides of a check
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        solvers = {"ilqr", "dlqr"}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in solvers:
                used |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                assert not {alias.asname for alias in node.names if alias.name in solvers} - {None}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in solvers:
                used.add(f"{node.value.id}.{node.attr}")
        assert used <= {"ilqr.rollout", "ilqr.stage_controls", "dlqr.stage_cost_blocks"}, used


class TestQPSolve:
    def test_nonlinear_problem_is_rejected(self):
        # the QP of the linearization at zero is not the pendulum's problem
        with pytest.raises(ValueError, match=r"^qp_solve needs a linear-quadratic problem \(LQProblem\), "
                                             r"not NonlinearProblem$"):
            oracle.qp_solve(pendulum(), builtin("methodB"), 4)

    def test_zero_cost_gives_zero_controls(self):
        qp = oracle.qp_solve(ZERO_COST_SPRING, builtin("methodA"), 4)
        np.testing.assert_allclose(qp.U, 0.0, atol=1e-13)

    def test_matches_dlqr_on_scalar_benchmark(self):
        prob, _ = example31()
        tab = builtin("methodA")
        qp = oracle.qp_solve(prob, tab, 2)
        _, _, traj = dlqr.solve(prob, tab, 2)
        np.testing.assert_allclose(qp.U, traj.U, atol=1e-10)
        np.testing.assert_allclose(qp.X, traj.X, atol=1e-10)
        np.testing.assert_allclose(qp.x, traj.x, atol=1e-10)

    def test_constraints_satisfied(self):
        # N = 40 keeps h = 1 (open-loop stable for methodB), so re-rolling the
        # QP's controls must land on the QP's own states
        prob = spring_oscillator()
        tab = builtin("methodB")
        N = 40
        qp = oracle.qp_solve(prob, tab, N)
        state = ilqr.rollout(prob, tab, N, qp.U)
        np.testing.assert_allclose(state.X, qp.X, atol=1e-9)
        np.testing.assert_allclose(state.x, qp.x, atol=1e-9)

    def test_multipliers_are_costates(self):
        prob, _ = example31()
        tab = builtin("methodB")
        qp = oracle.qp_solve(prob, tab, 5)
        state = ilqr.IterateState(U=qp.U, X=qp.X, x=qp.x, Jd=0.0, h=prob.tf / 5)
        p = ilqr.linearize(prob, tab, state).p
        np.testing.assert_allclose(qp.lam, p[1:], atol=1e-9)

    @pytest.mark.parametrize("name,N", PROBE_GRID)
    def test_kkt_residual_bound(self, name, N):
        prob = spring_oscillator()
        qp = oracle.qp_solve(prob, builtin(name), N)
        assert qp.kkt_residual < 1e-10 * (1 + qp.data_norm)


class TestGradients:
    def test_fd_vanishes_at_optimum(self):
        prob = pendulum()
        tab = builtin("methodB")
        state, _, _ = ilqr.solve(prob, tab, 20, tol=1e-10)
        g = oracle.grad_fd(prob, tab, 20, state.U)
        assert np.abs(g).max() < 1e-5

    def test_exact_matches_fd_on_random_probe(self):
        prob = pendulum()
        tab = builtin("methodA")
        rng = np.random.default_rng(1)
        U = rng.standard_normal((3, 2))
        ge = oracle.grad_exact(prob, tab, 3, U)
        gf = oracle.grad_fd(prob, tab, 3, U)
        assert np.abs(ge - gf).max() / (1 + np.abs(ge).max()) < 1e-6

    def test_linear_problem_quadratic_form_gradient(self):
        # grad = W U + grad(0) for any linear problem; assemble both sides
        prob = spring_oscillator()
        tab = builtin("methodA")
        N = 4
        rng = np.random.default_rng(4)
        U = rng.standard_normal((N, 2))
        qn0 = oracle.quasi_newton(prob, tab, N, np.zeros((N, 2)))
        g_lin = qn0.W @ U.ravel() + qn0.Y
        ge = oracle.grad_exact(prob, tab, N, U)
        np.testing.assert_allclose(ge.ravel(), g_lin, rtol=1e-11, atol=1e-11)

    def test_exact_matches_adjoint_route(self):
        prob = pendulum()
        tab = builtin("methodB")
        rng = np.random.default_rng(9)
        U = rng.standard_normal((4, 3))
        ge = oracle.grad_exact(prob, tab, 4, U)
        gi = ilqr.gradient(prob, tab, ilqr.rollout(prob, tab, 4, U))
        np.testing.assert_allclose(ge, gi, rtol=1e-12, atol=1e-12)


class TestQuasiNewton:
    @pytest.mark.parametrize("name,N", PROBE_GRID)
    def test_direction_identity(self, name, N):
        prob = pendulum()
        tab = builtin(name)
        rng = np.random.default_rng(N * 101 + len(name))
        U = rng.standard_normal((N, tab.s * prob.m))
        qn = oracle.quasi_newton(prob, tab, N, U)
        state = ilqr.rollout(prob, tab, N, U)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU = ilqr.direction(state, bp, steps)[0].ravel()
        denom = 1 + np.abs(qn.direction).max()
        assert np.abs(dU - qn.direction).max() / denom < 1e-8

    def test_W_positive_definite(self):
        prob = pendulum()
        tab = builtin("methodB")
        rng = np.random.default_rng(12)
        for _ in range(5):
            U = rng.standard_normal((3, 3))
            qn = oracle.quasi_newton(prob, tab, 3, U)
            np.linalg.cholesky(qn.W)  # raises if not PD

    def test_W_not_positive_definite_is_oracle_failure(self):
        # spring at N = 6 (h = 20/3) under methodB: W has a negative pivot
        U = np.random.default_rng(0).standard_normal((6, 3))
        with pytest.raises(OracleFailure, match=r"^metric W is not positive definite, h = 6\.666"):
            oracle.quasi_newton(spring_oscillator(), builtin("methodB"), 6, U)

    def test_linear_problem_W_is_exact_hessian(self):
        # second differences of the cost reproduce W when the maps are linear;
        # the cost is exactly quadratic, so a wide stencil carries no
        # truncation error and suppresses roundoff from the large Jd values
        prob = spring_oscillator()
        tab = builtin("euler")
        N = 3
        qn = oracle.quasi_newton(prob, tab, N, np.zeros((N, 1)))
        eps = 0.5
        hess = np.zeros((N, N))
        for i in range(N):
            for j in range(N):
                acc = 0.0
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    U = np.zeros((N, 1))
                    U[i, 0] += si * eps
                    U[j, 0] += sj * eps
                    acc += si * sj * ilqr.rollout(prob, tab, N, U).Jd
                hess[i, j] = acc / (4 * eps * eps)
        np.testing.assert_allclose(qn.W, hess, rtol=1e-8, atol=1e-7)

    def test_C_equals_cost_at_linearization_point(self):
        prob = pendulum()
        tab = builtin("methodA")
        U = 0.2 * np.ones((4, 2))
        qn = oracle.quasi_newton(prob, tab, 4, U)
        assert qn.C == pytest.approx(ilqr.rollout(prob, tab, 4, U).Jd, rel=1e-14)

    def test_curve_metric_departs_from_hessian(self):
        # at u = 0: W = 1 + g'(0)^2 = 1 while j''(0) = 3; the gap drives the
        # linear (not superlinear) convergence of the demo below
        tr = scalar_curve_demo(1e-9, max_iter=1, force_full_step=True)
        u = 1e-9
        W = 1.0 + (2 * u) ** 2
        jpp = 1.0 + (2 * u) ** 2 + 2.0 * (u * u + 1.0)
        assert W == pytest.approx(1.0, abs=1e-12)
        assert jpp == pytest.approx(3.0, abs=1e-12)
        # the full step contracts by |1 - j''/W| ~ 2 near the optimum
        assert abs(tr.us[1]) == pytest.approx(2 * u, rel=1e-6)


class TestScalarCurveDemo:
    def test_converges_to_origin(self):
        tr = scalar_curve_demo(0.1)
        assert tr.converged and abs(tr.us[-1]) < 1e-10

    def test_first_direction_value(self):
        tr = scalar_curve_demo(0.1, force_full_step=True, max_iter=1)
        assert tr.us[1] - tr.us[0] == pytest.approx(CURVE_DIR_AT_01, abs=1e-15)

    def test_full_step_overshoots(self):
        tr = scalar_curve_demo(0.1, force_full_step=True, max_iter=1)
        assert abs(tr.us[1]) > abs(tr.us[0])

    def test_backtracking_rejects_full_step_near_origin(self):
        tr = scalar_curve_demo(0.1)
        assert np.all(tr.alphas < 1.0)

    def test_linear_convergence_ratio(self):
        tr = scalar_curve_demo(0.1)
        ratios = np.abs(tr.us[1:] / tr.us[:-1])
        assert np.all(ratios[-5:] > 0.1) and np.all(ratios[-5:] < 0.9)

    def test_cost_decreases(self):
        tr = scalar_curve_demo(0.1)
        assert np.all(np.diff(tr.js) <= 0)
