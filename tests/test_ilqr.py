"""ILQR: rollout, linearization, backward pass, line search, costates."""

import dataclasses

import numpy as np
import pytest

from rklqr import dlqr, ilqr
from rklqr.errors import NotConverged, RolloutDiverged
from rklqr.problem import (
    NonlinearProblem,
    cross_term,
    example31,
    pendulum,
    spring_oscillator,
)
from rklqr.tableau import adjoint, builtin

P_STAR_0 = 0.4136709340400075  # costate of the scalar benchmark at t = 0


def _constant_state_problem():
    return NonlinearProblem(
        f_fn=lambda x, u: np.zeros(2),
        jac_x_fn=lambda x, u: np.zeros((2, 2)),
        jac_u_fn=lambda x, u: np.zeros((2, 1)),
        Q=np.eye(2),
        R=[[1.0]],
        M=3.0 * np.eye(2),
        x0=[1.0, 2.0],
        tf=2.0,
        name="frozen",
    )


class TestRollout:
    def test_linear_dynamics_match_assembled_relations(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        N = 8
        sysm = dlqr.assemble(prob, tab, N)
        rng = np.random.default_rng(3)
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        x = prob.x0.copy()
        for k in range(N):
            X = sysm.E @ x + sysm.F @ U[k]
            np.testing.assert_allclose(state.X[k], X, atol=1e-12)
            x = sysm.G @ x + sysm.H @ U[k]
            np.testing.assert_allclose(state.x[k + 1], x, atol=1e-12)

    def test_uncontrolled_pendulum_matches_direct_integration(self):
        prob = pendulum()
        tab = builtin("methodB")
        N = 4
        h = prob.tf / N
        # plain RK sweep of xdot = f(x, 0), written out independently
        x = prob.x0.copy()
        for _ in range(N):
            ks = np.zeros((3, 2))
            for i in range(3):
                xi = x + h * tab.a[i, :i] @ ks[:i] if i else x
                ks[i] = prob.f(xi, np.zeros(1))
            x = x + h * tab.b @ ks
        state = ilqr.rollout(prob, tab, N, np.zeros((N, 3)))
        np.testing.assert_allclose(state.x[-1], x, atol=1e-13)

    def test_frozen_dynamics_cost(self):
        prob = _constant_state_problem()
        tab = builtin("methodA")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 2)))
        np.testing.assert_allclose(state.x, np.tile(prob.x0, (6, 1)), atol=0)
        expected = 0.5 * prob.tf * (prob.x0 @ prob.Q @ prob.x0) + 0.5 * prob.x0 @ prob.M @ prob.x0
        assert state.Jd == pytest.approx(expected, rel=1e-14)

    def test_implicit_rollout_matches_linear_solve(self):
        prob = spring_oscillator()
        tab = builtin("trapezoidal")
        N = 200
        sysm = dlqr.assemble(prob, tab, N)
        rng = np.random.default_rng(5)
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        x = prob.x0.copy()
        for k in range(N):
            np.testing.assert_allclose(state.X[k], sysm.E @ x + sysm.F @ U[k], atol=1e-10)
            x = sysm.G @ x + sysm.H @ U[k]
        np.testing.assert_allclose(state.x[-1], x, atol=1e-10)

    def test_implicit_rollout_diverges_for_huge_step(self):
        prob = pendulum()
        with pytest.raises(RolloutDiverged):
            ilqr.rollout(prob, builtin("trapezoidal"), 1, np.zeros((1, 2)))


class TestLinearize:
    def test_linear_dynamics_zero_offsets(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        rng = np.random.default_rng(11)
        state = ilqr.rollout(prob, tab, 6, rng.standard_normal((6, 3)))
        scale = 1.0 + np.abs(state.X).max()  # h = 20/3 lets states grow large
        for st in ilqr.linearize(prob, tab, state):
            np.testing.assert_allclose(st.D1, 0.0, atol=1e-13 * scale)
            np.testing.assert_allclose(st.D2, 0.0, atol=1e-13 * scale)

    def test_euler_blocks(self):
        prob = pendulum()
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 4, np.zeros((4, 1)))
        h = state.h
        steps = ilqr.linearize(prob, tab, state)
        for k, st in enumerate(steps):
            Jx = prob.jac_x(state.X[k], state.U[k])
            np.testing.assert_allclose(st.E, np.eye(2), atol=0)
            np.testing.assert_allclose(st.F, 0.0, atol=0)
            np.testing.assert_allclose(st.G, np.eye(2) + h * Jx, atol=1e-14)
            np.testing.assert_allclose(st.H, h * prob.jac_u(state.X[k], state.U[k]), atol=1e-14)

    def test_upright_pendulum_jacobian_block(self):
        prob = NonlinearProblem(
            f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju,
            Q=np.zeros((2, 2)), R=[[0.05]], M=5 * np.eye(2), x0=[0.0, 0.0], tf=4.0,
        )
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 4, np.zeros((4, 1)))
        st = ilqr.linearize(prob, tab, state)[0]
        np.testing.assert_allclose(st.G, np.eye(2) + state.h * np.array([[0, 1], [1, 0]]), atol=1e-14)


def prob_f(x, u):
    return np.array([x[1], np.sin(x[0]) + u[0]])


def prob_jx(x, u):
    return np.array([[0.0, 1.0], [np.cos(x[0]), 0.0]])


def prob_ju(x, u):
    return np.array([[0.0], [1.0]])


class TestBackwardAndDirection:
    def test_feedback_reproduces_dlqr_gains_on_optimal_path(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        N = 30
        sysm, rp, traj = dlqr.solve(prob, tab, N)
        state = ilqr.make_state(prob, tab, traj.U, traj.X, traj.x)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        for k in range(N):
            np.testing.assert_allclose(
                bp.U1[k] @ traj.x[k] + bp.U2[k], rp.L[k] @ traj.x[k], atol=1e-11
            )
            np.testing.assert_allclose(bp.M[k], rp.M[k], atol=1e-11)

    def test_zero_cost_zero_gains(self):
        prob = NonlinearProblem(
            f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju,
            Q=np.zeros((2, 2)), R=[[1.0]], M=np.zeros((2, 2)), x0=[0.5, 0.0], tf=2.0,
        )
        tab = builtin("methodA")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        for k in range(5):
            np.testing.assert_allclose(bp.U1[k], 0.0, atol=1e-14)
            np.testing.assert_allclose(bp.U2[k], 0.0, atol=1e-14)

    def test_single_step_gain_matches_direct_minimization(self):
        prob = pendulum()
        tab = builtin("methodB")
        state = ilqr.rollout(prob, tab, 1, np.array([[0.3, -0.2, 0.1]]))
        steps = ilqr.linearize(prob, tab, state)
        st = steps[0]
        bp = ilqr.backward(prob, tab, steps[:1])
        h = state.h
        Qh, Rh, _ = dlqr.stage_cost_blocks(prob, tab.b, h)
        K = st.F.T @ Qh @ st.F + Rh + st.H.T @ prob.M @ st.H
        U_opt = np.linalg.solve(
            K,
            -(st.F.T @ Qh @ (st.E @ prob.x0 + st.D1)
              + st.H.T @ prob.M @ (st.G @ prob.x0 + st.D2)),
        )
        np.testing.assert_allclose(bp.U1[0] @ prob.x0 + bp.U2[0], U_opt, atol=1e-12)

    def test_direction_vanishes_at_stationary_point(self):
        prob = pendulum()
        tab = builtin("methodB")
        state, _ = ilqr.solve(prob, tab, 40, tol=1e-11)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU = ilqr.direction(state, bp, steps)
        assert np.abs(dU).max() < 1e-8

    def test_linear_problem_one_newton_step_hits_optimum(self):
        prob = spring_oscillator()
        tab = builtin("methodA")
        N = 25
        state = ilqr.rollout(prob, tab, N, np.zeros((N, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU = ilqr.direction(state, bp, steps)
        _, _, traj = dlqr.solve(prob, tab, N)
        np.testing.assert_allclose(state.U + dU, traj.U, atol=1e-10)


class TestGradient:
    @pytest.mark.parametrize("name", ["euler", "methodB", "trapezoidal"])
    def test_matches_finite_differences(self, name):
        prob = pendulum()
        tab = builtin(name)
        N = 3
        rng = np.random.default_rng(17)
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        g = ilqr.gradient(prob, tab, state)
        eps = 1e-6
        for idx in np.ndindex(U.shape):
            up, um = U.copy(), U.copy()
            up[idx] += eps
            um[idx] -= eps
            fd = (ilqr.rollout(prob, tab, N, up).Jd - ilqr.rollout(prob, tab, N, um).Jd) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_cross_term_gradient(self):
        prob, _ = example31()
        tab = builtin("methodA")
        N = 4
        U = np.linspace(-1.0, 1.0, N * 2).reshape(N, 2)
        state = ilqr.rollout(prob, tab, N, U)
        g = ilqr.gradient(prob, tab, state)
        eps = 1e-7
        for idx in np.ndindex(U.shape):
            up, um = U.copy(), U.copy()
            up[idx] += eps
            um[idx] -= eps
            fd = (ilqr.rollout(prob, tab, N, up).Jd - ilqr.rollout(prob, tab, N, um).Jd) / (2 * eps)
            assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestLineSearch:
    def test_full_step_on_linear_problem(self):
        prob = spring_oscillator()
        tab = builtin("methodA")
        N = 20
        state = ilqr.rollout(prob, tab, N, np.zeros((N, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU = ilqr.direction(state, bp, steps)
        alpha, nxt = ilqr.line_search(prob, tab, state, dU)
        assert alpha == 1.0 and nxt.Jd < state.Jd

    def test_zero_direction_returns_same_state(self):
        prob = pendulum()
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 1)))
        alpha, nxt = ilqr.line_search(prob, tab, state, np.zeros((5, 1)))
        assert alpha == 1.0 and nxt is state


class TestSolve:
    def test_linear_problem_single_iteration(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        state, log = ilqr.solve(prob, tab, 100)
        assert len(log) == 1 and log[0].alpha == 1.0
        _, _, traj = dlqr.solve(prob, tab, 100)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-10)

    def test_infinite_tolerance_returns_initial_state(self):
        prob = pendulum()
        state, log = ilqr.solve(prob, builtin("methodB"), 10, tol=np.inf)
        assert log == []
        np.testing.assert_array_equal(state.U, 0.0)

    def test_not_converged_carries_state(self):
        prob = pendulum()
        with pytest.raises(NotConverged) as exc:
            ilqr.solve(prob, builtin("methodB"), 20, max_iter=1)
        assert exc.value.state is not None and len(exc.value.log) == 1

    def test_armijo_test_allows_for_rounding_near_the_optimum(self):
        # without the roundoff allowance this start stalls in NotConverged:
        # c1 alpha slope falls below the rounding error of Jd
        prob = dataclasses.replace(pendulum(), x0=[1.04, 0.0])
        _, log = ilqr.solve(prob, builtin("methodB"), 40, tol=1e-11)
        assert len(log) <= 10

    def test_monotone_descent_on_pendulum(self):
        prob = pendulum()
        state, log = ilqr.solve(prob, builtin("methodB"), 60)
        jds = [rec.Jd for rec in log]
        assert all(a >= b for a, b in zip(jds, jds[1:]))
        assert all(rec.slope < 0 for rec in log)


def _costate_residual(prob, tab, state, cost):
    """Worst residual of the adjoint recursion over all steps and stages."""
    adj = adjoint(tab)
    S = cross_term(prob)
    n, m, s = prob.n, prob.m, tab.s
    h = state.h
    worst = 0.0
    for k in range(state.N):
        xs = state.X[k].reshape(s, n)
        us = state.U[k].reshape(s, m)
        ps = cost.p_stage[k].reshape(s, n)
        grads = np.array(
            [prob.jac_x(xs[i], us[i]).T @ ps[i] + prob.Q @ xs[i] for i in range(s)]
        )
        if S is not None:
            grads += us @ S.T
        r_node = cost.p[k + 1] - (cost.p[k] - h * tab.b @ grads)
        worst = max(worst, np.abs(r_node).max())
        for i in range(s):
            r_stage = ps[i] - (cost.p[k] - h * adj.abar[i] @ grads)
            worst = max(worst, np.abs(r_stage).max())
    return worst


class TestCostates:
    def test_linear_matches_riccati_value_gradient(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        sysm, rp, traj = dlqr.solve(prob, tab, 50)
        state = ilqr.make_state(prob, tab, traj.U, traj.X, traj.x)
        cost = ilqr.costates(prob, tab, state)
        np.testing.assert_allclose(cost.p, traj.p, atol=1e-9)

    def test_zero_cost_zero_costates(self):
        prob = NonlinearProblem(
            f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju,
            Q=np.zeros((2, 2)), R=[[1.0]], M=np.zeros((2, 2)), x0=[0.5, 0.0], tf=2.0,
        )
        tab = builtin("methodA")
        state = ilqr.rollout(prob, tab, 6, np.zeros((6, 2)))
        cost = ilqr.costates(prob, tab, state)
        np.testing.assert_allclose(cost.p, 0.0, atol=0)
        np.testing.assert_allclose(cost.p_stage, 0.0, atol=0)

    def test_initial_costate_fourth_order(self):
        prob, _ = example31()
        tab = builtin("methodC")
        errs = []
        for N in (5, 10, 20):
            _, _, traj = dlqr.solve(prob, tab, N)
            state = ilqr.make_state(prob, tab, traj.U, traj.X, traj.x)
            cost = ilqr.costates(prob, tab, state)
            errs.append(abs(cost.p[0, 0] - P_STAR_0))
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.4)

    @pytest.mark.parametrize("name", ["euler", "methodA", "methodB", "trapezoidal"])
    def test_recursion_residual(self, name):
        prob = pendulum()
        tab = builtin(name)
        state, _ = ilqr.solve(prob, tab, 30)
        cost = ilqr.costates(prob, tab, state)
        pnorm = np.abs(cost.p).max()
        assert _costate_residual(prob, tab, state, cost) < 1e-10 * (1 + pnorm)
        np.testing.assert_allclose(cost.p[-1], prob.M @ state.x[-1], atol=0)


class TestNodeControls:
    def test_pendulum_closed_form(self):
        prob = pendulum()
        tab = builtin("methodB")
        state, _ = ilqr.solve(prob, tab, 40)
        cost = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, cost)
        np.testing.assert_allclose(u[:, 0], -20.0 * cost.p[:, 1], atol=1e-14)

    def test_zero_costate_zero_control(self):
        prob = NonlinearProblem(
            f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju,
            Q=np.zeros((2, 2)), R=[[1.0]], M=np.zeros((2, 2)), x0=[0.5, 0.0], tf=2.0,
        )
        tab = builtin("methodA")
        state = ilqr.rollout(prob, tab, 6, np.zeros((6, 2)))
        cost = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, cost)
        np.testing.assert_allclose(u, 0.0, atol=0)

    def test_linear_agrees_with_dlqr(self):
        prob = spring_oscillator()
        tab = builtin("methodA")
        sysm, rp, traj = dlqr.solve(prob, tab, 40)
        state = ilqr.make_state(prob, tab, traj.U, traj.X, traj.x)
        cost = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, cost)
        np.testing.assert_allclose(u, traj.u, atol=1e-9)

    def test_newton_path_solves_stationarity(self):
        # cubic control entry breaks the affine shortcut; Newton must solve
        # Ju(x,u)'p + Ru = 0 at every node.  Costates are kept small so the
        # stationarity quadratic 0.3 p_2 u^2 + R u + p_2 has a real root.
        def f(x, u):
            return np.array([x[1], np.sin(x[0]) + u[0] + 0.1 * u[0] ** 3])

        def ju(x, u):
            return np.array([[0.0], [1.0 + 0.3 * u[0] ** 2]])

        prob = NonlinearProblem(
            f_fn=f, jac_x_fn=prob_jx, jac_u_fn=ju,
            Q=np.zeros((2, 2)), R=[[2.0]], M=0.5 * np.eye(2), x0=[np.pi / 3, 0.0], tf=1.0,
        )
        tab = builtin("methodB")
        rng = np.random.default_rng(2)
        state = ilqr.rollout(prob, tab, 10, 0.1 * rng.standard_normal((10, 3)))
        cost = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, cost)
        for k in range(state.N + 1):
            resid = ju(state.x[k], u[k]).T @ cost.p[k] + prob.R @ u[k]
            assert np.abs(resid).max() < 1e-10

    def test_newton_reports_unsolvable_stationarity(self):
        # with a large costate the stationarity quadratic has no real root
        from rklqr.errors import NodeControlFailure

        def f(x, u):
            return np.array([x[1], np.sin(x[0]) + u[0] + 0.1 * u[0] ** 3])

        def ju(x, u):
            return np.array([[0.0], [1.0 + 0.3 * u[0] ** 2]])

        prob = NonlinearProblem(
            f_fn=f, jac_x_fn=prob_jx, jac_u_fn=ju,
            Q=np.zeros((2, 2)), R=[[0.5]], M=5 * np.eye(2), x0=[np.pi / 3, 0.0], tf=4.0,
        )
        tab = builtin("methodB")
        rng = np.random.default_rng(2)
        state = ilqr.rollout(prob, tab, 10, 0.3 * rng.standard_normal((10, 3)))
        cost = ilqr.costates(prob, tab, state)
        with pytest.raises(NodeControlFailure) as exc:
            ilqr.node_controls(prob, state, cost)
        assert exc.value.index is not None


class TestLQAsNonlinear:
    def test_wrapped_problem_one_shot(self):
        lq = spring_oscillator()
        tab = builtin("methodA")
        state, log = ilqr.solve(lq, tab, 50)
        assert len(log) == 1 and log[0].alpha == 1.0
        _, _, traj = dlqr.solve(lq, tab, 50)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-10)

    def test_cross_term_problem_one_shot(self):
        # the LQ class itself runs through the nonlinear pipeline, keeping S
        prob, _ = example31()
        tab = builtin("methodB")
        state, log = ilqr.solve(prob, tab, 20)
        assert len(log) == 1
        _, _, traj = dlqr.solve(prob, tab, 20)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-12)
