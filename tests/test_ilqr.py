"""ILQR: rollout, linearization, backward pass, line search, costates."""

import dataclasses
import gc
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from fixtures import IMPLICIT_EULER
from hypothesis import given, settings
from hypothesis import strategies as st

from rklqr import dlqr, ilqr, oracle
from rklqr.errors import LineSearchFailed, NodeControlFailure, NotConverged, RolloutDiverged
from rklqr.problem import (
    NonlinearProblem,
    example31,
    pendulum,
    pendulum_tanh,
    spring_oscillator,
)
from rklqr.tableau import adjoint, builtin

P_STAR_0 = 0.4136709340400075  # costate of the scalar benchmark at t = 0


def _constant_state_problem():
    return NonlinearProblem(
        f_fn=lambda X, U: np.zeros_like(X),
        jac_x_fn=lambda X, U: np.zeros((len(X), 2, 2)),
        jac_u_fn=lambda X, U: np.zeros((len(X), 2, 1)),
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
        steps = dlqr.assemble(prob, tab, N)
        rng = np.random.default_rng(3)
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        x = prob.x0.copy()
        for k in range(N):
            X = steps.E[0] @ x + steps.F[0] @ U[k]
            np.testing.assert_allclose(state.X[k], X, atol=1e-12)
            x = steps.G[0] @ x + steps.H[0] @ U[k]
            np.testing.assert_allclose(state.x[k + 1], x, atol=1e-12)

    def test_zero_steps_rejected(self):
        prob, tab = pendulum(), builtin("methodB")
        with pytest.raises(ValueError, match="N must be >= 1"):
            ilqr.rollout(prob, tab, 0, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="N must be >= 1"):
            oracle.grad_fd(prob, tab, 0, np.zeros((0, 3)))

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
                ks[i] = prob.f(xi[None], np.zeros((1, 1)))[0]
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
        steps = dlqr.assemble(prob, tab, N)
        rng = np.random.default_rng(5)
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        x = prob.x0.copy()
        for k in range(N):
            np.testing.assert_allclose(state.X[k], steps.E[0] @ x + steps.F[0] @ U[k], atol=1e-10)
            x = steps.G[0] @ x + steps.H[0] @ U[k]
        np.testing.assert_allclose(state.x[-1], x, atol=1e-10)

    def test_zero_row_stage_is_the_node_state(self):
        # trapezoidal's first row of a is zero, so stage 1 is x_k itself
        prob = pendulum()
        N = 40
        U = np.tile([-0.25, 0.5], (N, 1))
        state = ilqr.rollout(prob, builtin("trapezoidal"), N, U)
        np.testing.assert_array_equal(state.X[:, :2], state.x[:-1])

    def test_singular_coupling_in_a_sweep_is_a_divergence(self):
        # trapezoidal on xdot = x^2 + 1 + u from 0 at h = 1: the stage
        # equation X^2 - 2X + 2 = 0 has no real root, and Newton's first
        # update lands on X = 1, where the coupling 1 - h X is singular
        with pytest.raises(RolloutDiverged, match="step 0, h = 1.0$") as exc:
            ilqr.rollout(_square_plus_one(), builtin("trapezoidal"), 1, np.zeros((1, 2)))
        assert exc.value.h == 1.0
        assert exc.value.step == 0

    @pytest.mark.parametrize("N, step", [(1, 0), (4, 3)])
    def test_unsolvable_stage_equation_names_step_and_h(self, N, step):
        # implicit Euler on xdot = x^2 + 1 + u from 0: the stage equation
        # h X^2 - X + h + x_k = 0 has no real root once 4h (h + x_k) > 1,
        # at h = 1 on the first step and at h = 1/4 on the fourth, where
        # x_3 = 1.26 follows 0, 0.27 and 0.61
        with pytest.raises(RolloutDiverged, match=f"step {step}, h = {1.0 / N!r}") as exc:
            ilqr.rollout(_square_plus_one(), IMPLICIT_EULER, N, np.zeros((N, 1)))
        assert exc.value.h == 1.0 / N
        assert exc.value.step == step

    @pytest.mark.parametrize("name", ["methodB", "methodC", "trapezoidal"])
    @pytest.mark.parametrize("N", [8, 50])
    def test_rollout_from_tangent_prediction_matches_cold_rollout(self, name, N):
        prob, tab = pendulum(), builtin(name)
        state = ilqr.rollout(prob, tab, N, np.zeros((N, tab.s)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU, dX = ilqr.direction(state, bp, steps)
        for alpha in (1.0, 0.5):
            U = state.U + alpha * dU
            warm = ilqr.rollout(prob, tab, N, U, state.X + alpha * dX)
            cold = ilqr.rollout(prob, tab, N, U)
            for got, want in ((warm.x, cold.x), (warm.X, cold.X)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
            assert warm.Jd == pytest.approx(cold.Jd, rel=1e-13)

    def test_a_sweep_frees_the_last_sweeps_stacks(self):
        # methodC at K = 8000 steps from a 1000-step solve, the order study's
        # reference rung.  At its peak a sweep holds the rollout's U, X and x,
        # its own Jx and offsets and the working set of step_operators
        # (test_kernel's product-term test); the last sweep's [E | e] and
        # [G | g], 1.92 MB more, are gone by then
        from rklqr import cli

        prob, tab, K = pendulum(), builtin("methodC"), 8000
        n, s = prob.n, tab.s
        coarse, _ = cli.solve_problem(prob, tab, 1000)
        U0 = cli._at_stage_times(coarse.u, coarse.h, tab, prob.tf, K)
        X0 = cli._at_stage_times(coarse.x, coarse.h, tab, prob.tf, K)
        width = n + 1  # the offsets are one input column
        floats = (s * K * (prob.m + 2 * n + n * n) + (K + 1) * n  # U, X, offsets, Jx; x
                  + (s + 1) * n * width * K + s * n * (n + 1) * K + n * width * K)  # step_operators
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ilqr.rollout(prob, tab, K, U0, X0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 8 * floats + 1_000_000

    @pytest.mark.parametrize("U, got", [
        (np.zeros((10, 2)), "20 entries"),
        (np.where(np.arange(30).reshape(10, 3) == 10, np.nan, 0.0), "a non-finite entry"),
    ], ids=["wrong-size", "nan"])
    def test_bad_stage_controls_rejected(self, U, got):
        prob, tab = pendulum(), builtin("methodB")
        msg = rf"U must hold N·s·m = 30 finite stage controls, shape \(N, s·m\) = \(10, 3\); got {got}$"
        with pytest.raises(ValueError, match=msg):
            ilqr.solve(prob, tab, 10, U0=U)
        with pytest.raises(ValueError, match=msg):
            oracle.grad_fd(prob, tab, 10, U)

    @pytest.mark.parametrize("X0, got", [
        (np.zeros((10, 5)), "50 entries"),
        (np.where(np.arange(60).reshape(10, 6) == 7, np.inf, 0.0), "a non-finite entry"),
    ], ids=["wrong-size", "inf"])
    def test_bad_start_states_rejected(self, X0, got):
        prob, tab = pendulum(), builtin("methodB")
        msg = rf"X0 must hold N·s·n = 60 finite stage states, shape \(N, s·n\) = \(10, 6\); got {got}$"
        with pytest.raises(ValueError, match=msg):
            ilqr.solve(prob, tab, 10, X0=X0)


class TestLinearize:
    def test_euler_blocks(self):
        prob = pendulum()
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 4, np.zeros((4, 1)))
        h = state.h
        steps = ilqr.linearize(prob, tab, state)
        Jx, Ju = prob.stage_jacobians(state.X, state.U)  # Euler: one stage per step
        np.testing.assert_allclose(steps.E, np.broadcast_to(np.eye(2), (4, 2, 2)), atol=0)
        np.testing.assert_allclose(steps.F, 0.0, atol=0)
        np.testing.assert_allclose(steps.G, np.eye(2) + h * Jx, atol=1e-14)
        np.testing.assert_allclose(steps.H, h * Ju, atol=1e-14)

    def test_upright_pendulum_jacobian_block(self):
        prob = NonlinearProblem(
            f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju,
            Q=np.zeros((2, 2)), R=[[0.05]], M=5 * np.eye(2), x0=[0.0, 0.0], tf=4.0,
        )
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 4, np.zeros((4, 1)))
        G = ilqr.linearize(prob, tab, state).G[0]
        np.testing.assert_allclose(G, np.eye(2) + state.h * np.array([[0, 1], [1, 0]]), atol=1e-14)


def prob_f(X, U):
    return np.column_stack([X[:, 1], np.sin(X[:, 0]) + U[:, 0]])


def prob_jx(X, U):
    Jx = np.zeros((len(X), 2, 2))
    Jx[:, 0, 1] = 1.0
    Jx[:, 1, 0] = np.cos(X[:, 0])
    return Jx


def prob_ju(X, U):
    return np.broadcast_to([[0.0], [1.0]], (len(X), 2, 1))


def _zero_cost_pendulum():
    """The upright pendulum with Q = M = 0 from x0 = (0.5, 0): its cost is 1/2 u'u alone."""
    return NonlinearProblem(f_fn=prob_f, jac_x_fn=prob_jx, jac_u_fn=prob_ju, Q=np.zeros((2, 2)), R=[[1.0]],
                            M=np.zeros((2, 2)), x0=[0.5, 0.0], tf=2.0)


class TestBackwardAndDirection:
    def test_feedback_reproduces_dlqr_gains_on_optimal_path(self):
        prob, tab = spring_oscillator(), builtin("methodB")
        N = 30
        _, lq, traj = dlqr.solve(prob, tab, N)
        steps = ilqr.linearize(prob, tab, traj)
        bp = ilqr.backward(prob, tab, steps)
        for k in range(N):
            # the gradient vanishes at the optimum, so the step U2 leaves U on the DLQR feedback
            np.testing.assert_allclose(traj.U[k] + bp.U2[k], lq.U1[k] @ traj.x[k], atol=1e-11)
            np.testing.assert_allclose(bp.U1[k], lq.U1[k], atol=1e-11)
            np.testing.assert_allclose(bp.M[k], lq.M[k], atol=1e-11)

    def test_zero_cost_zero_gains(self):
        prob, tab = _zero_cost_pendulum(), builtin("methodA")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        for k in range(5):
            np.testing.assert_allclose(bp.U1[k], 0.0, atol=1e-14)
            np.testing.assert_allclose(bp.U2[k], 0.0, atol=1e-14)

    def test_single_step_gain_matches_direct_minimization(self):
        prob, tab = pendulum(), builtin("methodB")
        state = ilqr.rollout(prob, tab, 1, np.array([[0.3, -0.2, 0.1]]))
        steps = ilqr.linearize(prob, tab, state)
        E, F, G, H = (A[0] for A in (steps.E, steps.F, steps.G, steps.H))
        bp = ilqr.backward(prob, tab, steps)
        # the tangent plane X = E x0 + F V + D1, x1 = G x0 + H V + D2 through the iterate
        U = state.U[0]
        D1, D2 = state.X[0] - E @ prob.x0 - F @ U, state.x[1] - G @ prob.x0 - H @ U
        Qh, Rh, _ = dlqr.stage_cost_blocks(prob, tab.b, state.h)
        K = F.T @ Qh @ F + Rh + H.T @ prob.M @ H
        U_opt = np.linalg.solve(
            K,
            -(F.T @ Qh @ (E @ prob.x0 + D1)
              + H.T @ prob.M @ (G @ prob.x0 + D2)),
        )
        # one step from dx_0 = 0: the step is the feedforward alone
        np.testing.assert_allclose(U + bp.U2[0], U_opt, atol=1e-12)

    def test_direction_vanishes_at_stationary_point(self):
        prob, tab = pendulum(), builtin("methodB")
        state, _, _ = ilqr.solve(prob, tab, 40, tol=1e-11)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU, _ = ilqr.direction(state, bp, steps)
        assert np.abs(dU).max() < 1e-8

    def test_linear_problem_one_newton_step_hits_optimum(self):
        prob, tab = spring_oscillator(), builtin("methodA")
        N = 25
        state = ilqr.rollout(prob, tab, N, np.zeros((N, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU, dX = ilqr.direction(state, bp, steps)
        _, _, traj = dlqr.solve(prob, tab, N)
        np.testing.assert_allclose(state.U + dU, traj.U, atol=1e-10)
        # linear dynamics: the tangent plane is the feasible set
        np.testing.assert_allclose(state.X + dX, traj.X, atol=1e-10)


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
        prob, tab = spring_oscillator(), builtin("methodA")
        N = 20
        state = ilqr.rollout(prob, tab, N, np.zeros((N, 2)))
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU, dX = ilqr.direction(state, bp, steps)
        slope = float(np.sum(ilqr.gradient(prob, tab, state, steps) * dU))
        alpha, nxt, steps, g = ilqr.line_search(prob, tab, state, dU, dX, slope)
        assert alpha == 1.0 and nxt.Jd < state.Jd
        assert steps is None and g is None  # Armijo accepted it; solve linearizes nxt once

    def test_zero_direction_returns_same_state(self):
        prob = pendulum()
        tab = builtin("euler")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 1)))
        alpha, nxt, steps, g = ilqr.line_search(prob, tab, state, np.zeros((5, 1)), np.zeros((5, 2)), 0.0)
        assert alpha == 1.0 and nxt is state and steps is None and g is None


class TestSolve:
    def test_linear_problem_single_iteration(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        state, log, _ = ilqr.solve(prob, tab, 100)
        assert len(log) == 1 and log[0].alpha == 1.0
        _, _, traj = dlqr.solve(prob, tab, 100)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-10)

    def test_infinite_tolerance_returns_initial_state(self):
        prob = pendulum()
        state, log, _ = ilqr.solve(prob, builtin("methodB"), 10, tol=np.inf)
        assert log == []
        np.testing.assert_array_equal(state.U, 0.0)

    def test_not_converged_carries_state(self):
        prob = pendulum()
        with pytest.raises(NotConverged, match=r" after 1 iterations, h = 0\.2$") as exc:
            ilqr.solve(prob, builtin("methodB"), 20, max_iter=1)
        assert exc.value.state is not None and len(exc.value.log) == 1

    def test_armijo_test_allows_for_rounding_near_the_optimum(self):
        # with the plain Armijo test this start stalls in NotConverged: c1
        # alpha slope falls below the rounding error of Jd, where the line
        # search judges a step by its slope instead
        prob = dataclasses.replace(pendulum(), x0=[1.04, 0.0])
        _, log, _ = ilqr.solve(prob, builtin("methodB"), 40, tol=1e-11)
        assert len(log) <= 10

    def test_rounding_floor_is_not_converged(self):
        # the residual stops at a few 1e-13, where every trial changes Jd by
        # rounding only and none passes the slope test; where exactly depends
        # on the rounding of step_operators and the backward, and on the way
        # down it can touch 1e-14, so tol sits below any residual it reaches
        with pytest.raises(NotConverged, match=r"^rounding floor reached: .* h = 0\.02$") as exc:
            ilqr.solve(pendulum(), builtin("methodB"), 200, tol=1e-16)
        state, log = exc.value.state, exc.value.log
        assert state is not None and log and state.Jd == log[-1].Jd
        assert log[-1].grad_inf_norm < 1e-10

    def test_line_search_failure_above_the_rounding_floor_is_raised(self, monkeypatch):
        # far from the optimum the predicted decrease is well above rounding,
        # so a failed line search is a failure, not the rounding floor
        def no_step(*args):
            raise LineSearchFailed("no acceptable step")

        monkeypatch.setattr(ilqr, "line_search", no_step)
        with pytest.raises(LineSearchFailed, match=r"^no acceptable step, h = 0\.2$"):
            ilqr.solve(pendulum(), builtin("methodB"), 20)

    def test_each_iterate_is_linearized_once(self, monkeypatch):
        # every jac_x call is a rollout sweep (one f call each) or a
        # linearize; a trial the slope test linearized is not linearized
        # again.  The running cost's gradients (w, r) need the stage cost
        # blocks: in ilqr only linearize reads them, once per iterate, and
        # the gradient, the backward and the costates read its terms
        base, calls = pendulum_tanh(), {"f": 0, "jac_x": 0}
        linearized, in_search, callers = [], [], []

        def blocks(*args, fn=ilqr.stage_cost_blocks):
            callers.append(sys._getframe(1).f_code.co_name)
            return fn(*args)

        def counting(key, fn):
            def wrapped(X, U):
                calls[key] += 1
                return fn(X, U)
            return wrapped

        def recording_linearize(prob, tab, state):
            linearized.append(state)
            in_search.append(searching)
            return linearize(prob, tab, state)

        def flagged_line_search(*args):
            nonlocal searching
            searching = True
            try:
                return line_search(*args)
            finally:
                searching = False

        searching, linearize, line_search = False, ilqr.linearize, ilqr.line_search
        monkeypatch.setattr(ilqr, "linearize", recording_linearize)
        monkeypatch.setattr(ilqr, "line_search", flagged_line_search)
        monkeypatch.setattr(ilqr, "stage_cost_blocks", blocks)
        prob = dataclasses.replace(base, f_fn=counting("f", base.f_fn), jac_x_fn=counting("jac_x", base.jac_x_fn))
        _, log, _ = ilqr.solve(prob, builtin("methodB"), 75)
        assert calls["jac_x"] == calls["f"] + len(linearized)
        assert len({id(state) for state in linearized}) == len(linearized) >= len(log) + 1
        assert any(in_search)  # the slope test ran and its linearization was kept
        assert callers == ["linearize"] * len(linearized)

    def test_full_step_skips_the_curvature_bound(self):
        # near this optimum the pencil (hess J_d, W) has lambda_min = 0.085, so
        # phi'(alpha) >= 0.9 phi'(0) needs alpha > 1 once Jd changes by rounding
        # only; with that bound at alpha = 1 the solve raised LineSearchFailed
        prob = NonlinearProblem(f_fn=lambda X, U: -1.09 * X - 1.01 * U + 1.16 * np.sin(X) + 0.34 * np.tanh(U),
                                jac_x_fn=lambda X, U: (1.16 * np.cos(X) - 1.09)[:, :, None],
                                jac_u_fn=lambda X, U: (0.34 / np.cosh(U) ** 2 - 1.01)[:, :, None],
                                Q=[[0.15]], R=[[0.93]], M=[[1.04]], x0=[-1.12], tf=2.27)
        tab = builtin("methodB")
        state, log, _ = ilqr.solve(prob, tab, 2, tol=1e-8)
        assert len(log) < ilqr.DEFAULT_MAX_ITER and all(rec.alpha == 1.0 for rec in log)
        g = oracle.grad_exact(prob, tab, 2, state.U).reshape(state.U.shape)
        assert ilqr.scaled_residual(tab, state, g) < 1e-8

    def test_line_search_starts_with_no_tangent_plane_alive(self, monkeypatch):
        # the iterate's linearization, backward pass and gradient are dropped
        # once the direction and its slope are formed, so during a line
        # search the trials' linearizations are the only tangent planes held
        planes, searches = [], []

        def recording_linearize(*args):
            steps = linearize(*args)
            planes.append(weakref.ref(steps))
            return steps

        def checked_line_search(*args):
            gc.collect()
            assert [plane() for plane in planes] == [None] * len(planes)
            searches.append(len(planes))
            return line_search(*args)

        linearize, line_search = ilqr.linearize, ilqr.line_search
        monkeypatch.setattr(ilqr, "linearize", recording_linearize)
        monkeypatch.setattr(ilqr, "line_search", checked_line_search)
        _, log, _ = ilqr.solve(pendulum(), builtin("methodB"), 50)
        assert len(searches) == len(log) > 1 and searches[0] == 1

    def test_diverging_trials_are_rejected(self, monkeypatch):
        # xdot = x^2 + u escapes to infinity by t = 1 from x0 = 1 without
        # control: the early full steps make rollouts that overflow, and the
        # line search halves alpha past them
        prob = _square_problem(tf=1.0, R=0.01)
        diverged = []

        def recording_rollout(*args):
            try:
                return rollout(*args)
            except RolloutDiverged:
                diverged.append(args[3])  # U
                raise

        rollout = ilqr.rollout
        monkeypatch.setattr(ilqr, "rollout", recording_rollout)
        state, log, _ = ilqr.solve(prob, builtin("methodB"), 50)
        assert len(log) == 41 and state.Jd == pytest.approx(0.05343840025476608, rel=1e-15)
        assert diverged

    def test_diverging_first_rollout_raises(self):
        with pytest.raises(RolloutDiverged, match="h = 0.05$"):
            ilqr.solve(_square_problem(tf=2.5, R=1.0), builtin("methodB"), 50)

    @pytest.mark.parametrize("name, N", [("methodB", 200), ("trapezoidal", 100)])
    def test_warm_started_trials_save_f_calls(self, name, N):
        # 7 iterations: the first rollout and 8 trials, each trial started
        # from the tangent prediction (46 calls when every trial starts at x0)
        base, calls = pendulum(), []

        def counted(X, U):
            calls.append(len(X))
            return base.f_fn(X, U)

        _, log, _ = ilqr.solve(dataclasses.replace(base, f_fn=counted), builtin(name), N)
        assert len(calls) == 30
        assert [rec.alpha for rec in log] == [0.5] + [1.0] * 6

    def test_sweeps_skip_the_settled_prefix(self):
        # the same 30 batched f calls and step lengths as sweeps over all N
        # steps, but a sweep passes f only the steps after the settled prefix
        base, calls = pendulum(), []

        def counted(X, U):
            calls.append(len(X))
            return base.f_fn(X, U)

        tab, N = builtin("methodB"), 200
        _, log, _ = ilqr.solve(dataclasses.replace(base, f_fn=counted), tab, N)
        assert len(calls) == 30
        assert [rec.alpha for rec in log] == [0.5] + [1.0] * 6
        assert sum(calls) < 30 * N * tab.s

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": np.nan}, "tol must be a number > 0, not nan"),
        ({"tol": 0.0}, "tol must be a number > 0, not 0.0"),
        ({"tol": -np.inf}, "tol must be a number > 0, not -inf"),
        ({"tol": "1e-8"}, "tol must be a number > 0, not '1e-8'"),
        ({"max_iter": 0}, "max_iter must be an int >= 1, not 0"),
        ({"max_iter": 2.5}, "max_iter must be an int >= 1, not 2.5"),
        # bools are numbers to Python, but tol=True would run at 1.0 and max_iter=True as 1
        ({"tol": True}, "tol must be a number > 0, not True"),
        ({"max_iter": True}, "max_iter must be an int >= 1, not True"),
    ])
    def test_bad_stopping_rule_rejected_before_any_rollout(self, monkeypatch, kwargs, message):
        def no_rollout(*args):
            raise AssertionError("rollout before the stopping rule was checked")

        monkeypatch.setattr(ilqr, "rollout", no_rollout)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ilqr.solve(pendulum(), builtin("methodB"), 10, **kwargs)

    def test_monotone_descent_on_pendulum(self):
        prob = pendulum()
        state, log, _ = ilqr.solve(prob, builtin("methodB"), 60)
        jds = [rec.Jd for rec in log]
        assert all(a >= b for a, b in zip(jds, jds[1:]))
        assert all(rec.slope < 0 for rec in log)


def _square_plus_one():
    """xdot = x^2 + 1 + u from x0 = 0 over [0, 1], with Q = R = M = 1."""
    return NonlinearProblem(
        f_fn=lambda X, U: X**2 + 1.0 + U,
        jac_x_fn=lambda X, U: 2.0 * X[:, :, None],
        jac_u_fn=lambda X, U: np.ones((len(X), 1, 1)),
        Q=[[1.0]], R=[[1.0]], M=[[1.0]], x0=[0.0], tf=1.0,
    )


def _square_problem(tf, R):
    """xdot = x^2 + u from x0 = 1, with Q = M = 1."""
    return NonlinearProblem(
        f_fn=lambda X, U: X**2 + U,
        jac_x_fn=lambda X, U: 2.0 * X[:, :, None],
        jac_u_fn=lambda X, U: np.ones((len(X), 1, 1)),
        Q=[[1.0]], R=[[R]], M=[[1.0]], x0=[1.0], tf=tf,
    )


def _costate_residual(prob, tab, state, cost):
    """Worst residual of the adjoint recursion over all steps and stages."""
    adj = adjoint(tab)
    S = prob.S
    n, m, s = prob.n, prob.m, tab.s
    h = state.h
    worst = 0.0
    for k in range(state.N):
        xs = state.X[k].reshape(s, n)
        us = state.U[k].reshape(s, m)
        ps = cost.p_stage[k].reshape(s, n)
        Jx, _ = prob.stage_jacobians(xs, us)
        grads = np.array([Jx[i].T @ ps[i] + prob.Q @ xs[i] for i in range(s)])
        if S is not None:
            grads += us @ S.T
        r_node = cost.p[k + 1] - (cost.p[k] - h * tab.b @ grads)
        worst = max(worst, np.abs(r_node).max())
        for i in range(s):
            r_stage = ps[i] - (cost.p[k] - h * adj.a[i] @ grads)
            worst = max(worst, np.abs(r_stage).max())
    return worst


class TestCostates:
    def test_linear_matches_riccati_value_gradient(self):
        prob = spring_oscillator()
        tab = builtin("methodB")
        _, _, traj = dlqr.solve(prob, tab, 50)
        p = ilqr.costates(prob, tab, traj)
        np.testing.assert_allclose(p, traj.p, atol=1e-9)

    def test_zero_cost_zero_costates(self):
        prob, tab = _zero_cost_pendulum(), builtin("methodA")
        state = ilqr.rollout(prob, tab, 6, np.zeros((6, 2)))
        np.testing.assert_allclose(ilqr.costates(prob, tab, state), 0.0, atol=0)
        cost = oracle.adjoint_costates(prob, tab, state)
        np.testing.assert_allclose(cost.p, 0.0, atol=0)
        np.testing.assert_allclose(cost.p_stage, 0.0, atol=0)

    def test_initial_costate_fourth_order(self):
        prob, _ = example31()
        tab = builtin("methodC")
        errs = []
        for N in (5, 10, 20):
            _, _, traj = dlqr.solve(prob, tab, N)
            p = ilqr.costates(prob, tab, traj)
            errs.append(abs(p[0, 0] - P_STAR_0))
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.4)

    @pytest.mark.parametrize("tol, last", [(np.inf, []), (1e-6, [False]), (1e-8, [True])],
                             ids=["no-step", "armijo", "slope-test"])
    def test_solve_returns_the_final_costates(self, monkeypatch, tol, last):
        # p is the costates of the linearization the loop holds at its last
        # iterate, the one the line search hands on when its slope test took
        # the step, with no scan of its own
        prob, tab, line_search, slope_test, planes = pendulum(), builtin("methodB"), ilqr.line_search, [], []

        def recording_line_search(*args):
            out = line_search(*args)
            slope_test.append(out[2] is not None)
            return out

        def recording_linearize(*args, fn=ilqr.linearize):
            planes.append(fn(*args))
            return planes[-1]

        monkeypatch.setattr(ilqr, "line_search", recording_line_search)
        monkeypatch.setattr(ilqr, "linearize", recording_linearize)
        state, _, p = ilqr.solve(prob, tab, 40, tol=tol)
        assert slope_test[-1:] == last  # whether the slope test took the last step
        assert p is planes[-1].p
        np.testing.assert_array_equal(p, ilqr.costates(prob, tab, state))

    @pytest.mark.parametrize("name", ["euler", "methodA", "methodB", "trapezoidal"])
    def test_recursion_residual(self, name):
        prob = pendulum()
        tab = builtin(name)
        state, _, _ = ilqr.solve(prob, tab, 30)
        cost = oracle.adjoint_costates(prob, tab, state)
        pnorm = np.abs(cost.p).max()
        assert _costate_residual(prob, tab, state, cost) < 1e-10 * (1 + pnorm)
        np.testing.assert_allclose(cost.p[-1], prob.M @ state.x[-1], atol=0)


def _cubic_ju(X, U):
    """Ju of the cubic control entry u + 0.1 u^3 in the second state equation."""
    Ju = np.zeros((len(X), 2, 1))
    Ju[:, 1, 0] = 1.0 + 0.3 * U[:, 0] ** 2
    return Ju


class TestNodeControls:
    def test_pendulum_closed_form(self):
        prob = pendulum()
        tab = builtin("methodB")
        state, _, p = ilqr.solve(prob, tab, 40)
        u = ilqr.node_controls(prob, state, p)
        np.testing.assert_allclose(u[:, 0], -20.0 * p[:, 1], atol=1e-14)

    def test_zero_costate_zero_control(self):
        prob, tab = _zero_cost_pendulum(), builtin("methodA")
        state = ilqr.rollout(prob, tab, 6, np.zeros((6, 2)))
        p = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, p)
        np.testing.assert_allclose(u, 0.0, atol=0)

    def test_linear_agrees_with_dlqr(self):
        prob = spring_oscillator()
        tab = builtin("methodA")
        _, _, traj = dlqr.solve(prob, tab, 40)
        p = ilqr.costates(prob, tab, traj)
        u = ilqr.node_controls(prob, traj, p)
        np.testing.assert_allclose(u, traj.u, atol=1e-9)

    def test_newton_path_solves_stationarity(self):
        # cubic control entry breaks the affine shortcut; Newton must solve
        # Ju(x,u)'p + Ru = 0 at every node.  Costates are kept small so the
        # stationarity quadratic 0.3 p_2 u^2 + R u + p_2 has a real root.
        prob, tab = _cubic_problem(), builtin("methodB")
        rng = np.random.default_rng(2)
        state = ilqr.rollout(prob, tab, 10, 0.1 * rng.standard_normal((10, 3)))
        p = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, p)
        _, Ju = prob.stage_jacobians(state.x, u)
        for k in range(state.N + 1):
            resid = Ju[k].T @ p[k] + prob.R @ u[k]
            assert np.abs(resid).max() < 1e-10

    def test_newton_reports_unsolvable_stationarity(self):
        # with a large costate the stationarity quadratic has no real root
        prob, tab = dataclasses.replace(_cubic_problem(), R=[[0.5]], M=5 * np.eye(2), tf=4.0), builtin("methodB")
        rng = np.random.default_rng(2)
        state = ilqr.rollout(prob, tab, 10, 0.3 * rng.standard_normal((10, 3)))
        p = ilqr.costates(prob, tab, state)
        with pytest.raises(NodeControlFailure) as exc:
            ilqr.node_controls(prob, state, p)
        assert exc.value.index is not None


class TestLQAsNonlinear:
    def test_wrapped_problem_one_shot(self):
        lq = spring_oscillator()
        tab = builtin("methodA")
        state, log, _ = ilqr.solve(lq, tab, 50)
        assert len(log) == 1 and log[0].alpha == 1.0
        _, _, traj = dlqr.solve(lq, tab, 50)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-10)

    def test_cross_term_problem_one_shot(self):
        # the LQ class itself runs through the nonlinear pipeline, keeping S
        prob, _ = example31()
        tab = builtin("methodB")
        state, log, _ = ilqr.solve(prob, tab, 20)
        assert len(log) == 1
        _, _, traj = dlqr.solve(prob, tab, 20)
        np.testing.assert_allclose(state.U, traj.U, atol=1e-12)


def _cubic_problem():
    """The pendulum with the cubic control entry u + 0.1 u^3, Q = 0, R = 2 and M = I/2, from (pi/3, 0) over [0, 1]."""
    def f(X, U):
        return np.column_stack([X[:, 1], np.sin(X[:, 0]) + U[:, 0] + 0.1 * U[:, 0] ** 3])

    return NonlinearProblem(f_fn=f, jac_x_fn=prob_jx, jac_u_fn=_cubic_ju, Q=np.zeros((2, 2)), R=[[2.0]],
                            M=0.5 * np.eye(2), x0=[np.pi / 3, 0.0], tf=1.0)


def _two_input_problem():
    """omegadot = sin(theta) + u1 + 0.1 u1^3 + u2^2 / 2 with R = diag(2, 1).

    Node stationarity is p2 (1 + 0.3 u1^2) + 2 u1 = 0 and (p2 + 1) u2 = 0:
    p2 = 3 leaves the first without a real root, and p2 = -1 makes the
    second vanish identically, so from u2 = 0 the Newton system is singular.
    """
    def f(X, U):
        return np.column_stack([X[:, 1], np.sin(X[:, 0]) + U[:, 0] + 0.1 * U[:, 0] ** 3 + 0.5 * U[:, 1] ** 2])

    def ju(X, U):
        Ju = np.zeros((len(X), 2, 2))
        Ju[:, 1, 0] = 1.0 + 0.3 * U[:, 0] ** 2
        Ju[:, 1, 1] = U[:, 1]
        return Ju

    return NonlinearProblem(f_fn=f, jac_x_fn=prob_jx, jac_u_fn=ju, Q=np.zeros((2, 2)), R=np.diag([2.0, 1.0]),
                            M=np.eye(2), x0=[0.5, 0.0], tf=1.0)


def _scaled_pendulum(c):
    """The pendulum with its input in other units: omegadot = sin(theta) + c u, R = 0.05 c^2."""
    return dataclasses.replace(
        pendulum(),
        f_fn=lambda X, U: np.column_stack([X[:, 1], np.sin(X[:, 0]) + c * U[:, 0]]),
        jac_u_fn=lambda X, U: np.broadcast_to([[0.0], [c]], (len(X), 2, 1)), R=[[0.05 * c * c]])


def _node_state(prob, x, U):
    """An iterate with node states x (N+1, n) whose stage controls U (N, s·m) hold the Newton guesses."""
    N, s = U.shape[0], U.shape[1] // prob.m
    return ilqr.IterateState(U=np.asarray(U, dtype=float), X=np.zeros((N, s * prob.n)),
                             x=np.asarray(x, dtype=float), Jd=0.0, h=prob.tf / N)


def _reference_newton(prob, x, p, u):
    """Newton on one node's stationarity with the stopping rule of ``ilqr.node_controls``.

    Returns (u, iterations) or (failure kind, iterations), an iteration
    being one evaluation of the residual at an iterate.
    """
    def terms(v):
        _, Ju = prob.stage_jacobians(x[None], v[None])
        return Ju[0].T @ p, prob.R @ v, prob.S.T @ x

    m = u.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, ilqr.NEWTON_MAXIT + 1):
            a, b, c = terms(u)
            g = a + b + c
            if not (np.isfinite(u).all() and np.isfinite(g).all()):
                return "non-finite", it
            if np.abs(g).max() <= ilqr.NEWTON_TOL * max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max()):
                return u, it
            D = np.empty((m, m))
            for col in range(m):
                e = np.zeros(m)
                e[col] = 1e-7 * (1.0 + abs(u[col]))
                D[:, col] = (terms(u + e)[0] - terms(u - e)[0]) / (2 * e[col])
            try:
                u = np.linalg.solve(prob.R + D, D @ u - a - c)
            except np.linalg.LinAlgError:
                return "singular", it
    return "stalled", ilqr.NEWTON_MAXIT


def _reference_node_controls(prob, state, p):
    """Per-node loop of ``_reference_newton``: (u, iterations per node), or (failure kind, first failing node)."""
    m = prob.m
    guesses = np.concatenate([state.U[:, :m], state.U[-1:, -m:]])
    out = [_reference_newton(prob, x, pk, u) for x, pk, u in zip(state.x, p, guesses)]
    for k, (u, _) in enumerate(out):
        if isinstance(u, str):
            return u, k
    return np.array([u for u, _ in out]), [it for _, it in out]


def _batched_outcome(prob, state, p):
    """ilqr.node_controls as the reference reports it: u, or (failure kind, node)."""
    try:
        return ilqr.node_controls(prob, state, p)
    except NodeControlFailure as exc:
        kind = next(k for k in ("non-finite", "singular", "stalled") if k in str(exc))
        assert str(exc).endswith(f"at node {exc.index}, h = {state.h!r}")
        return kind, exc.index


def _recording(prob):
    """prob with a jac_u_fn that records the number of points of every call."""
    calls = []

    def ju(X, U):
        calls.append(len(X))
        return prob.jac_u_fn(X, U)

    return dataclasses.replace(prob, jac_u_fn=ju), calls


class TestBatchedNodeControls:
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6])
    def test_settles_in_any_units(self, c):
        # the same control problem with the input in other units: u = u_1 / c
        tab, N = builtin("methodB"), 40
        base, _, _ = ilqr.solve(pendulum(), tab, N)
        prob = _scaled_pendulum(c)
        state = ilqr.rollout(prob, tab, N, base.U / c)
        p = ilqr.costates(prob, tab, state)
        u = ilqr.node_controls(prob, state, p)
        closed = -c * p[:, 1:] / prob.R[0, 0]
        np.testing.assert_allclose(u, closed, rtol=0, atol=1e-12 * np.abs(closed).max())

    @pytest.mark.parametrize("make", [_cubic_problem, pendulum_tanh, _two_input_problem])
    def test_zero_costate_gives_exactly_zero(self, make):
        # no term of the residual but Ru is left, so u = 0 is the answer and
        # a purely relative stopping test would never settle a nonzero guess
        prob = make()
        rng = np.random.default_rng(4)
        N = 7
        state = _node_state(prob, rng.standard_normal((N + 1, 2)), 1.0 + rng.random((N, 2 * prob.m)))
        u = ilqr.node_controls(prob, state, np.zeros((N + 1, 2)))
        np.testing.assert_array_equal(u, 0.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["cubic", "tanh"]), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_batched_matches_per_node_loop(self, seed, which, N):
        # the cubic stationarity has no real root once |p2| > 1.83, so failures
        # are compared too; on tanh, plain Newton cycles from some guesses
        # once |p2| is near 1, which would leave few examples that converge
        prob, bound = (_cubic_problem(), 2.0) if which == "cubic" else (pendulum_tanh(), 0.5)
        rng = np.random.default_rng(seed)
        p = rng.uniform(-bound, bound, (N + 1, 2))
        state = _node_state(prob, rng.uniform(-3.0, 3.0, (N + 1, 2)), rng.uniform(-2.0, 2.0, (N, 2)))
        want, got = _reference_node_controls(prob, state, p), _batched_outcome(prob, state, p)
        if isinstance(want[0], str):
            assert got == want
        else:
            np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=1e-12 * np.abs(want[0]).max())

    @pytest.mark.parametrize("which", ["pendulum", "cubic", "tanh"])
    def test_one_stage_jacobians_call_per_iteration(self, which):
        prob = {"pendulum": pendulum(), "cubic": _cubic_problem(), "tanh": pendulum_tanh()}[which]
        rng = np.random.default_rng(8)
        N = 30
        state = _node_state(prob, rng.uniform(-1, 1, (N + 1, 2)), rng.uniform(-1, 1, (N, 3)))
        p = rng.uniform(-0.5, 0.5, (N + 1, 2))
        _, iterations = _reference_node_controls(prob, state, p)
        recorded, calls = _recording(prob)
        ilqr.node_controls(recorded, state, p)
        # call t evaluates the 2m + 1 points of every node still unsettled at iteration t
        assert calls == [3 * sum(it >= t for it in iterations) for t in range(1, max(iterations) + 1)]
        if which == "pendulum":  # the first step is the closed form
            assert len(calls) <= 2

    def test_trapezoidal_closed_form(self):
        # D = 0 exactly for dynamics affine in u, through implicit stages too
        prob, tab = pendulum(), builtin("trapezoidal")
        state, _, p = ilqr.solve(prob, tab, 60)
        u = ilqr.node_controls(prob, state, p)
        np.testing.assert_allclose(u, -p[:, 1:] / prob.R[0, 0], rtol=1e-15)


def _failure_case(costate2, guess1=0.2):
    """Nodes of ``_two_input_problem`` with p2 = costate2[k] and first guess u = (guess1[k], 0)."""
    prob = _two_input_problem()
    costate2, guess1 = np.broadcast_arrays(np.asarray(costate2, dtype=float), guess1)
    N = len(costate2) - 1
    U = np.zeros((N, 4))  # two stages: node k < N starts from stage 1 of step k, node N from stage 2 of step N-1
    U[:, 0], U[:, 2] = guess1[:-1], guess1[1:]
    x = np.column_stack([np.linspace(-1.0, 1.0, N + 1), np.zeros(N + 1)])
    p = np.column_stack([np.zeros(N + 1), costate2])
    return prob, _node_state(prob, x, U), p


class TestNodeControlFailures:
    """NodeControlFailure names the first failing node in node order, as a per-node loop would."""

    @pytest.mark.parametrize("costate2, want", [
        ([0.5, 0.2, -1.0, 0.4, 3.0, 0.3], ("singular", 2)),
        ([0.5, 3.0, 0.2, -1.0, 0.4, 0.3], ("stalled", 1)),  # the singular node fails 49 iterations earlier
        ([0.5, 0.2, 0.4, 0.3, 0.1, 3.0], ("stalled", 5)),
        ([0.5, 0.2, np.inf, 3.0, -1.0, 0.3], ("non-finite", 2)),
    ], ids=["singular", "stall-before-singular", "stalled", "non-finite-costate"])
    def test_matches_per_node_loop(self, costate2, want):
        prob, state, p = _failure_case(costate2)
        assert _reference_node_controls(prob, state, p) == want
        assert _batched_outcome(prob, state, p) == want

    def test_non_finite_guess_fails_at_once(self):
        # node 3 starts from NaN and node 4 alone would stall: the failure of
        # node 3 ends the work on every node after it at once, so the batch
        # stops when nodes 0-2 settle, not at the iteration cap
        prob, state, p = _failure_case([0.5, 0.2, 0.4, 0.3, 3.0], guess1=[0.2, 0.2, 0.2, np.nan, 0.2])
        assert _reference_node_controls(prob, state, p) == ("non-finite", 3)
        recorded, calls = _recording(prob)
        assert _batched_outcome(recorded, state, p) == ("non-finite", 3)
        assert len(calls) < 10


class TestStepCount:
    @pytest.mark.parametrize("N", [10.0, 2.5, True, np.float64(4.0), "4"], ids=repr)
    def test_non_integral_step_count_names_N(self, N):
        prob, tab = pendulum(), builtin("methodB")
        with pytest.raises(ValueError, match=f"^N must be an int, not {re.escape(repr(N))}$"):
            ilqr.solve(prob, tab, N)
        with pytest.raises(ValueError, match=f"^N must be an int, not {re.escape(repr(N))}$"):
            ilqr.rollout(prob, tab, N, np.zeros((4, 3)))

    def test_numpy_integer_step_count_accepted(self):
        prob, tab = pendulum(), builtin("methodB")
        state, _, _ = ilqr.solve(prob, tab, np.int64(6))
        assert state.N == 6
