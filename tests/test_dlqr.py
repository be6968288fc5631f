"""DLQR pipeline: assembly, Riccati recursion, rollout, value identities."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from fixtures import (CLOSED_LOOP, HUGE_START, IMPLICIT_EULER, NEGATIVE_HEUN, OVERFLOW, ZERO_COST_SPRING, ZERO_VALUE,
                      continuous_riccati)

from rklqr import dlqr, ilqr
from rklqr.cli import max_node_error, max_stage_error
from rklqr.errors import BackwardFailure, RolloutDiverged, StepTooLarge
from rklqr.problem import LQProblem, example31, spring_oscillator
from rklqr.tableau import builtin

U_STAR_0 = -0.9136709340400074


class TestAssemble:
    def test_euler_blocks(self):
        prob = spring_oscillator()
        steps = dlqr.assemble(prob, builtin("euler"), 400)
        h = 0.1
        np.testing.assert_allclose(steps.E[0], np.eye(2), atol=0)
        np.testing.assert_allclose(steps.F[0], np.zeros((2, 1)), atol=0)
        np.testing.assert_allclose(steps.G[0], np.eye(2) + h * prob.A, atol=1e-15)
        np.testing.assert_allclose(steps.H[0], h * prob.B, atol=1e-15)

    def test_methodA_on_scalar_integrator(self):
        # A = 0, B = 1: G = 1 and H = (h b_1, h b_2) by hand
        prob, _ = example31()
        steps = dlqr.assemble(prob, builtin("methodA"), 10)
        np.testing.assert_allclose(steps.G[0], [[1.0]], atol=0)
        np.testing.assert_allclose(steps.H[0], [[0.05, 0.05]], atol=1e-16)
        np.testing.assert_allclose(steps.E[0], [[1.0], [1.0]], atol=0)
        np.testing.assert_allclose(steps.F[0], [[0, 0], [0.1, 0]], atol=1e-16)

    def test_methodC_matches_rk4_power_series(self):
        prob = spring_oscillator()
        steps = dlqr.assemble(prob, builtin("methodC"), 400)
        hA = 0.1 * prob.A
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 5):
            term = term @ hA / k
            series = series + term
        np.testing.assert_allclose(steps.G[0], series, atol=1e-15)

    def test_cost_blocks(self):
        prob, _ = example31()
        Qh, _, Sh = dlqr.stage_cost_blocks(prob, builtin("methodA").b, 0.1)
        np.testing.assert_allclose(Qh, 0.1 * np.diag([0.5, 0.5]), atol=1e-16)
        np.testing.assert_allclose(Sh, 0.1 * np.diag([0.25, 0.25]), atol=1e-16)

    def test_jacobians_come_from_one_stage_jacobians_call(self, monkeypatch):
        # the K = 1 step reads the dynamics through the surface ILQR uses, at its s stage points
        calls = []
        surface = LQProblem.stage_jacobians

        def counted(prob, X, U):
            calls.append((X.shape, U.shape))
            return surface(prob, X, U)

        monkeypatch.setattr(LQProblem, "stage_jacobians", counted)
        dlqr.assemble(spring_oscillator(), builtin("methodC"), 40)
        assert calls == [((4, 2), (4, 1))]

    def test_implicit_tableau_assembles(self):
        # one step-invariant step, at h = 20
        steps = dlqr.assemble(spring_oscillator(), builtin("trapezoidal"), 2)
        assert np.all(np.isfinite(steps.E)) and steps.E.shape == (1, 4, 2)

    def test_singular_coupling_raises(self):
        # implicit Euler on xdot = x at h = 1 makes I - h a A exactly singular
        prob = LQProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=1.0)
        with pytest.raises(StepTooLarge) as exc:
            dlqr.assemble(prob, IMPLICIT_EULER, 1)
        assert exc.value.h == 1.0


class TestRiccati:
    def test_zero_cost_gives_zero_gains(self):
        prob, tab = ZERO_COST_SPRING, builtin("methodB")
        bp = dlqr.riccati_backward(prob, tab, dlqr.assemble(prob, tab, 10))
        for k in range(10):
            np.testing.assert_allclose(bp.U1[k], 0.0, atol=0)
            np.testing.assert_allclose(bp.M[k], 0.0, atol=0)

    @pytest.mark.parametrize("name", ["euler", "methodA", "methodB", "trapezoidal"])
    def test_single_step_matches_direct_minimization(self, name):
        # N = 1: V_0(x0) = min_U of an explicit quadratic; minimize it densely
        prob = spring_oscillator()
        tab = builtin(name)
        steps = dlqr.assemble(prob, tab, 1)
        bp = dlqr.riccati_backward(prob, tab, steps)
        E, F, G, H = steps.E[0], steps.F[0], steps.G[0], steps.H[0]
        Qh, Rh, _ = dlqr.stage_cost_blocks(prob, tab.b, prob.tf)
        K = F.T @ Qh @ F + Rh + H.T @ prob.M @ H
        lin = F.T @ Qh @ E + H.T @ prob.M @ G
        U0 = -np.linalg.solve(K, lin @ prob.x0)
        np.testing.assert_allclose(bp.U1[0] @ prob.x0, U0, atol=1e-12)
        # value at x0 equals the minimized quadratic
        X0 = E @ prob.x0 + F @ U0
        x1 = G @ prob.x0 + H @ U0
        V0 = 0.5 * (X0 @ Qh @ X0 + U0 @ Rh @ U0 + x1 @ prob.M @ x1)
        np.testing.assert_allclose(0.5 * prob.x0 @ bp.M[0] @ prob.x0, V0, atol=1e-12)

    def test_value_matrices_symmetric_psd(self):
        prob, _ = example31()
        _, bp, _ = dlqr.solve(prob, builtin("methodB"), 20)
        for Mk in bp.M:
            np.testing.assert_allclose(Mk, Mk.T, atol=0)
            assert np.linalg.eigvalsh(Mk).min() >= -1e-12

    def test_matches_continuous_riccati_at_third_order(self):
        # the continuous Riccati solution P(0) is the reference; the discrete
        # M_0 must approach it at O(h^3) for methodB
        prob = spring_oscillator()
        P0 = continuous_riccati(prob, prob.tf)[0]
        errs = []
        for N in (400, 800):
            _, bp, _ = dlqr.solve(prob, builtin("methodB"), N)
            errs.append(np.abs(bp.M[0] - P0).max())
        assert errs[0] < 1e-3
        assert 5.0 < errs[0] / errs[1] < 12.0  # halving h cuts the error ~8x

    def test_non_pd_inner_matrix_raises(self):
        # a negative-weight tableau makes Rh indefinite
        prob, _ = example31()
        steps = dlqr.assemble(prob, NEGATIVE_HEUN, 4)
        with pytest.raises(BackwardFailure):
            dlqr.riccati_backward(prob, NEGATIVE_HEUN, steps)

    @pytest.mark.parametrize("prob, method", [(OVERFLOW, "methodB"), (CLOSED_LOOP, "methodC")],
                             ids=["1e+300-methodB", "1e+70-methodC"])
    def test_overflow_is_named_as_such(self, prob, method):
        # A = 1e300 overflows the stage products, which the scan would read;
        # A = 1e70 overflows E'QhE in the per-step loop, whose K is finite but indefinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BackwardFailure, match=r"^stage operators or Hessian not finite at step 9, h = 0\.1$"):
                dlqr.solve(prob, builtin(method), 10)

    def test_closed_loop_overflow_names_the_step(self):
        # A = 1e70 with methodB passes the backward, but every M rounds to 0:
        # the closed loop is 0, and the cost of its controls contradicts that value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutDiverged,
                               match=r"^cost contradicts the value function at step 0, h = 0\.1$") as exc:
                dlqr.solve(CLOSED_LOOP, builtin("methodB"), 10)
        assert (exc.value.step, exc.value.h) == (0, 0.1)

    @pytest.mark.parametrize("prob, what, h", [(ZERO_VALUE, "cost contradicts the value function", 0.1),
                                               (HUGE_START, "cost not finite", 4.0)],
                             ids=["zero_value", "huge_start"])
    def test_cost_must_match_the_value_function(self, prob, what, h):
        # every value finite: a cost of 1.6e100 against M = 0, or a cost that overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutDiverged, match=rf"^{what} at step 0, h = {h}$") as exc:
                dlqr.solve(prob, builtin("methodB"), 10)
        assert (exc.value.step, exc.value.h) == (0, h)

    @pytest.mark.parametrize("x0", [[1e308, 1e308], [1.7e308, -1.7e308]], ids=["stages", "states"])
    def test_trajectory_overflow_names_the_step(self, x0):
        # x0 = 1e308 overflows X_0 and p_0 with every U and x finite; (1.7e308, -1.7e308) overflows U_0 itself
        prob = dataclasses.replace(spring_oscillator(), x0=x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutDiverged, match=r"^closed loop not finite at step 0, h = 4\.0$"):
                dlqr.solve(prob, builtin("methodB"), 10)


class TestOneStepType:
    @pytest.mark.parametrize("factory, name, N", [
        (spring_oscillator, "methodC", 400), (lambda: example31()[0], "trapezoidal", 50),
        (spring_oscillator, "euler", 40),
    ])
    def test_tiled_step_reproduces_broadcast_step(self, factory, name, N):
        # assemble's K = 1 step tiled to K = N steps is a tangent plane; ILQR's
        # backward over the tile must give the broadcast step's value data and
        # gains, and the zero trajectory exact-zero U2
        prob, tab = factory(), builtin(name)
        steps = dlqr.assemble(prob, tab, N)
        bp = dlqr.riccati_backward(prob, tab, steps)
        assert not bp.U2.any()
        tiled = dataclasses.replace(steps, **{k: np.broadcast_to(v, (N,) + v.shape[1:])
                                              for k, v in vars(steps).items() if k in "EFGH"})
        got = ilqr.backward(prob, tab, tiled)
        for field in ("M", "U1", "U2", "A"):
            np.testing.assert_allclose(getattr(got, field), getattr(bp, field), rtol=0, atol=1e-14)


class TestRollout:
    def test_zero_initial_state(self):
        prob = dataclasses.replace(spring_oscillator(), x0=np.zeros(2))
        _, _, traj = dlqr.solve(prob, builtin("methodB"), 10)
        assert np.all(traj.x == 0) and np.all(traj.U == 0) and np.all(traj.u == 0)

    def test_transition_identities(self):
        prob, _ = example31()
        steps, _, traj = dlqr.solve(prob, builtin("methodC"), 10)
        E, F, G, H = steps.E[0], steps.F[0], steps.G[0], steps.H[0]
        for k in range(10):
            np.testing.assert_allclose(
                traj.x[k + 1], G @ traj.x[k] + H @ traj.U[k], atol=1e-13
            )
            np.testing.assert_allclose(
                traj.X[k], E @ traj.x[k] + F @ traj.U[k], atol=1e-13
            )

    @pytest.mark.parametrize("factory", [lambda: example31()[0], spring_oscillator])
    def test_cost_equals_value_function(self, factory):
        prob = factory()
        tab = builtin("methodB")
        steps = dlqr.assemble(prob, tab, 50)
        bp = dlqr.riccati_backward(prob, tab, steps)
        traj = dlqr.rollout(prob, tab, steps, bp)
        direct = dlqr.discrete_cost(prob, tab, traj.U, traj.X, traj.x)
        value = 0.5 * prob.x0 @ bp.M[0] @ prob.x0
        assert direct == pytest.approx(value, abs=1e-10)

    def test_solution_is_an_ilqr_iterate(self):
        # the solution carries its own discrete cost, and ILQR reads it as an
        # iterate: at the optimum its stage-scaled gradient vanishes
        prob, tab = spring_oscillator(), builtin("methodB")
        _, _, traj = dlqr.solve(prob, tab, 50)
        assert traj.Jd == dlqr.discrete_cost(prob, tab, traj.U, traj.X, traj.x)
        assert ilqr.scaled_residual(tab, traj, ilqr.gradient(prob, tab, traj)) < 1e-9

    def test_node_control_near_reference_at_t0(self):
        prob, ref = example31()
        _, _, traj = dlqr.solve(prob, builtin("methodA"), 10)
        # O(h^2) for a 2nd-order pair at h = 0.1; measured ~2.3e-3
        assert abs(traj.u[0, 0] - U_STAR_0) < 7e-3

    def test_methodC_node_error_below_internal_stage_error(self):
        prob, ref = example31()
        tab = builtin("methodC")
        _, _, traj = dlqr.solve(prob, tab, 10)
        node_err = max_node_error(traj, ref)
        stage2_err = max_stage_error(traj, tab, ref, 2)
        assert node_err < stage2_err  # 4th-order nodes beat 2nd-order stage 2
        assert node_err < 3.02e-4

    def test_terminal_node_control_uses_terminal_costate(self):
        # M = 0 makes p_N = 0, so u_N = -S' x_N / R = -x_N / 2
        prob, _ = example31()
        _, _, traj = dlqr.solve(prob, builtin("methodB"), 10)
        assert traj.u[-1, 0] == pytest.approx(-0.5 * traj.x[-1, 0], abs=1e-14)


class TestStepCount:
    @pytest.mark.parametrize("N", [2.5, 10.0, True, None], ids=repr)
    def test_non_integral_step_count_names_N(self, N):
        with pytest.raises(ValueError, match=f"^N must be an int, not {re.escape(repr(N))}$"):
            dlqr.solve(spring_oscillator(), builtin("methodB"), N)

    @pytest.mark.parametrize("N", [0, -3, np.int64(0)])
    def test_step_count_below_one(self, N):
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            dlqr.assemble(spring_oscillator(), builtin("methodB"), N)

    def test_numpy_integer_step_count_accepted(self):
        _, _, traj = dlqr.solve(spring_oscillator(), builtin("methodB"), np.int64(5))
        assert traj.u.shape == (6, 1)
