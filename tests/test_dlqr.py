"""DLQR pipeline: assembly, Riccati recursion, rollout, value identities."""

import numpy as np
import pytest

from rklqr import dlqr
from rklqr.cli import max_node_error, max_stage_error
from rklqr.errors import RiccatiFailure
from rklqr.problem import LQProblem, example31, spring_oscillator
from rklqr.tableau import builtin

U_STAR_0 = -0.9136709340400074


class TestAssemble:
    def test_euler_blocks(self):
        prob = spring_oscillator()
        sysm = dlqr.assemble(prob, builtin("euler"), 400)
        h = 0.1
        np.testing.assert_allclose(sysm.E, np.eye(2), atol=0)
        np.testing.assert_allclose(sysm.F, np.zeros((2, 1)), atol=0)
        np.testing.assert_allclose(sysm.G, np.eye(2) + h * prob.A, atol=1e-15)
        np.testing.assert_allclose(sysm.H, h * prob.B, atol=1e-15)

    def test_methodA_on_scalar_integrator(self):
        # A = 0, B = 1: G = 1 and H = (h b_1, h b_2) by hand
        prob, _ = example31()
        sysm = dlqr.assemble(prob, builtin("methodA"), 10)
        np.testing.assert_allclose(sysm.G, [[1.0]], atol=0)
        np.testing.assert_allclose(sysm.H, [[0.05, 0.05]], atol=1e-16)
        np.testing.assert_allclose(sysm.E, [[1.0], [1.0]], atol=0)
        np.testing.assert_allclose(sysm.F, [[0, 0], [0.1, 0]], atol=1e-16)

    def test_methodC_matches_rk4_power_series(self):
        prob = spring_oscillator()
        sysm = dlqr.assemble(prob, builtin("methodC"), 400)
        hA = 0.1 * prob.A
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 5):
            term = term @ hA / k
            series = series + term
        np.testing.assert_allclose(sysm.G, series, atol=1e-15)

    def test_cost_blocks(self):
        prob, _ = example31()
        sysm = dlqr.assemble(prob, builtin("methodA"), 10)
        np.testing.assert_allclose(sysm.Qh, 0.1 * np.diag([0.5, 0.5]), atol=1e-16)
        np.testing.assert_allclose(sysm.Sh, 0.1 * np.diag([0.25, 0.25]), atol=1e-16)

    def test_implicit_tableau_assembles(self):
        sysm = dlqr.assemble(spring_oscillator(), builtin("trapezoidal"), 2)
        assert np.all(np.isfinite(sysm.E)) and sysm.h == 20.0

    def test_singular_coupling_raises(self):
        # implicit Euler on xdot = x at h = 1 makes I - h a A exactly singular
        from rklqr.errors import StepTooLarge
        from rklqr.tableau import ButcherTableau

        prob = LQProblem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[1.0], tf=1.0)
        implicit_euler = ButcherTableau(a=[[1.0]], b=[1.0], name="implicit-euler")
        with pytest.raises(StepTooLarge) as exc:
            dlqr.assemble(prob, implicit_euler, 1)
        assert exc.value.h == 1.0


class TestRiccati:
    def test_zero_cost_gives_zero_gains(self):
        prob = LQProblem(
            A=[[0.0, 1.0], [-1.0, 0.0]], B=[[1.0], [0.0]], Q=np.zeros((2, 2)),
            R=[[3.0]], M=np.zeros((2, 2)), x0=[1.0, 1.0], tf=4.0,
        )
        sysm = dlqr.assemble(prob, builtin("methodB"), 10)
        rp = dlqr.riccati_backward(sysm)
        for k in range(10):
            np.testing.assert_allclose(rp.L[k], 0.0, atol=0)
            np.testing.assert_allclose(rp.M[k], 0.0, atol=0)

    @pytest.mark.parametrize("name", ["euler", "methodA", "methodB", "trapezoidal"])
    def test_single_step_matches_direct_minimization(self, name):
        # N = 1: V_0(x0) = min_U of an explicit quadratic; minimize it densely
        prob = spring_oscillator()
        tab = builtin(name)
        sysm = dlqr.assemble(prob, tab, 1)
        rp = dlqr.riccati_backward(sysm)
        E, F, G, H = sysm.E, sysm.F, sysm.G, sysm.H
        K = F.T @ sysm.Qh @ F + sysm.Rh + H.T @ prob.M @ H
        lin = F.T @ sysm.Qh @ E + H.T @ prob.M @ G
        U0 = -np.linalg.solve(K, lin @ prob.x0)
        np.testing.assert_allclose(rp.L[0] @ prob.x0, U0, atol=1e-12)
        # value at x0 equals the minimized quadratic
        X0 = E @ prob.x0 + F @ U0
        x1 = G @ prob.x0 + H @ U0
        V0 = 0.5 * (X0 @ sysm.Qh @ X0 + U0 @ sysm.Rh @ U0 + x1 @ prob.M @ x1)
        np.testing.assert_allclose(0.5 * prob.x0 @ rp.M[0] @ prob.x0, V0, atol=1e-12)

    def test_value_matrices_symmetric_psd(self):
        prob, _ = example31()
        sysm = dlqr.assemble(prob, builtin("methodB"), 20)
        rp = dlqr.riccati_backward(sysm)
        for Mk in rp.M:
            np.testing.assert_allclose(Mk, Mk.T, atol=0)
            assert np.linalg.eigvalsh(Mk).min() >= -1e-12

    def test_matches_continuous_riccati_at_third_order(self):
        # backward RK4 integration of the continuous Riccati equation is the
        # reference; the discrete M_0 must approach it at O(h^3) for methodB
        prob = spring_oscillator()
        A, B, Q, R, Mf = prob.A, prob.B, prob.Q, prob.R, prob.M
        Rinv = np.linalg.inv(R)

        def mdot_backward(Mt):  # d/ds M(tf - s)
            return A.T @ Mt + Mt @ A - Mt @ B @ Rinv @ B.T @ Mt + Q

        h = 4e-3
        Mt = Mf.copy()
        for _ in range(int(round(prob.tf / h))):
            k1 = mdot_backward(Mt)
            k2 = mdot_backward(Mt + 0.5 * h * k1)
            k3 = mdot_backward(Mt + 0.5 * h * k2)
            k4 = mdot_backward(Mt + h * k3)
            Mt = Mt + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

        errs = []
        for N in (400, 800):
            rp = dlqr.riccati_backward(dlqr.assemble(prob, builtin("methodB"), N))
            errs.append(np.abs(rp.M[0] - Mt).max())
        assert errs[0] < 1e-3
        assert 5.0 < errs[0] / errs[1] < 12.0  # halving h cuts the error ~8x

    def test_non_pd_inner_matrix_raises(self):
        # a negative-weight tableau makes Rh indefinite
        from rklqr.tableau import ButcherTableau

        bad = ButcherTableau(a=[[0, 0], [1, 0]], b=[1.5, -0.5])
        prob, _ = example31()
        sysm = dlqr.assemble(prob, bad, 4)
        with pytest.raises(RiccatiFailure):
            dlqr.riccati_backward(sysm)


class TestRollout:
    def test_zero_initial_state(self):
        prob = spring_oscillator()
        sysm = dlqr.assemble(prob, builtin("methodB"), 10)
        rp = dlqr.riccati_backward(sysm)
        traj = dlqr.rollout(sysm, rp, x0=np.zeros(2))
        assert np.all(traj.x == 0) and np.all(traj.U == 0) and np.all(traj.u == 0)

    def test_transition_identities(self):
        prob, _ = example31()
        sysm = dlqr.assemble(prob, builtin("methodC"), 10)
        rp = dlqr.riccati_backward(sysm)
        traj = dlqr.rollout(sysm, rp)
        for k in range(10):
            np.testing.assert_allclose(
                traj.x[k + 1], sysm.G @ traj.x[k] + sysm.H @ traj.U[k], atol=1e-13
            )
            np.testing.assert_allclose(
                traj.X[k], sysm.E @ traj.x[k] + sysm.F @ traj.U[k], atol=1e-13
            )

    @pytest.mark.parametrize("factory", [lambda: example31()[0], spring_oscillator])
    def test_cost_equals_value_function(self, factory):
        prob = factory()
        sysm = dlqr.assemble(prob, builtin("methodB"), 50)
        rp = dlqr.riccati_backward(sysm)
        traj = dlqr.rollout(sysm, rp)
        direct = dlqr.discrete_cost(prob, builtin("methodB"), traj.U, traj.X, traj.x)
        value = 0.5 * prob.x0 @ rp.M[0] @ prob.x0
        assert direct == pytest.approx(value, abs=1e-10)

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
