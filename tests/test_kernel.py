"""The stacked linearization, the scans and the shared backward kernel of DLQR and ILQR.

The per-step references below are the plain formulas the stacked code
replaces; the batched versions must agree with them to rounding.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rklqr import dlqr, ilqr, oracle
from rklqr.errors import BackwardFailure, RiccatiFailure, StepTooLarge
from rklqr.problem import LQProblem, NonlinearProblem, example31, pendulum, spring_oscillator
from rklqr.tableau import ButcherTableau, builtin


def _reference_linearize(prob, tab, state):
    """Per-step E, F, G, H, D1, D2 from the dense stage-coupling blocks."""
    n, m, s = prob.n, prob.m, tab.s
    h = state.h
    out = []
    for k in range(state.N):
        xs = state.X[k].reshape(s, n)
        us = state.U[k].reshape(s, m)
        A1 = np.zeros((s * n, s * n))
        A2 = np.zeros((s * n, s * m))
        B = np.zeros((n, s * n))
        C = np.zeros((n, s * m))
        for j in range(s):
            Jx, Ju = prob.jac_x(xs[j], us[j]), prob.jac_u(xs[j], us[j])
            for i in range(s):
                A1[i * n:(i + 1) * n, j * n:(j + 1) * n] = h * tab.a[i, j] * Jx
                A2[i * n:(i + 1) * n, j * m:(j + 1) * m] = h * tab.a[i, j] * Ju
            B[:, j * n:(j + 1) * n] = h * tab.b[j] * Jx
            C[:, j * m:(j + 1) * m] = h * tab.b[j] * Ju
        E = np.linalg.solve(np.eye(s * n) - A1, np.tile(np.eye(n), (s, 1)))
        F = np.linalg.solve(np.eye(s * n) - A1, A2)
        G = np.eye(n) + B @ E
        H = B @ F + C
        D1 = state.X[k] - E @ state.x[k] - F @ state.U[k]
        D2 = state.x[k + 1] - G @ state.x[k] - H @ state.U[k]
        out.append((E, F, G, H, D1, D2))
    return out


def _reference_backward(prob, tab, steps):
    """Per-step affine value recursion with Cholesky-solved gains."""
    N = len(steps)
    Qh, Rh, Sh = dlqr.stage_cost_blocks(prob, tab.b, prob.tf / N)
    M, Y = [None] * (N + 1), [None] * (N + 1)
    U1, U2 = [None] * N, [None] * N
    M[N], Y[N] = prob.M.copy(), np.zeros(prob.n)
    for k in range(N - 1, -1, -1):
        E, F, G, H, D1, D2 = (steps.E[k], steps.F[k], steps.G[k], steps.H[k],
                              steps.D1[k], steps.D2[k])
        K = F.T @ Qh @ F + Rh + H.T @ M[k + 1] @ H
        lin_x = F.T @ Qh @ E + H.T @ M[k + 1] @ G
        lin_0 = F.T @ Qh @ D1 + H.T @ (M[k + 1] @ D2 + Y[k + 1])
        if Sh is not None:
            K = K + F.T @ Sh + Sh.T @ F
            lin_x = lin_x + Sh.T @ E
            lin_0 = lin_0 + Sh.T @ D1
        cho = scipy.linalg.cho_factor(0.5 * (K + K.T))
        U1[k] = -scipy.linalg.cho_solve(cho, lin_x)
        U2[k] = -scipy.linalg.cho_solve(cho, lin_0)
        EFL, GHL = E + F @ U1[k], G + H @ U1[k]
        Xoff, xoff = F @ U2[k] + D1, H @ U2[k] + D2
        Mk = EFL.T @ Qh @ EFL + U1[k].T @ Rh @ U1[k] + GHL.T @ M[k + 1] @ GHL
        Yk = EFL.T @ (Qh @ Xoff) + U1[k].T @ (Rh @ U2[k]) + GHL.T @ (M[k + 1] @ xoff + Y[k + 1])
        if Sh is not None:
            cross = EFL.T @ Sh @ U1[k]
            Mk = Mk + cross + cross.T
            Yk = Yk + EFL.T @ (Sh @ U2[k]) + U1[k].T @ (Sh.T @ Xoff)
        M[k], Y[k] = 0.5 * (Mk + Mk.T), Yk
    return M, Y, U1, U2


def _random_explicit_tableau(rng, s):
    a = np.tril(rng.uniform(-1.0, 1.0, (s, s)), -1)
    w = rng.uniform(0.1, 1.0, s)
    return ButcherTableau(a=a, b=w / w.sum(), name="random")


def _random_lq(rng, n, m, tf):
    """Random dynamics with a strictly convex running cost that has a cross term."""
    root = rng.standard_normal((n + m, n + m))
    cost = root @ root.T + 0.5 * np.eye(n + m)
    Mroot = rng.standard_normal((n, n))
    return LQProblem(
        A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, m)),
        Q=cost[:n, :n], S=cost[:n, n:], R=cost[n:, n:], M=Mroot @ Mroot.T,
        x0=rng.standard_normal(n), tf=tf,
    )


def _reference_affine(A, c, v, reverse):
    """The affine recursion as a loop, forward from v_0 or backward from v_L."""
    L = len(c)
    out = np.empty((L + 1, len(v)))
    if reverse:
        out[L] = v
        for k in range(L - 1, -1, -1):
            out[k] = A[k] @ out[k + 1] + c[k]
    else:
        out[0] = v
        for k in range(L):
            out[k + 1] = A[k] @ out[k] + c[k]
    return out


SEEDS = st.integers(0, 2**32 - 1)


class TestScans:
    @given(SEEDS, st.integers(1, 70), st.booleans())
    @example(0, 1, False)
    @example(1, 2, True)
    @example(2, 32, False)
    @example(3, 64, True)
    @settings(max_examples=60, deadline=None)
    def test_affine_scan_matches_loop(self, seed, L, reverse):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        # contractive maps keep the iterates and their rounding of order one
        A = rng.uniform(-1.0, 1.0, (L, n, n)) / n
        c, v = rng.standard_normal((L, n)), rng.standard_normal(n)
        got = dlqr.affine_scan(A, c, v, reverse=reverse)
        np.testing.assert_allclose(got, _reference_affine(A, c, v, reverse), rtol=1e-12, atol=1e-12)


def _scan_raises(elems, combine):
    raise np.linalg.LinAlgError("singular combine")


def _scan_not_finite(elems, combine):
    return tuple(np.full(e.shape, np.nan) for e in elems)


class TestRiccatiScan:
    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    def test_dlqr_matches_sequential_sweep(self, monkeypatch):
        sys = dlqr.assemble(spring_oscillator(), builtin("methodC"), 4000)
        scan = dlqr.riccati_backward(sys)
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = dlqr.riccati_backward(sys)
        assert self._rel(scan.M, loop.M) < 1e-12 and self._rel(scan.L, loop.L) < 1e-12

    def test_augmented_ilqr_matches_sequential_sweep(self, monkeypatch):
        prob, tab, N = pendulum(), builtin("methodB"), 2000
        state = ilqr.rollout(prob, tab, N, np.full((N, 3), -0.5))
        steps = ilqr.linearize(prob, tab, state)
        scan = ilqr.backward(prob, tab, steps)
        monkeypatch.setattr(ilqr, "value_sweep", dlqr.sequential_sweep)
        loop = ilqr.backward(prob, tab, steps)
        for got, want in zip(vars(scan).values(), vars(loop).values()):
            assert self._rel(got, want) < 1e-12

    @pytest.mark.parametrize("broken", [_scan_raises, _scan_not_finite])
    def test_scan_breakdown_falls_back_to_loop(self, monkeypatch, broken):
        sys = dlqr.assemble(spring_oscillator(), builtin("methodB"), 50)
        want = dlqr.riccati_backward(sys)
        monkeypatch.setattr(dlqr, "suffix_scan", broken)
        got = dlqr.riccati_backward(sys)
        np.testing.assert_allclose(got.M, want.M, rtol=1e-12)
        np.testing.assert_allclose(got.L, want.L, rtol=1e-12)

    @pytest.mark.parametrize("sweep", ["value_sweep", "sequential_sweep"])
    @pytest.mark.parametrize("name, step", [("euler", 48), ("methodB", 49)])
    def test_failure_names_same_step_on_both_paths(self, monkeypatch, sweep, name, step):
        # the cross term makes the running cost indefinite; Euler's Kc = hR is
        # still positive definite, so its scan runs and the check after it fails
        prob = LQProblem(A=[[0.0]], B=[[1.0]], Q=[[0.5]], S=[[3.0]], R=[[1.0]], M=[[0.0]],
                         x0=[1.0], tf=40.0)
        monkeypatch.setattr(dlqr, "value_sweep", getattr(dlqr, sweep))
        with pytest.raises(RiccatiFailure, match=f"at step {step}$"):
            dlqr.riccati_backward(dlqr.assemble(prob, builtin(name), 50))


class TestStackedLinearization:
    @given(SEEDS, st.booleans())
    @example(0, True)
    @example(1, False)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_reference(self, seed, linear):
        # linear: a random LQ problem with a cross term, at random stacks (its
        # Jacobians do not depend on the point), under a random explicit
        # tableau or trapezoidal; dlqr.assemble must give the same operators
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 6))
        if linear:
            prob = _random_lq(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              tf=float(rng.uniform(0.5, 1.5)))
            tab = (builtin("trapezoidal") if rng.integers(2)
                   else _random_explicit_tableau(rng, int(rng.integers(1, 4))))
            U, X, x = (rng.standard_normal(shape) for shape in
                       ((N, tab.s * prob.m), (N, tab.s * prob.n), (N + 1, prob.n)))
            state = ilqr.make_state(prob, tab, U, X, x)
        else:
            prob = pendulum()
            tab = _random_explicit_tableau(rng, int(rng.integers(1, 4)))
            state = ilqr.rollout(prob, tab, N, 0.5 * rng.standard_normal((N, tab.s)))
        steps = ilqr.linearize(prob, tab, state)
        ref = _reference_linearize(prob, tab, state)
        scale = 1.0 + np.abs(state.X).max()
        for st_new, want_step in zip(steps, ref):
            for got, want in zip(vars(st_new).values(), want_step):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * scale)
        if linear:
            sysm = dlqr.assemble(prob, tab, N)
            for want_step in ref:
                for got, want in zip((sysm.E, sysm.F, sysm.G, sysm.H), want_step):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_indexing_gives_views_of_the_stacks(self):
        prob = pendulum()
        tab = builtin("methodB")
        state = ilqr.rollout(prob, tab, 5, np.zeros((5, 3)))
        steps = ilqr.linearize(prob, tab, state)
        assert len(steps) == 5 and len(list(steps)) == 5
        assert np.shares_memory(steps[3].G, steps.G) and steps[3].G.shape == (2, 2)
        head = steps[1:3]
        assert isinstance(head, ilqr.Linearization) and len(head) == 2
        np.testing.assert_array_equal(head[0].H, steps[1].H)

    def test_singular_stage_coupling_names_step_and_h(self):
        # implicit Euler on xdot = x^2/2 + u: I - h x_k1 vanishes where the stage state is 1/h
        prob = NonlinearProblem(
            f_fn=lambda x, u: np.array([0.5 * x[0] ** 2 + u[0]]),
            jac_x_fn=lambda x, u: np.array([[x[0]]]),
            jac_u_fn=lambda x, u: np.array([[1.0]]),
            Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[0.0], tf=2.0,
        )
        tab = ButcherTableau(a=[[1.0]], b=[1.0], name="implicit-euler")
        X = np.array([[0.0], [0.0], [2.0], [2.0]])  # h = 0.5: steps 2 and 3 are singular
        state = ilqr.make_state(prob, tab, np.zeros((4, 1)), X, np.zeros(5))
        with pytest.raises(StepTooLarge, match="step 2, h = 0.5") as exc:
            ilqr.linearize(prob, tab, state)
        assert exc.value.h == 0.5


class TestBackwardKernel:
    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, m, N = (int(v) for v in rng.integers(1, [4, 3, 7]))
        tab = _random_explicit_tableau(rng, int(rng.integers(1, 4)))
        prob = _random_lq(rng, n, m, tf=float(rng.uniform(0.5, 3.0)))
        state = ilqr.rollout(prob, tab, N, rng.standard_normal((N, tab.s * m)))
        # nonzero offsets exercise the affine part that linear dynamics leave at 0
        steps = dataclasses.replace(
            ilqr.linearize(prob, tab, state),
            D1=rng.standard_normal((N, tab.s * n)), D2=rng.standard_normal((N, n)),
        )
        bp = ilqr.backward(prob, tab, steps)
        for got, want in zip((bp.M, bp.Y, bp.U1, bp.U2), _reference_backward(prob, tab, steps)):
            want = np.array(want)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * (1 + np.abs(want).max()))

    @given(SEEDS, st.sampled_from(["euler", "methodA", "methodB", "methodC", "trapezoidal"]))
    @settings(max_examples=30, deadline=None)
    def test_dlqr_matches_dense_kkt_solve(self, seed, name):
        rng = np.random.default_rng(seed)
        n, m, N = (int(v) for v in rng.integers(1, [4, 3, 7]))
        prob = _random_lq(rng, n, m, tf=float(rng.uniform(0.5, 1.5)))
        tab = builtin(name)
        _, _, traj = dlqr.solve(prob, tab, N)
        qp = oracle.qp_solve(prob, tab, N)
        scale = 1.0 + np.abs(qp.x).max() + np.abs(qp.U).max()
        np.testing.assert_allclose(traj.U, qp.U, atol=1e-9 * scale)
        np.testing.assert_allclose(traj.x, qp.x, atol=1e-9 * scale)

    @staticmethod
    def _weighted_steps(bad, N=6, n=2):
        """Steps whose stage Hessian is Rh, except where F lifts the stage-2 control.

        With weights (1, 0) or (1.5, -0.5), Rh is singular or indefinite, so
        the steps in ``bad`` (F = 0, H = 0) fail and the others pass.
        """
        F = np.zeros((N, 2 * n, 2))
        F[:, :n, 1] = 10.0
        F[list(bad)] = 0.0
        return ilqr.Linearization(
            E=np.tile(np.eye(n), (N, 2, 1)), F=F, G=np.broadcast_to(np.eye(n), (N, n, n)),
            H=np.zeros((N, n, 2)), D1=np.zeros((N, 2 * n)), D2=np.zeros((N, n)),
        )

    @pytest.mark.parametrize("weights", [(1.5, -0.5), (1.0, 0.0)])
    def test_failure_names_first_bad_step_in_sweep_order(self, weights):
        # (1.5, -0.5) fails only in the Cholesky check after the sweep;
        # (1.0, 0.0) makes K exactly singular, so the solve fails mid-sweep
        prob = LQProblem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=np.eye(2), R=[[1.0]],
                         M=np.eye(2), x0=[0.0, 0.0], tf=6.0)
        tab = ButcherTableau(a=[[0, 0], [1, 0]], b=weights)
        with pytest.raises(BackwardFailure, match="at step 3$"):
            ilqr.backward(prob, tab, self._weighted_steps(bad=(0, 3)))

    def test_riccati_failure_names_step(self):
        bad = ButcherTableau(a=[[0, 0], [1, 0]], b=[1.5, -0.5])
        prob, _ = example31()
        with pytest.raises(RiccatiFailure, match="at step 3$"):
            dlqr.riccati_backward(dlqr.assemble(prob, bad, 4))
