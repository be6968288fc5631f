"""The stacked linearization, the scans and the shared backward kernel of DLQR and ILQR.

The per-step references below are the plain formulas the stacked code
replaces; the batched versions must agree with them to rounding.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from fixtures import (GAUSS2, IMPLICIT_EULER, INDEFINITE, MIDPOINT, NEGATIVE_HEUN, RADAU2A3, random_explicit_tableau,
                      recording, two_springs)

from rklqr import dlqr, ilqr, oracle
from rklqr.errors import BackwardFailure, RolloutDiverged, StepTooLarge
from rklqr.problem import LQProblem, NonlinearProblem, example31, pendulum, spring_oscillator
from rklqr.tableau import ButcherTableau, builtin


def _reference_operators(Jxs, Jus, tab, h):
    """One step's E, F, G, H from the dense stage-coupling blocks of its stage Jacobians (s, n, ·)."""
    s, n, m = len(Jxs), Jxs.shape[1], Jus.shape[2]
    A1 = np.zeros((s * n, s * n))
    A2 = np.zeros((s * n, s * m))
    B = np.zeros((n, s * n))
    C = np.zeros((n, s * m))
    for j, (Jx, Ju) in enumerate(zip(Jxs, Jus)):
        for i in range(s):
            A1[i * n:(i + 1) * n, j * n:(j + 1) * n] = h * tab.a[i, j] * Jx
            A2[i * n:(i + 1) * n, j * m:(j + 1) * m] = h * tab.a[i, j] * Ju
        B[:, j * n:(j + 1) * n] = h * tab.b[j] * Jx
        C[:, j * m:(j + 1) * m] = h * tab.b[j] * Ju
    E = np.linalg.solve(np.eye(s * n) - A1, np.tile(np.eye(n), (s, 1)))
    F = np.linalg.solve(np.eye(s * n) - A1, A2)
    return E, F, np.eye(n) + B @ E, B @ F + C


def _reference_linearize(prob, tab, state):
    """Per-step E, F, G, H from the dense stage-coupling blocks."""
    n, m, s = prob.n, prob.m, tab.s
    out = []
    for k in range(state.N):
        Jxs, Jus = prob.stage_jacobians(state.X[k].reshape(s, n), state.U[k].reshape(s, m))
        out.append(_reference_operators(Jxs, Jus, tab, state.h))
    return out


def _model_about(prob, tab, steps, U, X, xN):
    """``steps`` with the cost's first-order terms about the point (U, X, x_N); of p, the backward reads p_N only."""
    Qh, Rh, Sh = dlqr.stage_cost_blocks(prob, tab.b, prob.tf / len(U))
    w = X @ Qh + U @ Sh.T
    p = np.zeros((len(U) + 1, prob.n))
    p[-1] = prob.M @ xN
    l = U @ Rh + X @ Sh + (w[:, None] @ steps.F)[:, 0]
    return dataclasses.replace(steps, Ew=(w[:, None] @ steps.E)[:, 0], l=l, p=p)


def _reference_backward(prob, tab, steps, U, X, xN):
    """Per-step value recursion of the cost's quadratic model about (U, X, x_N), with Cholesky-solved gains.

    The textbook iLQR step in its Q-function form: at each step the model
    Q(dx, dU) has gradients Qx = E'w + G'v_{k+1} and Qu = r + F'w + H'v_{k+1},
    with w = Qh X_k + Sh U_k and r = Rh U_k + Sh'X_k, and the value gradient
    v_k = Qx + U1'Quu U2 + U1'Qu + Qux'U2 follows from v_N = M x_N.
    """
    N = len(U)
    Qh, Rh, Sh = dlqr.stage_cost_blocks(prob, tab.b, prob.tf / N)
    M = [None] * (N + 1)
    M[N], v = prob.M.copy(), prob.M @ xN
    U1, U2 = [None] * N, [None] * N
    for k in range(N - 1, -1, -1):
        E, F, G, H = (steps.E[k], steps.F[k], steps.G[k], steps.H[k])
        w, r = Qh @ X[k] + Sh @ U[k], Rh @ U[k] + Sh.T @ X[k]
        Quu = F.T @ Qh @ F + Rh + H.T @ M[k + 1] @ H + F.T @ Sh + Sh.T @ F
        Qux = F.T @ Qh @ E + H.T @ M[k + 1] @ G + Sh.T @ E
        Qxx = E.T @ Qh @ E + G.T @ M[k + 1] @ G
        Qx, Qu = E.T @ w + G.T @ v, r + F.T @ w + H.T @ v
        cho = scipy.linalg.cho_factor(0.5 * (Quu + Quu.T))
        U1[k] = -scipy.linalg.cho_solve(cho, Qux)
        U2[k] = -scipy.linalg.cho_solve(cho, Qu)
        v = Qx + U1[k].T @ Quu @ U2[k] + U1[k].T @ Qu + Qux.T @ U2[k]
        Mk = Qxx + U1[k].T @ Quu @ U1[k] + U1[k].T @ Qux + Qux.T @ U1[k]
        M[k] = 0.5 * (Mk + Mk.T)
    return M, U1, U2


def _sweep_args(prob, tab, steps, N):
    """``value_sweep``'s arguments over ``steps``: E, F, G, H step axis last, the stage cost blocks, M_N, N and h."""
    h = prob.tf / N
    return (*(a.transpose(1, 2, 0) for a in (steps.E, steps.F, steps.G, steps.H)),
            *dlqr.stage_cost_blocks(prob, tab.b, h), prob.M, N, h)


def _explicit_tableau(rng, kind):
    """An explicit tableau of the given kind: dense random, random with zeros, or a builtin."""
    if kind == "dense":
        return random_explicit_tableau(rng, int(rng.integers(1, 4)))
    if kind == "sparse":
        return random_explicit_tableau(rng, int(rng.integers(1, 5)), keep=0.6)
    return builtin(kind)


# 3-stage Lobatto IIIA: a zero first row above implicit ones
LOBATTO3A = ButcherTableau(a=[[0, 0, 0], [5 / 24, 1 / 3, -1 / 24], [1 / 6, 2 / 3, 1 / 6]],
                           b=[1 / 6, 2 / 3, 1 / 6], name="lobatto3a")
IMPLICIT_TABLEAUS = {"trapezoidal": builtin("trapezoidal"), "lobatto3a": LOBATTO3A, "gauss2": GAUSS2,
                     "radau2a3": RADAU2A3}


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


def _reference_rollout(prob, tab, N, U):
    """Stage and node states by a per-step stage solve: substitution or fixed point."""
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    a = tab.a
    x = np.zeros((N + 1, n))
    X = np.zeros((N, s * n))
    x[0] = prob.x0
    for k in range(N):
        xk, us = x[k], U[k].reshape(s, m)
        xs = np.empty((s, n))
        if tab.is_explicit:
            fs = np.empty((s, n))
            for i in range(s):
                xi = xk.copy()
                for j in range(i):
                    if a[i, j] != 0.0:
                        xi = xi + (h * a[i, j]) * fs[j]
                xs[i] = xi
                fs[i] = prob.f(xi[None], us[i:i + 1])[0]
        else:
            xs[:] = xk
            scale = 1.0 + np.abs(xk).max(initial=0.0)
            for _ in range(100):
                fs = prob.f(xs, us)
                new = xk[None, :] + h * (a @ fs)
                delta = np.abs(new - xs).max()
                xs = new
                if delta <= 1e-13 * scale:
                    fs = prob.f(xs, us)
                    break
            else:
                raise AssertionError("reference stage fixed point did not contract")
        X[k] = xs.ravel()
        x[k + 1] = x[k] + h * (tab.b @ fs)
    return X, x


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
EXPLICIT_KINDS = ["dense", "sparse", "euler", "methodA", "methodB", "methodC"]
BUILTINS = ["euler", "methodA", "methodB", "methodC", "trapezoidal"]


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

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("L, n", [(1, 1), (1, 6), (5000, 1), (5000, 2), (5000, 6)])
    def test_affine_scan_matches_loop_relative_to_scale(self, L, n, reverse):
        # rotations grown by 2e-4 a step: the iterates grow and their
        # rounding does not decay, so the slack follows the largest one
        rng = np.random.default_rng(10 * L + n)
        A = 1.0002 * np.linalg.qr(rng.standard_normal((L, n, n)))[0]
        c, v = rng.standard_normal((L, n)), rng.standard_normal(n)
        want = _reference_affine(A, c, v, reverse)
        got = dlqr.affine_scan(A, c, v, reverse=reverse)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "c", "v"])
    def test_non_finite_input_comes_out_non_finite(self, where, bad, reverse):
        # rollout turns a non-finite iterate into RolloutDiverged, so the
        # scan must pass it through without raising or warning
        rng = np.random.default_rng(5)
        args = {"A": rng.uniform(-0.5, 0.5, (9, 3, 3)), "c": rng.standard_normal((9, 3)),
                "v": rng.standard_normal(3)}
        args[where].flat[args[where].size // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dlqr.affine_scan(args["A"], args["c"], args["v"], reverse=reverse)
        assert got.shape == (10, 3) and not np.isfinite(got).all()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_affine_scan_leaves_its_inputs_alone(self, reverse):
        rng = np.random.default_rng(6)
        A, c, v = rng.standard_normal((40, 2, 2)), rng.standard_normal((40, 2)), rng.standard_normal(2)
        kept = [a.copy() for a in (A, c, v)]
        for a in (A, c, v):
            a.setflags(write=False)
        dlqr.affine_scan(A, c, v, reverse=reverse)
        for a, k in zip((A, c, v), kept):
            np.testing.assert_array_equal(a, k)

    @pytest.mark.parametrize("method, N", [("methodB", 2000), ("trapezoidal", 400)])
    def test_solve_matches_per_step_recursions(self, monkeypatch, method, N):
        # a rollout sweeps until every step has settled, so the scan's
        # rounding could change how many sweeps run; with every affine
        # recursion a per-step loop instead, the solve must take the same
        # iterations, step lengths and number of batched f calls (a step
        # at the settling threshold may settle one sweep apart, so the
        # batch sizes need not match).  The solve starts cold: from a coarse
        # start its one fine step would carry ROLLOUT_TOL-level settling
        # differences of the coarse solves into x.
        def run():
            prob, calls = recording(pendulum())
            state, log, _ = ilqr.solve(prob, builtin(method), N)
            return state, [r.alpha for r in log], calls

        state, alphas, calls = run()
        monkeypatch.setattr(ilqr, "affine_scan", lambda A, c, v, reverse=False: _reference_affine(A, c, v, reverse))
        ref, ref_alphas, ref_calls = run()
        assert (alphas, len(calls)) == (ref_alphas, len(ref_calls))
        for got, want in ((state.x, ref.x), (state.U, ref.U)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _symmetric(rng, eigs):
    """Symmetric matrices (B, d, d) with the eigenvalues ``eigs`` (B, d) in random orthogonal bases."""
    Q = np.linalg.qr(rng.standard_normal(eigs.shape + eigs.shape[-1:]))[0]
    return (Q * eigs[:, None, :]) @ np.swapaxes(Q, 1, 2)


def _cholesky_fails(K) -> bool:
    """Whether np.linalg.cholesky raises on K or leaves a non-finite entry: it passes NaN through."""
    try:
        return not np.isfinite(np.linalg.cholesky(K)).all()
    except np.linalg.LinAlgError:
        return True


class TestCholesky:
    @given(SEEDS, st.integers(1, 6), st.integers(1, 4), st.integers(1, 40))
    @example(0, 4, 3, 1)
    @settings(max_examples=60, deadline=None)
    def test_solve_matches_numpy_on_spd(self, seed, d, r, B):
        # eigenvalues in [0.1, 10]: condition numbers up to 100; the factor
        # and the right-hand side hold the same batch B
        rng = np.random.default_rng(seed)
        K = _symmetric(rng, rng.uniform(0.1, 10.0, (B, d)))
        rhs = rng.standard_normal((B, d, r))
        L, bad = dlqr.cholesky(K.transpose(1, 2, 0))  # both kernels take the batch axis last
        Y = rhs.transpose(1, 2, 0).copy()
        got = dlqr._substitute(L, Y)
        assert got is Y  # solved in place
        got = got.transpose(2, 0, 1)
        assert L.shape == (d, d, len(K)) and not bad.any()
        np.testing.assert_allclose(np.moveaxis(L, -1, 0), np.linalg.cholesky(K), rtol=1e-12, atol=1e-14)
        want = np.linalg.solve(K, rhs)
        assert got.shape == (B, d, r)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())
        assert not np.shares_memory(got, rhs)

    @given(SEEDS, st.integers(1, 6), st.integers(1, 30))
    @example(0, 1, 1)
    @example(1, 4, 1)
    @settings(max_examples=60, deadline=None)
    def test_flags_exactly_where_numpy_cholesky_fails(self, seed, d, B):
        # each matrix is positive definite, indefinite (eigenvalues kept 0.1
        # away from zero, so rounding cannot decide) or has one NaN; numpy
        # reads the lower triangle, so a NaN above the diagonal is no failure
        rng = np.random.default_rng(seed)
        eigs = rng.uniform(0.1, 10.0, (B, d))
        kind = rng.integers(0, 4, B)  # 0 definite, 1 indefinite, 2 NaN below or on the diagonal, 3 NaN above
        flip = rng.random((B, d)) < 0.5
        flip[np.arange(B), rng.integers(0, d, B)] = True
        eigs[(kind == 1)[:, None] & flip] *= -1
        K = _symmetric(rng, eigs)
        for b in np.flatnonzero(kind >= 2):
            i, j = sorted(rng.integers(0, d, 2))  # i <= j: (j, i) is on or below the diagonal
            K[b][(j, i) if kind[b] == 2 or i == j else (i, j)] = np.nan
        want = [_cholesky_fails(Kb) for Kb in K]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bad = dlqr.cholesky(K.transpose(1, 2, 0))
        assert bad.tolist() == want


def _solve_fails(A) -> bool:
    """Whether np.linalg.solve raises on A alone."""
    try:
        np.linalg.solve(A, np.ones(len(A)))
    except np.linalg.LinAlgError:
        return True
    return False


class TestLuSolve:
    @given(SEEDS, st.integers(1, 6), st.integers(1, 4), st.integers(1, 30), st.none())
    # nonsingular, but elimination without row swaps meets a zero pivot; it is
    # I + C J for C = vv', v = (1, 2), J = ww', w = (1, -1), a Riccati combine
    @example(0, 2, 1, 1, [[0.0, 1.0], [-2.0, 3.0]])
    @example(1, 2, 3, 5, [[0.0, 1.0], [-2.0, 3.0]])
    @example(2, 1, 1, 1, None)
    @example(3, 6, 4, 1, None)
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_and_flags_where_it_raises(self, seed, d, r, B, pinned):
        # each step's matrix is well conditioned (singular values in [0.1, 10]
        # between random orthogonal factors), or has a zero row or a zero
        # column, which no rounding can make nonsingular; ``pinned``, when
        # given, is the matrix at step 0
        rng = np.random.default_rng(seed)
        orth = [np.linalg.qr(rng.standard_normal((B, d, d)))[0] for _ in range(2)]
        A = (orth[0] * rng.uniform(0.1, 10.0, (B, 1, d))) @ orth[1]
        kind = rng.integers(0, 3, B)  # 0 well conditioned, 1 zero row, 2 zero column
        where = rng.integers(0, d, B)
        A[kind == 1, where[kind == 1]] = 0.0
        A[kind == 2, :, where[kind == 2]] = 0.0
        if pinned is not None:
            A[0], kind[0] = pinned, 0
        R = rng.standard_normal((B, d, r))
        At, Rt = np.ascontiguousarray(A.transpose(1, 2, 0)), np.ascontiguousarray(R.transpose(1, 2, 0))
        kept = At.copy(), Rt.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, bad = dlqr.lu_solve(At, Rt)
        assert X.shape == (d, r, B)
        assert bad.tolist() == [_solve_fails(Ab) for Ab in A] == (kind > 0).tolist()
        ok = ~bad
        want = np.linalg.solve(A[ok], R[ok])
        np.testing.assert_allclose(np.moveaxis(X[..., ok], -1, 0), want, rtol=1e-12,
                                   atol=1e-13 * np.abs(want).max(initial=0.0))
        # the solve reads its inputs and writes its own array
        np.testing.assert_array_equal(At, kept[0])
        np.testing.assert_array_equal(Rt, kept[1])
        assert not np.shares_memory(X, At) and not np.shares_memory(X, Rt)


class TestCombineSolve:
    @staticmethod
    def _routed(A, R):
        """``_combine_solve``'s answer and whether it went through ``lu_solve``."""
        calls = []

        def counted(*args, solve=dlqr.lu_solve):
            calls.append(args)
            return solve(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dlqr, "lu_solve", counted)
            X = dlqr._combine_solve(A, R)
        return X, bool(calls)

    @given(SEEDS, st.integers(1, 6), st.integers(-2, 1), st.sampled_from(["none", "A", "R"]), st.booleans())
    @example(0, 2, 0, "A", True)
    @example(1, 6, 0, "A", False)
    @example(2, 1, -1, "R", True)
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_on_both_sides_of_the_rule(self, seed, d, offset, single, full):
        # B is 2^(d+5) + offset, where the rule switches; ``single`` names the
        # side with a batch of 1, and a full combine has 2d right-hand sides
        rng = np.random.default_rng(seed)
        B = (32 << d) + offset
        orth = [np.linalg.qr(rng.standard_normal((1 if single == "A" else B, d, d)))[0] for _ in range(2)]
        A = (orth[0] * rng.uniform(0.1, 10.0, (len(orth[0]), 1, d))) @ orth[1]
        R = rng.standard_normal((1 if single == "R" else B, d, 2 * d if full else d))
        X, routed = self._routed(A, R)
        assert routed == (offset >= 0)
        want = np.linalg.solve(A, R)
        assert X.shape == want.shape == (B, d, R.shape[-1])
        np.testing.assert_allclose(X, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())

    def test_singular_member_above_the_rule_raises_and_the_loop_solves(self, monkeypatch):
        d, B = 2, 256
        A = np.broadcast_to(np.eye(d) + 1.0, (B, d, d)).copy()
        A[B // 2, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            dlqr._combine_solve(A, np.ones((1, d, d)))
        # the same flag inside the scan: the largest half-combine at spring
        # methodC N = 4000 meets a zero row, and value_sweep falls back
        prob, tab, N = spring_oscillator(), builtin("methodC"), 4000
        args = _sweep_args(prob, tab, dlqr.assemble(prob, tab, N), N)
        want = dlqr.sequential_sweep(*args)
        raised = []

        def singular(A, R, solve=dlqr._combine_solve):
            if max(len(A), len(R)) == N // 2:
                A = A.copy()
                A[N // 4, 0] = 0.0
            try:
                return solve(A, R)
            except np.linalg.LinAlgError:
                raised.append(len(A))
                raise

        monkeypatch.setattr(dlqr, "_combine_solve", singular)
        got = dlqr.value_sweep(*args)
        assert raised == [N // 2]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_four_states_through_the_elimination_match_the_loop(self, monkeypatch):
        # d = 4 at N = 8000: the half-combines of 4,000, 2,000 and 1,000 systems go batch-last
        prob, tab, N = two_springs(), builtin("methodC"), 8000
        steps = dlqr.assemble(prob, tab, N)
        batches = []

        def counted(A, R, solve=dlqr.lu_solve):
            batches.append(A.shape[-1])
            return solve(A, R)

        monkeypatch.setattr(dlqr, "lu_solve", counted)
        scan = dlqr.riccati_backward(prob, tab, steps)
        assert batches == [1000, 2000, 4000]
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = dlqr.riccati_backward(prob, tab, steps)
        for got, want in ((scan.M, loop.M), (scan.U1, loop.U1)):
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestRiccatiScan:
    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @staticmethod
    def _model(kind, N):
        """(prob, tab, steps): methodB's DLQR step of the spring, or the pendulum's tangent plane at U = -0.5."""
        prob, tab = spring_oscillator() if kind == "dlqr" else pendulum(), builtin("methodB")
        if kind == "dlqr":
            return prob, tab, dlqr.assemble(prob, tab, N)
        return prob, tab, ilqr.linearize(prob, tab, ilqr.rollout(prob, tab, N, np.full((N, 3), -0.5)))

    def test_dlqr_matches_sequential_sweep(self, monkeypatch):
        prob, tab = spring_oscillator(), builtin("methodC")
        steps = dlqr.assemble(prob, tab, 4000)
        scan = dlqr.riccati_backward(prob, tab, steps)
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = dlqr.riccati_backward(prob, tab, steps)
        assert self._rel(scan.M, loop.M) < 1e-12 and self._rel(scan.U1, loop.U1) < 1e-12

    def test_ilqr_matches_sequential_sweep(self, monkeypatch):
        prob, tab, steps = self._model("ilqr", 2000)
        scan = ilqr.backward(prob, tab, steps)
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = ilqr.backward(prob, tab, steps)
        for got, want in zip(vars(scan).values(), vars(loop).values()):
            assert self._rel(got, want) < 1e-12

    @pytest.mark.parametrize("kind", ["dlqr", "ilqr"])
    def test_four_states_with_a_cross_term_match_the_loop(self, monkeypatch, kind):
        # CI's n = 4 springs with S != 0, beyond the Hypothesis draws' n <= 3:
        # DLQR's K = 1 step about the zero point, and a K = N tangent plane
        # about a random iterate, whose terms drive the feedforward
        prob, tab, N = two_springs(S=[[0.5], [0.0], [0.2], [0.0]]), builtin("methodC"), 4000
        if kind == "dlqr":
            steps = dlqr.assemble(prob, tab, N)
        else:
            state = ilqr.rollout(prob, tab, N, np.random.default_rng(4).standard_normal((N, tab.s * prob.m)))
            steps = ilqr.linearize(prob, tab, state)

        def close(got, want):  # within 1e-12 of want's largest entry; DLQR's U2 is exactly zero on both paths
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        args = _sweep_args(prob, tab, steps, N)
        assert all(map(close, dlqr.value_sweep(*args), dlqr.sequential_sweep(*args)))
        scan = dlqr.riccati_backward(prob, tab, steps)
        # the backward reads step_operators' views step axis last; contiguous
        # copies of the operators and terms must give the same bytes
        copies = dlqr.Linearization(*(np.ascontiguousarray(a) for a in vars(steps).values()))
        for got, want in zip(vars(scan).values(), vars(dlqr.riccati_backward(prob, tab, copies)).values()):
            np.testing.assert_array_equal(got, want)
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = dlqr.riccati_backward(prob, tab, steps)
        assert all(map(close, vars(scan).values(), vars(loop).values()))

    @pytest.mark.parametrize("broken", ["raises", "not_finite"])
    @pytest.mark.parametrize("kind", ["dlqr", "ilqr"])
    def test_scan_breakdown_falls_back_to_loop(self, monkeypatch, kind, broken):
        # DLQR's step-invariant step is one shared element, ILQR's K = N tangent plane N of them
        N = 50
        prob, tab, steps = self._model(kind, N)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
            want = dlqr.riccati_backward(prob, tab, steps)
        lengths = []

        def breakdown(elems, M):
            lengths.append({len(e) for e in elems})
            if broken == "raises":
                raise np.linalg.LinAlgError("singular combine")
            M[:-1] = np.nan

        monkeypatch.setattr(dlqr, "riccati_scan", breakdown)
        got = dlqr.riccati_backward(prob, tab, steps)
        assert lengths == [{1 if kind == "dlqr" else N}]
        np.testing.assert_allclose(got.M, want.M, rtol=1e-12)
        np.testing.assert_allclose(got.U1, want.U1, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["dlqr", "ilqr"])
    def test_stage_hessians_are_factored_once(self, monkeypatch, kind):
        # Kc and K once each, by the batch-last factor; the gains and U2 go
        # through K's factor, so every LAPACK solve left is the scan's n x n one
        N = 50
        prob, tab, steps = self._model(kind, N)
        factored, solved = [], []

        def factor(K, cholesky=dlqr.cholesky):
            factored.append(K.shape)
            return cholesky(K)

        def solve(a, b, lapack=np.linalg.solve):
            solved.append(a.shape[-1])
            return lapack(a, b)

        monkeypatch.setattr(dlqr, "cholesky", factor)
        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        dlqr.riccati_backward(prob, tab, steps)
        sm = tab.s * prob.m
        assert factored == [(sm, sm, 1 if kind == "dlqr" else N), (sm, sm, N)]
        assert solved and set(solved) == {prob.n}

    def test_indefinite_stage_hessian_is_solved_by_the_loop(self, monkeypatch):
        # Q - S R^{-1} S' < 0 makes Kc indefinite, so the scan cannot run,
        # while every K the loop meets is positive definite
        prob, tab, N = INDEFINITE, builtin("methodA"), 5
        steps = dlqr.assemble(prob, tab, N)
        E, F = (a.transpose(1, 2, 0) for a in (steps.E, steps.F))
        Kc = dlqr._stage_products(E, F, *dlqr.stage_cost_blocks(prob, tab.b, prob.tf / N))[0]
        assert np.linalg.eigvalsh(Kc[..., 0]).min() < 0
        loops = []

        def loop(*args, sweep=dlqr.sequential_sweep):
            loops.append(args)
            return sweep(*args)

        monkeypatch.setattr(dlqr, "sequential_sweep", loop)
        _, _, traj = dlqr.solve(prob, tab, N)
        assert len(loops) == 1
        qp = oracle.qp_solve(prob, tab, N)
        scale = 1.0 + np.abs(qp.x).max() + np.abs(qp.U).max()
        np.testing.assert_allclose(traj.U, qp.U, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(traj.x, qp.x, rtol=0, atol=1e-12 * scale)

    @staticmethod
    def _combine_batches(monkeypatch):
        """Batch sizes of the scan's full and half combines, recorded as it makes them."""
        batches = {"_riccati_combine": [], "_half_combine": []}
        for name, sizes in batches.items():
            def counted(elem, later, combine=getattr(dlqr, name), sizes=sizes):
                out = combine(elem, later)
                sizes.append(len(out[2] if isinstance(out, tuple) else out))
                return out

            monkeypatch.setattr(dlqr, name, counted)
        return batches.values()

    def test_doubling_combines_one_element(self, monkeypatch):
        # broadcasting the shared step to N would give the same M at several times the work
        full, half = self._combine_batches(monkeypatch)
        dlqr.solve(spring_oscillator(), builtin("methodC"), 4000)
        assert full == [1] * 11 and sum(half) == 4000

    def test_zero_point_forms_no_feedforward(self, monkeypatch):
        # about DLQR's zero trajectory the model's terms Ew, l and p_N, hence
        # v and U2, are exact zeros: no reverse scan and no U2 solve, only
        # the gains' solve and the closed loop's forward scan
        calls = []
        for name in ("affine_scan", "_refined_solve"):
            def counted(*args, fn=getattr(dlqr, name), name=name, **kw):
                calls.append((name, kw.get("reverse", False)))
                return fn(*args, **kw)

            monkeypatch.setattr(dlqr, name, counted)
        _, bp, _ = dlqr.solve(spring_oscillator(), builtin("methodC"), 4000)
        assert calls == [("_refined_solve", False), ("affine_scan", False)]
        assert not bp.U2.any()

    def test_each_m_is_formed_once(self, monkeypatch):
        # one half-combine per M_k; the pairs of the odd-even reduction make fewer than N full ones
        N = 2000
        prob, tab, steps = self._model("ilqr", N)
        full, half = self._combine_batches(monkeypatch)
        ilqr.backward(prob, tab, steps)
        assert sum(full) < N and sum(half) == N

    def test_odd_levels_pair_toward_the_terminal(self, monkeypatch):
        # N = 63 is odd at every level (63, 31, 15, 7, 3, 1): the pairs
        # (o + 2i, o + 2i + 1), o = N mod 2, end in M_N, so one half-combine
        # a level fills every other M, M_0 included
        N = 63
        args = self._model("ilqr", N)
        with pytest.MonkeyPatch.context() as patch:
            full, half = self._combine_batches(patch)
            scan = ilqr.backward(*args)
        assert half == [1, 2, 4, 8, 16, 32] and full == [31, 15, 7, 3, 1]
        monkeypatch.setattr(dlqr, "value_sweep", dlqr.sequential_sweep)
        loop = ilqr.backward(*args)
        for got, want in zip(vars(scan).values(), vars(loop).values()):
            assert self._rel(got, want) < 1e-12

    @pytest.mark.parametrize("sweep", ["value_sweep", "sequential_sweep"])
    @pytest.mark.parametrize("name, step", [("euler", 48), ("methodB", 49)])
    def test_failure_names_same_step_on_both_paths(self, monkeypatch, sweep, name, step):
        # the cross term makes the running cost indefinite; Euler's Kc = hR is
        # still positive definite, so its scan runs and the check after it fails
        prob = LQProblem(A=[[0.0]], B=[[1.0]], Q=[[0.5]], S=[[3.0]], R=[[1.0]], M=[[0.0]],
                         x0=[1.0], tf=40.0)
        monkeypatch.setattr(dlqr, "value_sweep", getattr(dlqr, sweep))
        with pytest.raises(BackwardFailure, match=rf"at step {step}, h = 0\.8$") as exc:
            dlqr.solve(prob, builtin(name), 50)
        assert (exc.value.step, exc.value.h) == (step, 0.8)


def _check_builder_at_real_size(rng, tab, K, n, m):
    """step_operators on K steps of random stage Jacobians against the per-step dense formula.

    The builder runs with the step axis last; at the sizes of the solves it
    must agree with the dense formula (checked at every 37th step and the
    last), and with shared inputs give the unshared operators with F and H
    summed over the stages' column blocks.
    """
    s, h = tab.s, 0.1
    # the same draws as a (K, n, s, ·) stack, passed as stage_jacobians' (K·s, n, ·)
    Jx, Ju = (rng.standard_normal((K, n, s, c)).transpose(0, 2, 1, 3).reshape(K * s, n, c) for c in (n, m))
    ops = dlqr.step_operators(Jx, Ju, tab, h)
    ks = np.unique(np.r_[0:K:37, K - 1])
    ref = [_reference_operators(Jx[k * s:(k + 1) * s], Ju[k * s:(k + 1) * s], tab, h) for k in ks]
    for got, want in zip(ops, map(np.array, zip(*ref))):
        np.testing.assert_allclose(got[ks], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    E, F, G, H = ops
    F, H = (M.reshape(K, -1, s, m).sum(axis=2) for M in (F, H))
    for got, want in zip(dlqr.step_operators(Jx, Ju, tab, h, shared=True), (E, F, G, H)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


class TestStackedLinearization:
    @given(SEEDS, st.booleans(), st.sampled_from(EXPLICIT_KINDS))
    @example(0, True, "dense")
    @example(1, False, "dense")
    @example(2, True, "sparse")
    @example(3, False, "methodC")
    @settings(max_examples=60, deadline=None)
    def test_matches_per_step_reference(self, seed, linear, kind):
        # linear: a random LQ problem with a cross term, at random stacks (its
        # Jacobians do not depend on the point), under an explicit tableau of
        # the drawn kind or trapezoidal; dlqr.assemble must give the same
        # operators.  Explicit tableaus take step_operators' forward
        # substitution, trapezoidal its lu_solve.
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 6))
        if linear:
            prob = _random_lq(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              tf=float(rng.uniform(0.5, 1.5)))
            tab = builtin("trapezoidal") if rng.integers(2) else _explicit_tableau(rng, kind)
            U, X, x = (rng.standard_normal(shape) for shape in
                       ((N, tab.s * prob.m), (N, tab.s * prob.n), (N + 1, prob.n)))
            state = ilqr.IterateState(U=U, X=X, x=x, Jd=0.0, h=prob.tf / N)
        else:
            prob = pendulum()
            tab = _explicit_tableau(rng, kind)
            state = ilqr.rollout(prob, tab, N, 0.5 * rng.standard_normal((N, tab.s)))
        steps = ilqr.linearize(prob, tab, state)
        ref = _reference_linearize(prob, tab, state)
        scale = 1.0 + np.abs(state.X).max()
        for k, want_step in enumerate(ref):
            for got, want in zip(vars(steps).values(), want_step):
                np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-13 * scale)
        if linear:
            lq = dlqr.assemble(prob, tab, N)
            for want_step in ref:
                for got, want in zip((lq.E, lq.F, lq.G, lq.H), want_step):
                    np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("K", [1, 2000])
    @pytest.mark.parametrize("n, m", [(2, 1), (6, 3)])
    @pytest.mark.parametrize("kind", EXPLICIT_KINDS + ["midpoint"])
    def test_explicit_builder_at_real_sizes(self, K, n, m, kind):
        # the midpoint rule has b_1 = 0, so stage 1 reaches [G | H] only
        # through stage 2
        rng = np.random.default_rng([K, n, m])
        tab = MIDPOINT if kind == "midpoint" else _explicit_tableau(rng, kind)
        _check_builder_at_real_size(rng, tab, K, n, m)

    @pytest.mark.parametrize("K", [1, 2000])
    @pytest.mark.parametrize("n, m", [(2, 1), (6, 3)])
    @pytest.mark.parametrize("kind", list(IMPLICIT_TABLEAUS))
    def test_implicit_builder_at_real_sizes(self, K, n, m, kind):
        # trapezoidal and Lobatto IIIA solve the coupling of the stages after
        # a zero first row (2n and 4n unknowns), Gauss-Legendre 2 and Radau
        # IIA 3 that of all of theirs (2n and 3n)
        _check_builder_at_real_size(np.random.default_rng([K, n, m]), IMPLICIT_TABLEAUS[kind], K, n, m)

    def test_holds_one_product_term_at_a_time(self):
        # methodC at K = 8000 steps is the order study's reference rung for
        # the pendulum.  Beyond its inputs step_operators holds the returned
        # [E | F] and [G | H] buffer, the step-last copies of Jx and Ju and
        # one (n, width, K) product term, which is scaled in place before it
        # is added; a term and its scaled copy at once would be 0.64 MB more
        prob, tab, K = pendulum(), builtin("methodC"), 8000
        n, m, s = prob.n, prob.m, tab.s
        rng = np.random.default_rng(8)
        Jx, Ju = prob.stage_jacobians(rng.uniform(-1.0, 1.0, (K * s, n)), rng.uniform(-1.0, 1.0, (K * s, m)))
        width = n + s * m
        floats = (s + 1) * n * width * K + Jx.size + Ju.size + n * width * K
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ops = dlqr.step_operators(Jx, Ju, tab, prob.tf / K)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert ops[0].shape == (K, s * n, n)
        assert peak <= 8 * floats + 100_000

    def test_zero_row_stage_is_exact_where_the_implicit_solve_pivots(self):
        # trapezoidal at the pendulum's x0 with h = 4: |h/2 Jx| > 1, so a
        # solve over both stages would pivot and leave rounding in stage 1
        prob, tab = pendulum(), builtin("trapezoidal")
        n = prob.n
        Jx, Ju = prob.stage_jacobians(np.tile(prob.x0, (2, 1)), np.zeros((2, prob.m)))
        E, F, _, _ = dlqr.step_operators(Jx, Ju, tab, 4.0)
        np.testing.assert_array_equal(E[0, :n], np.eye(n))
        np.testing.assert_array_equal(F[0, :n], 0.0)

    def test_singular_stage_coupling_names_step_and_h(self):
        # implicit Euler on xdot = x^2/2 + u: I - h x_k1 vanishes where the stage state is 1/h
        prob = NonlinearProblem(
            f_fn=lambda X, U: 0.5 * X**2 + U,
            jac_x_fn=lambda X, U: X[:, :, None],
            jac_u_fn=lambda X, U: np.ones((len(X), 1, 1)),
            Q=[[1.0]], R=[[1.0]], M=[[0.0]], x0=[0.0], tf=2.0,
        )
        tab = IMPLICIT_EULER
        X = np.array([[0.0], [0.0], [2.0], [2.0]])  # h = 0.5: steps 2 and 3 are singular
        state = ilqr.IterateState(U=np.zeros((4, 1)), X=X, x=np.zeros((5, 1)), Jd=0.0, h=0.5)
        with pytest.raises(StepTooLarge, match="step 2, h = 0.5") as exc:
            ilqr.linearize(prob, tab, state)
        assert exc.value.h == 0.5


class TestLeanRollout:
    @given(SEEDS, st.booleans(), st.sampled_from(["random", "methodC", "trapezoidal", "lobatto3a"]))
    @example(0, False, "random")
    @example(1, True, "methodC")
    @example(2, False, "trapezoidal")
    @example(3, True, "lobatto3a")
    @settings(max_examples=60, deadline=None)
    def test_matches_per_step_reference_exactly(self, seed, linear, kind):
        # Newton over all steps against the per-step stage solve: the same
        # states up to rounding, so the slack is 1e-12 of the largest state
        rng = np.random.default_rng(seed)
        if kind == "random":
            tab = random_explicit_tableau(rng, int(rng.integers(1, 5)), keep=0.6)
        elif kind == "lobatto3a":
            tab = LOBATTO3A
        else:
            tab = builtin(kind)
        if linear:
            prob = _random_lq(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              tf=float(rng.uniform(0.5, 1.5)))
        else:
            prob = pendulum()
        N = int(rng.integers(4, 30))
        U = rng.standard_normal((N, tab.s * prob.m))
        state = ilqr.rollout(prob, tab, N, U)
        X, x = _reference_rollout(prob, tab, N, U)
        slack = 1e-12 * (1.0 + np.abs(x).max())
        np.testing.assert_allclose(state.X, X, rtol=0, atol=slack)
        np.testing.assert_allclose(state.x, x, rtol=0, atol=slack)
        assert state.Jd == pytest.approx(dlqr.discrete_cost(prob, tab, U, X, x), rel=1e-10)

    @pytest.mark.parametrize("name", ["euler", "methodA", "methodB", "methodC", "trapezoidal"])
    def test_sweeps_on_the_unsettled_steps_match_per_step_reference(self, name):
        # each sweep runs on the steps after the settled prefix only, so the
        # batches passed to f shrink, and the states still match the reference
        base = pendulum()
        prob, calls = recording(base)
        tab, N = builtin(name), 60
        U = np.random.default_rng(7).standard_normal((N, tab.s))
        state = ilqr.rollout(prob, tab, N, U)
        X, x = _reference_rollout(base, tab, N, U)
        slack = 1e-12 * (1.0 + np.abs(x).max())
        np.testing.assert_allclose(state.X, X, rtol=0, atol=slack)
        np.testing.assert_allclose(state.x, x, rtol=0, atol=slack)
        assert calls[0] == N * tab.s and calls[-1] < N * tab.s
        assert calls == sorted(calls, reverse=True)

    def test_diverging_tail_cannot_freeze_an_unsettled_prefix(self):
        # explicit Euler on xdot = x^2 + u from x0 = 1, started 0.1 off the
        # solution on the first half and at 100 on the second: the first
        # sweeps send the tail to 5e8, 6e32 and 9e81.  Judged against
        # 1 + max |X| over the whole trajectory, the prefix would count as
        # settled while still off the solution and be frozen there; judged
        # against the states up to each step, it keeps its sweeps and the
        # rollout comes out exact
        prob = NonlinearProblem(
            f_fn=lambda X, U: X**2 + U,
            jac_x_fn=lambda X, U: 2.0 * X[:, :, None],
            jac_u_fn=lambda X, U: np.ones((len(X), 1, 1)),
            Q=[[1.0]], R=[[1.0]], M=[[1.0]], x0=[1.0], tf=0.5,
        )
        tab, N = builtin("euler"), 20
        U = np.zeros((N, 1))
        X, x = _reference_rollout(prob, tab, N, U)
        start = X + 0.1
        start[N // 2:] = 100.0
        state = ilqr.rollout(prob, tab, N, U, start)
        slack = 1e-12 * (1.0 + np.abs(x).max())
        np.testing.assert_allclose(state.X, X, rtol=0, atol=slack)
        np.testing.assert_allclose(state.x, x, rtol=0, atol=slack)


class TestHagerEquivalence:
    @given(SEEDS, st.booleans())
    @example(0, True)
    @example(1, False)
    @settings(max_examples=60, deadline=None)
    def test_adjoint_scan_matches_sprk_costates(self, seed, linear):
        # Hager: the discrete adjoint of the direct approach is the costate system
        # of the symplectic partner; it holds at any iterate, not just the optimum
        rng = np.random.default_rng(seed)
        tab = (builtin("trapezoidal") if rng.integers(2)
               else random_explicit_tableau(rng, int(rng.integers(1, 5))))
        if linear:
            N = int(rng.integers(1, 7))
            prob = _random_lq(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                              tf=float(rng.uniform(0.5, 1.5)))
        else:
            N = int(rng.integers(4, 13))
            prob = pendulum()
        state = ilqr.rollout(prob, tab, N, rng.standard_normal((N, tab.s * prob.m)))
        want = oracle.adjoint_costates(prob, tab, state).p
        # with and without the linearization the solver builds for the gradient
        for steps in (None, ilqr.linearize(prob, tab, state)):
            got = ilqr.costates(prob, tab, state, steps)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestBackwardKernel:
    @given(SEEDS, st.sampled_from(["random", "trapezoidal", "lobatto3a"]),
           st.sampled_from(["value_sweep", "sequential_sweep"]))
    @example(0, "random", "value_sweep")
    @example(1, "trapezoidal", "value_sweep")
    @example(2, "lobatto3a", "sequential_sweep")
    @settings(max_examples=40, deadline=None)
    def test_matches_per_step_reference(self, seed, kind, sweep):
        # U2 comes from the stage Hessians K that either kernel path returns
        rng = np.random.default_rng(seed)
        n, m, N = (int(v) for v in rng.integers(1, [4, 3, 7]))
        if kind == "random":
            tab = random_explicit_tableau(rng, int(rng.integers(1, 4)))
        elif kind == "lobatto3a":
            tab = LOBATTO3A
        else:
            tab = builtin(kind)
        prob = _random_lq(rng, n, m, tf=float(rng.uniform(0.5, 3.0)))
        state = ilqr.rollout(prob, tab, N, rng.standard_normal((N, tab.s * m)))
        steps = ilqr.linearize(prob, tab, state)
        # the terms of a random expansion point off the iterate drive the feedforward
        point = (rng.standard_normal((N, tab.s * m)), rng.standard_normal((N, tab.s * n)), rng.standard_normal(n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dlqr, "value_sweep", getattr(dlqr, sweep))
            bp = ilqr.backward(prob, tab, _model_about(prob, tab, steps, *point))
        M, U1, U2 = _reference_backward(prob, tab, steps, *point)
        A = steps.G + steps.H @ np.array(U1)
        for got, want in zip((bp.M, bp.U1, bp.U2, bp.A), (M, U1, U2, A)):
            want = np.array(want)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * (1 + np.abs(want).max()))

    @given(SEEDS, st.sampled_from(["random", "trapezoidal", "lobatto3a"]), st.integers(2, 6))
    @example(0, "random", 2)
    @example(1, "trapezoidal", 6)
    @example(2, "lobatto3a", 3)
    @settings(max_examples=40, deadline=None)
    def test_direction_is_quasi_newton_step(self, seed, kind, N):
        # criterion 7's identity dU = -W^{-1} J_d'(U), at its 1e-8, beyond the builtin tableaus
        rng = np.random.default_rng(seed)
        if kind == "random":
            tab = random_explicit_tableau(rng, int(rng.integers(1, 4)))
        else:
            tab = LOBATTO3A if kind == "lobatto3a" else builtin(kind)
        prob = pendulum()
        U = rng.standard_normal((N, tab.s * prob.m))
        try:
            state = ilqr.rollout(prob, tab, N, U)
        except RolloutDiverged:  # at h = 2 most U leave the trapezoidal stage equation without a root
            reject()
        want = oracle.quasi_newton(prob, tab, N, U).direction
        steps = ilqr.linearize(prob, tab, state)
        dU, _ = ilqr.direction(state, ilqr.backward(prob, tab, steps), steps)
        assert np.abs(dU.ravel() - want).max() / (1 + np.abs(want).max()) < 1e-8

    @given(SEEDS, st.sampled_from(BUILTINS), st.integers(1, 70))
    @example(0, "euler", 1)
    @example(1, "methodA", 2)
    @example(2, "methodB", 3)
    @example(3, "methodC", 5)
    @example(4, "trapezoidal", 8)
    @example(5, "methodB", 63)
    @example(6, "methodC", 64)
    @settings(max_examples=40, deadline=None)
    def test_step_invariant_sweep_matches_sequential_sweep(self, seed, name, N):
        # N = 2^k - 1 is odd at every level of the scan, N = 2^k at none; the
        # inputs are DLQR's one shared step and ILQR's N distinct ones
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers(1, [4, 3]))
        tab = builtin(name)
        lq = _random_lq(rng, n, m, tf=float(rng.uniform(0.5, 3.0)))
        nonlinear = pendulum()
        try:
            state = ilqr.rollout(nonlinear, tab, N, 0.3 * rng.standard_normal((N, tab.s * nonlinear.m)))
        except RolloutDiverged:  # trapezoidal at N = 1 has h = 4
            reject()
        for prob, steps in ((lq, dlqr.assemble(lq, tab, N)), (nonlinear, ilqr.linearize(nonlinear, tab, state))):
            args = _sweep_args(prob, tab, steps, N)
            want = dlqr.sequential_sweep(*args)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dlqr, "sequential_sweep", None)  # the scan alone: the fallback does not run
                got = dlqr.value_sweep(*args)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-10 * (1 + np.abs(w).max()))

    @given(SEEDS, st.sampled_from(BUILTINS))
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
            H=np.zeros((N, n, 2)), Ew=np.zeros((N, n)), l=np.zeros((N, 2)), p=np.zeros((N + 1, n)),
        )

    @pytest.mark.parametrize("weights", [(1.5, -0.5), (1.0, 0.0)])
    def test_failure_names_first_bad_step_in_sweep_order(self, weights):
        # (1.5, -0.5) fails only in the Cholesky check after the sweep;
        # (1.0, 0.0) makes K exactly singular, so the solve fails mid-sweep
        prob = LQProblem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=np.eye(2), R=[[1.0]],
                         M=np.eye(2), x0=[0.0, 0.0], tf=6.0)
        tab = ButcherTableau(a=[[0, 0], [1, 0]], b=weights)
        with pytest.raises(BackwardFailure, match=r"at step 3, h = 1\.0$"):
            ilqr.backward(prob, tab, self._weighted_steps(bad=(0, 3)))

    def test_loop_stops_at_first_bad_step(self):
        # the midpoint rule weights stage 1 by 0, so every Kc is singular and the loop
        # runs; it must raise at the first step whose K fails, before NaNs spread
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BackwardFailure, match=r"at step 196, h = 0\.02$"):
                ilqr.solve(pendulum(), MIDPOINT, 200)

    def test_riccati_failure_names_step(self):
        prob, _ = example31()
        with pytest.raises(BackwardFailure, match=r"at step 3, h = 0\.25$"):
            dlqr.solve(prob, NEGATIVE_HEUN, 4)
