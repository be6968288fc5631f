"""Iterative LQR for RK-discretized nonlinear quadratic problems.

Each iteration linearizes the discrete stage/transition equations at the
current iterate, solves the resulting affine-quadratic subproblem by a
backward value recursion plus forward sweep, and backtracks along the
feasible curve U + alpha (Utilde - U).  The search direction equals
-W(U)^{-1} J_d'(U), so the loop is a quasi-Newton method.

After convergence, node controls are recovered from the costates of the
discrete adjoint system (back-substituted with the tableau's symplectic
partner) through the stationarity equation Ju'p + Ru = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tableau as tableau_mod
from .dlqr import affine_scan, factor_fails, running_cost, stage_cost_blocks, value_sweep
from .errors import (
    BackwardFailure,
    CostateFailure,
    LineSearchFailed,
    NodeControlFailure,
    NotConverged,
    RolloutDiverged,
    StepTooLarge,
)
from .problem import cross_term

STAGE_FP_TOL = 1e-12
STAGE_FP_MAXIT = 100
# Near the optimum c1 alpha slope falls below the rounding error of Jd, so an
# exact Armijo test would accept or reject a good step by luck.  The test
# allows this many units of roundoff in |Jd|.
ARMIJO_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class IterateState:
    """A point on the feasible manifold: controls, stage states, node states."""

    U: np.ndarray  # (N, s*m) internal-stage controls
    X: np.ndarray  # (N, s*n) internal-stage states
    x: np.ndarray  # (N+1, n) node states
    Jd: float
    h: float

    @property
    def N(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class LinearizedStep:
    """Jacobian data of one discrete step at the linearization point.

    X_k = E x_k + F U_k + D1 and x_{k+1} = G x_k + H U_k + D2 describe the
    tangent plane; D1/D2 vanish when the underlying maps are linear.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    D1: np.ndarray
    D2: np.ndarray


@dataclass(frozen=True)
class Linearization:
    """The LinearizedStep data of all N steps, stacked along a leading axis.

    len() is N; an integer index gives one step's LinearizedStep of views
    (so iteration yields every step) and a slice the Linearization of those steps.
    """

    E: np.ndarray  # (N, s*n, n)
    F: np.ndarray  # (N, s*n, s*m)
    G: np.ndarray  # (N, n, n)
    H: np.ndarray  # (N, n, s*m)
    D1: np.ndarray  # (N, s*n)
    D2: np.ndarray  # (N, n)

    def __len__(self):
        return self.E.shape[0]

    def __getitem__(self, k):
        cls = Linearization if isinstance(k, slice) else LinearizedStep
        return cls(self.E[k], self.F[k], self.G[k], self.H[k], self.D1[k], self.D2[k])


@dataclass(frozen=True)
class AffineBackwardPass:
    """Affine value data V_k(x) = 1/2 x'M_k x + Y_k'x + const and gains, stacked over steps."""

    M: np.ndarray  # (N+1, n, n)
    Y: np.ndarray  # (N+1, n)
    U1: np.ndarray  # (N, s*m, n) feedback gains
    U2: np.ndarray  # (N, s*m) feedforward terms


@dataclass(frozen=True)
class CostateTrajectory:
    """Node costates p_k and stacked internal-stage costates p_ki."""

    p: np.ndarray  # (N+1, n)
    p_stage: np.ndarray  # (N, s*n)


@dataclass(frozen=True)
class IterateRecord:
    """One accepted iteration of solve(): cost after the step plus diagnostics."""

    iteration: int
    Jd: float
    grad_inf_norm: float
    step_norm: float
    alpha: float
    slope: float  # directional derivative J_d'(U)' dU, negative for descent


def evaluate_cost(prob, tab, U, X, x) -> float:
    """Discrete cost of arbitrary (U, X, x) stacks (not necessarily feasible)."""
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, prob.tf / U.shape[0])
    xN = x[-1]
    return running_cost(Qh, Rh, Sh, X, U) + float(0.5 * xN @ prob.M @ xN)


def make_state(prob, tab, U, X, x) -> IterateState:
    """Package existing stacks (e.g. from a direct solve) as an IterateState."""
    U = np.asarray(U, dtype=float).reshape(-1, tab.s * prob.m)
    X = np.asarray(X, dtype=float).reshape(U.shape[0], tab.s * prob.n)
    x = np.asarray(x, dtype=float).reshape(U.shape[0] + 1, prob.n)
    return IterateState(U=U, X=X, x=x, Jd=evaluate_cost(prob, tab, U, X, x), h=prob.tf / U.shape[0])


def _solve_stages(prob, tab, xk, us, h):
    """Stage states x_ki = x_k + h sum_j a_ij f(x_kj, u_kj) for one step.

    Explicit tableaus resolve by forward substitution; implicit ones by
    fixed-point iteration (tolerance STAGE_FP_TOL, cap STAGE_FP_MAXIT).
    """
    s, n = tab.s, prob.n
    a = tab.a
    xs = np.empty((s, n))
    if tab.is_explicit:
        fs = np.empty((s, n))
        for i in range(s):
            xi = xk.copy()
            for j in range(i):
                if a[i, j] != 0.0:
                    xi = xi + (h * a[i, j]) * fs[j]
            xs[i] = xi
            fs[i] = prob.f(xi, us[i])
        return xs, fs
    xs[:] = xk
    scale = 1.0 + np.abs(xk).max(initial=0.0)
    for _ in range(STAGE_FP_MAXIT):
        fs = np.array([prob.f(xs[i], us[i]) for i in range(s)])
        new = xk[None, :] + h * (a @ fs)
        delta = np.abs(new - xs).max()
        xs = new
        if delta <= 0.1 * STAGE_FP_TOL * scale:
            fs = np.array([prob.f(xs[i], us[i]) for i in range(s)])
            return xs, fs
    raise RolloutDiverged(f"stage fixed point did not contract at h = {h!r}")


def rollout(prob, tab, N: int, U) -> IterateState:
    """Integrate the discrete dynamics under stage controls U and price them."""
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    U = np.asarray(U, dtype=float).reshape(N, s * m)
    x = np.zeros((N + 1, n))
    X = np.zeros((N, s * n))
    x[0] = prob.x0
    for k in range(N):
        xs, fs = _solve_stages(prob, tab, x[k], U[k].reshape(s, m), h)
        X[k] = xs.ravel()
        x[k + 1] = x[k] + h * (tab.b @ fs)
    return IterateState(U=U, X=X, x=x, Jd=evaluate_cost(prob, tab, U, X, x), h=h)


def _stage_jacobians(jac, state, n, m):
    """jac(x_ki, u_ki) at every internal stage, shape (N, s, n, *)."""
    points = zip(state.X.reshape(-1, n), state.U.reshape(-1, m))
    J = np.array([jac(xi, ui) for xi, ui in points])
    return J.reshape(state.N, -1, *J.shape[1:])


def linearize(prob, tab, state: IterateState) -> Linearization:
    """Tangent-plane step data at every step of the iterate, stacked over steps."""
    n, m, s = prob.n, prob.m, tab.s
    h, N = state.h, state.N
    # (k, row r, stage j, col c) layout of the stage Jacobians
    Jx = _stage_jacobians(prob.jac_x, state, n, m).transpose(0, 2, 1, 3)
    Ju = _stage_jacobians(prob.jac_u, state, n, m).transpose(0, 2, 1, 3)
    # A1_ij = h a_ij Jx_j (coupling I - A1), A2_ij = h a_ij Ju_j, B_j = h b_j Jx_j, C_j = h b_j Ju_j
    ha = (h * tab.a)[:, None, :, None]
    hb = (h * tab.b)[:, None]
    coupling = np.eye(s * n) - (ha * Jx[:, None]).reshape(N, s * n, s * n)
    A2 = (ha * Ju[:, None]).reshape(N, s * n, s * m)
    B = (hb * Jx).reshape(N, n, s * n)
    C = (hb * Ju).reshape(N, n, s * m)
    Z = np.broadcast_to(np.tile(np.eye(n), (s, 1)), (N, s * n, n))
    try:
        EF = np.linalg.solve(coupling, np.concatenate([Z, A2], axis=2))
    except np.linalg.LinAlgError:
        k = next((j for j in range(N) if factor_fails(np.linalg.inv, coupling[j])), None)
        raise StepTooLarge(f"singular stage coupling at step {k}, h = {h!r}", h=h) from None
    E, F = EF[:, :, :n], EF[:, :, n:]
    G = np.eye(n) + B @ E
    H = B @ F + C
    xk, Uk = state.x[:-1, :, None], state.U[:, :, None]
    D1 = state.X - (E @ xk + F @ Uk)[..., 0]
    D2 = state.x[1:] - (G @ xk + H @ Uk)[..., 0]
    return Linearization(E=E, F=F, G=G, H=H, D1=D1, D2=D2)


def backward(prob, tab, steps: Linearization) -> AffineBackwardPass:
    """Backward recursion of the affine-quadratic value function.

    Produces feedback U_k = U1_k x_k + U2_k minimizing the cost over the
    tangent plane.  The offsets D1/D2 fold into the step operators of the
    augmented state z = [x; 1], whose value matrix P_k carries M_k in its
    leading block and Y_k in its last column.
    """
    N, n = len(steps), prob.n
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, prob.tf / N)
    below = ((0, 0), (0, 1), (0, 0))  # pads a zero row under each step's block
    Ea = np.concatenate([steps.E, steps.D1[:, :, None]], axis=2)
    Ga = np.pad(np.concatenate([steps.G, steps.D2[:, :, None]], axis=2), below)
    Ga[:, n, n] = 1.0
    Ha = np.pad(steps.H, below)
    P, gains = value_sweep(Ea, steps.F, Ga, Ha, Qh, Rh, Sh, np.pad(prob.M, (0, 1)), N, BackwardFailure)
    return AffineBackwardPass(M=P[:, :n, :n], Y=P[:, :n, n], U1=gains[:, :, :n], U2=gains[:, :, n])


def direction(state: IterateState, bp: AffineBackwardPass, steps: Linearization) -> np.ndarray:
    """Forward sweep of the affine feedback; returns Utilde - U."""
    # closed loop x_{k+1} = (G + H U1) x_k + (H U2 + D2)
    closed = steps.G + steps.H @ bp.U1
    offset = (steps.H @ bp.U2[:, :, None])[..., 0] + steps.D2
    xt = affine_scan(closed, offset, state.x[0])
    return (bp.U1 @ xt[:-1, :, None])[..., 0] + bp.U2 - state.U


def gradient(prob, tab, state: IterateState, steps=None) -> np.ndarray:
    """Exact gradient of the discrete cost in the stage controls, shape (N, s*m).

    Backward adjoint accumulation lam_k = E_k'w_k + G_k'lam_{k+1} through the
    linearized step chain, w_k being the stage-state cost gradient; the
    states are treated as functions of U via the stage equations.
    """
    if steps is None:
        steps = linearize(prob, tab, state)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, state.h)
    w = state.X @ Qh
    g = state.U @ Rh
    if Sh is not None:
        w = w + state.U @ Sh.T
        g = g + state.X @ Sh
    Ew = (w[:, None, :] @ steps.E)[:, 0]
    lam = affine_scan(np.swapaxes(steps.G, 1, 2), Ew, prob.M @ state.x[-1], reverse=True)
    return g + (w[:, None, :] @ steps.F)[:, 0] + (lam[1:, None, :] @ steps.H)[:, 0]


def line_search(prob, tab, state: IterateState, dU, slope=None, c1=1e-4, min_alpha=2.0**-30):
    """Backtracking Armijo along the feasible curve through U + alpha dU.

    Accepts the first alpha in 1, 1/2, 1/4, ... with
    Jd(alpha) <= Jd + c1 alpha slope + ARMIJO_ROUNDING |Jd|; each trial is
    a fresh rollout.
    """
    dU = np.asarray(dU, dtype=float).reshape(state.U.shape)
    if not np.any(dU):
        return 1.0, state
    if slope is None:
        slope = float(np.sum(gradient(prob, tab, state) * dU))
    alpha = 1.0
    slack = ARMIJO_ROUNDING * abs(state.Jd)
    while alpha >= min_alpha:
        trial = rollout(prob, tab, state.N, state.U + alpha * dU)
        if trial.Jd <= state.Jd + c1 * alpha * slope + slack:
            return alpha, trial
        alpha *= 0.5
    raise LineSearchFailed(f"no sufficient decrease above alpha = {min_alpha!r}")


def solve(prob, tab, N: int, U0=None, tol=1e-8, max_iter=200):
    """Run the full iteration from U0 (default all zeros).

    Stops when the gradient sup-norm falls below tol; returns the final
    iterate and a per-iteration log.  Raises NotConverged (carrying the last
    state and log) when max_iter is exhausted.
    """
    if U0 is None:
        U0 = np.zeros((N, tab.s * prob.m))
    state = rollout(prob, tab, N, U0)
    log = []
    for it in range(1, max_iter + 1):
        steps = linearize(prob, tab, state)
        g = gradient(prob, tab, state, steps)
        gnorm = float(np.abs(g).max(initial=0.0))
        if gnorm < tol:
            return state, log
        bp = backward(prob, tab, steps)
        dU = direction(state, bp, steps)
        slope = float(np.sum(g * dU))
        alpha, state = line_search(prob, tab, state, dU, slope=slope)
        log.append(
            IterateRecord(
                iteration=it,
                Jd=state.Jd,
                grad_inf_norm=gnorm,
                step_norm=float(np.linalg.norm(dU)),
                alpha=alpha,
                slope=slope,
            )
        )
    raise NotConverged(f"gradient norm above {tol!r} after {max_iter} iterations", state=state, log=log)


def costates(prob, tab, state: IterateState, adj=None) -> CostateTrajectory:
    """Back-substitute the discrete adjoint system along a solved iterate.

    At each step the node costate p_k and stage costates p_ki solve one
    dense (s+1)n linear system built from the adjoint coefficients,
    terminal condition p_N = M x_N.  One batched solve gives every step's
    z_k = T_k p_{k+1} + c_k, and a scan of p_k = z_k[:n] gives the costates.
    """
    if adj is None:
        adj = tableau_mod.adjoint(tab)
    n, m, s = prob.n, prob.m, tab.s
    N, h = state.N, state.h
    S = cross_term(prob)
    dim = (s + 1) * n
    JxT = np.swapaxes(_stage_jacobians(prob.jac_x, state, n, m), 2, 3)
    w = state.X.reshape(N, s, n) @ prob.Q  # running-cost state gradient
    if S is not None:
        w += state.U.reshape(N, s, m) @ S.T
    # block rows: node [I, -h b_j Jx_j'] and stage i [-I, delta_ij I + h abar_ij Jx_j']
    wts = h * np.vstack([tab.b, -adj.abar])
    mat = np.zeros((N, s + 1, n, s + 1, n))
    mat[:, :, :, 1:] = -wts[:, None, :, None] * JxT.transpose(0, 2, 1, 3)[:, None]
    unit = np.eye(s + 1)
    unit[1:, 0] = -1.0
    mat = mat.reshape(N, dim, dim) + np.kron(unit, np.eye(n))
    rhs = np.zeros((N, dim, n + 1))
    rhs[:, :n, :n] = np.eye(n)
    rhs[:, :, n] = (wts @ w).reshape(N, dim)
    try:
        Tc = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        k = next((j for j in range(N - 1, -1, -1) if factor_fails(np.linalg.inv, mat[j])), None)
        raise CostateFailure(f"singular costate system at step {k}, h = {h!r}") from None
    T, c = Tc[:, :, :n], Tc[:, :, n]
    p = affine_scan(T[:, :n], c[:, :n], prob.M @ state.x[N], reverse=True)
    z = (T @ p[1:, :, None])[..., 0] + c
    return CostateTrajectory(p=p, p_stage=z[:, n:])


def node_controls(prob, state: IterateState, cost: CostateTrajectory,
                  newton_tol=1e-12, newton_maxit=50) -> np.ndarray:
    """Node controls from the stationarity equation Ju(x,u)'p + Ru (+ S'x) = 0.

    Control-affine dynamics admit the closed form u = -R^{-1}(B(x)'p + S'x);
    otherwise a Newton iteration with finite-difference Jacobian runs from
    the first-stage control of the step.
    """
    N, m = state.N, prob.m
    if getattr(prob, "control_affine", True):  # linear problems are affine
        Bx = np.array([prob.input_matrix(xk) for xk in state.x])
        rhs = (cost.p[:, None, :] @ Bx)[:, 0]
        S = cross_term(prob)
        if S is not None:
            rhs = rhs + state.x @ S
        return -np.linalg.solve(prob.R, rhs.T).T
    s = state.U.shape[1] // m
    u = np.zeros((N + 1, m))
    for k in range(N + 1):
        guess = state.U[k, :m] if k < N else state.U[N - 1, (s - 1) * m :]
        u[k] = _newton_node_control(prob, state.x[k], cost.p[k], guess, newton_tol, newton_maxit, k)
    return u


def _newton_node_control(prob, x, p, u0, tol, maxit, index):
    def resid(u):
        return prob.jac_u(x, u).T @ p + prob.R @ u

    u = np.array(u0, dtype=float)
    for _ in range(maxit):
        g = resid(u)
        if np.abs(g).max(initial=0.0) < tol:
            return u
        m = u.size
        J = np.empty((m, m))
        for l in range(m):
            d = 1e-7 * (1.0 + abs(u[l]))
            e = np.zeros(m)
            e[l] = d
            J[:, l] = (resid(u + e) - resid(u - e)) / (2 * d)
        try:
            u = u - np.linalg.solve(J, g)
        except np.linalg.LinAlgError:
            raise NodeControlFailure(f"singular Newton system at node {index}", index=index) from None
    raise NodeControlFailure(f"node control Newton stalled at node {index}", index=index)
