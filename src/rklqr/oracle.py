"""Independent verification machinery for the feedback solvers.

qp_solve assembles the full discretized problem as one equality-constrained
QP and solves its KKT system in a single dense factorization; it shares no
recursion with the feedback pipeline, so agreement is a real cross-check.
adjoint_costates back-substitutes the symplectic partitioned RK costate
system, the reference for Hager's equivalence with the solver's adjoint.
grad_fd / grad_exact / quasi_newton provide three mutually independent
routes to the cost gradient and the quasi-Newton metric W(U); the scalar
curve demo reproduces the 1-D counterexample that bounds the iteration's
convergence rate away from superlinear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ilqr
from .dlqr import stage_cost_blocks
from .errors import OracleFailure
from .tableau import adjoint


@dataclass(frozen=True, eq=False)
class QPSolution:
    """Direct KKT solution of the discretized linear-quadratic problem.

    lam[k] is the multiplier of the node-transition constraint producing
    x_{k+1} (it equals the costate p_{k+1}); mu[k] belongs to the stage
    equations of step k.
    """

    U: np.ndarray  # (N, s*m)
    X: np.ndarray  # (N, s*n)
    x: np.ndarray  # (N+1, n), x[0] = x0
    lam: np.ndarray  # (N, n)
    mu: np.ndarray  # (N, s*n)
    kkt_residual: float
    data_norm: float


@dataclass(frozen=True, eq=False)
class QuasiNewtonData:
    """Dense quadratic model of the cost over the tangent plane at U."""

    W: np.ndarray  # (s*m*N, s*m*N) symmetric positive definite metric
    Y: np.ndarray  # gradient of the discrete cost at U
    C: float  # cost value at U
    direction: np.ndarray  # -W^{-1} Y


@dataclass(frozen=True, eq=False)
class AdjointCostates:
    """Node costates p_k and stacked internal-stage costates p_ki of the SPRK method."""

    p: np.ndarray  # (N+1, n)
    p_stage: np.ndarray  # (N, s*n)


@dataclass(frozen=True, eq=False)
class ScalarCurveTrace:
    """Iterates of the 1-D curve-fitting demo (closest point to the origin)."""

    us: np.ndarray
    js: np.ndarray
    alphas: np.ndarray
    converged: bool


def qp_solve(prob, tab, N: int) -> QPSolution:
    """Solve the discretized problem by one dense KKT factorization.

    Variables are all stage controls, stage states and node states x_1..x_N;
    constraints are the stage and node-transition equations specialized to
    linear dynamics.  The indefinite system is LU-factored once and refined
    twice, which keeps the multipliers sharp on stiff instances.  Intended
    for small N.
    """
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    a, b = tab.a, tab.b
    A, B = prob.A, prob.B

    d = np.diag(b)
    Qh = h * np.kron(d, prob.Q)
    Rh = h * np.kron(d, prob.R)
    Sh = h * np.kron(d, prob.S)
    Acal = h * np.kron(a, A)
    Bcal = h * np.kron(a, B)
    Bt = h * np.kron(b[None, :], A)  # node update weights on stage states
    Ct = h * np.kron(b[None, :], B)
    Z = np.tile(np.eye(n), (s, 1))

    nu, nx, nd = s * m * N, s * n * N, n * N
    nz = nu + nx + nd
    ncon = nx + nd

    P = np.zeros((nz, nz))
    for k in range(N):
        iu = slice(k * s * m, (k + 1) * s * m)
        ix = slice(nu + k * s * n, nu + (k + 1) * s * n)
        P[iu, iu] = Rh
        P[ix, ix] = Qh
        P[ix, iu] = Sh
        P[iu, ix] = Sh.T
    ixN = slice(nu + nx + (N - 1) * n, nz)
    P[ixN, ixN] += prob.M

    # constraints: stage rows then transition rows, both in residual form
    #   Z x_k + Acal X_k + Bcal U_k - X_k = 0
    #   x_k + Bt X_k + Ct U_k - x_{k+1}  = 0
    Amat = np.zeros((ncon, nz))
    rhs_c = np.zeros(ncon)
    for k in range(N):
        iu = slice(k * s * m, (k + 1) * s * m)
        ix = slice(nu + k * s * n, nu + (k + 1) * s * n)
        rs = slice(k * s * n, (k + 1) * s * n)
        Amat[rs, iu] = Bcal
        Amat[rs, ix] = Acal - np.eye(s * n)
        if k == 0:
            rhs_c[rs] = -(Z @ prob.x0)
        else:
            ixprev = slice(nu + nx + (k - 1) * n, nu + nx + k * n)
            Amat[rs, ixprev] = Z
        rd = slice(nx + k * n, nx + (k + 1) * n)
        Amat[rd, iu] = Ct
        Amat[rd, ix] = Bt
        Amat[rd, nu + nx + k * n : nu + nx + (k + 1) * n] = -np.eye(n)
        if k == 0:
            rhs_c[rd] = -prob.x0
        else:
            ixprev = slice(nu + nx + (k - 1) * n, nu + nx + k * n)
            Amat[rd, ixprev] = np.eye(n)

    kkt = np.zeros((nz + ncon, nz + ncon))
    kkt[:nz, :nz] = P
    kkt[:nz, nz:] = Amat.T
    kkt[nz:, :nz] = Amat
    rhs = np.concatenate([np.zeros(nz), rhs_c])
    try:
        factors = scipy.linalg.lu_factor(kkt)
        sol = scipy.linalg.lu_solve(factors, rhs)
        for _ in range(2):  # iterative refinement sharpens the multipliers
            sol += scipy.linalg.lu_solve(factors, rhs - kkt @ sol)
    except (scipy.linalg.LinAlgError, ValueError):
        raise OracleFailure("singular KKT system") from None
    if not np.all(np.isfinite(sol)):
        raise OracleFailure("singular KKT system")

    data_norm = max(np.abs(kkt).max(), np.abs(rhs).max(initial=0.0))
    residual = float(np.abs(kkt @ sol - rhs).max())
    z, nu_mult = sol[:nz], sol[nz:]
    x = np.vstack([prob.x0, z[nu + nx :].reshape(N, n)])
    return QPSolution(
        U=z[:nu].reshape(N, s * m),
        X=z[nu : nu + nx].reshape(N, s * n),
        x=x,
        mu=nu_mult[:nx].reshape(N, s * n),
        lam=nu_mult[nx:].reshape(N, n),
        kkt_residual=residual,
        data_norm=float(data_norm),
    )


def adjoint_costates(prob, tab, state) -> AdjointCostates:
    """Back-substitute the SPRK costate system along an iterate, one step at a time.

    With the tableau's symplectic partner abar and g_j = Jx_j'p_kj + w_j,
    w_j the running-cost gradient at stage state j, step k solves the dense
    (s+1)n system p_{k+1} = p_k - h sum_j b_j g_j,
    p_ki = p_k - h sum_j abar_ij g_j for p_k and the p_ki, from p_N = M x_N.
    """
    n, m, s = prob.n, prob.m, tab.s
    N, h = state.N, state.h
    wts = h * np.vstack([tab.b, -adjoint(tab).abar])  # rows: node, then stage i
    base = np.eye((s + 1) * n)
    base[n:, :n] = -np.tile(np.eye(n), (s, 1))
    p, p_stage = np.empty((N + 1, n)), np.empty((N, s * n))
    p[N] = prob.M @ state.x[N]
    Jx, _ = prob.stage_jacobians(state.X.reshape(-1, n), state.U.reshape(-1, m))
    JxT = np.swapaxes(Jx, 1, 2).reshape(N, s, n, n)
    for k in range(N - 1, -1, -1):
        xs, us = state.X[k].reshape(s, n), state.U[k].reshape(s, m)
        w = xs @ prob.Q + us @ prob.S.T
        mat = base.copy()
        mat[:, n:] -= np.einsum("rj,jab->rajb", wts, JxT[k]).reshape((s + 1) * n, s * n)
        rhs = (wts @ w).ravel()
        rhs[:n] += p[k + 1]
        try:
            z = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            raise OracleFailure(f"singular costate system at step {k}, h = {h!r}") from None
        p[k], p_stage[k] = z[:n], z[n:]
    return AdjointCostates(p=p, p_stage=p_stage)


def grad_fd(prob, tab, N: int, U) -> np.ndarray:
    """Central-difference gradient of the discrete cost, component by component.

    The step is 1e-6 (1 + |U|) in every component.
    """
    U = ilqr.stage_controls(U, N, tab.s * prob.m)
    eps = 1e-6 * (1.0 + np.linalg.norm(U))
    g = np.zeros_like(U)
    for idx in np.ndindex(U.shape):
        up = U.copy()
        um = U.copy()
        up[idx] += eps
        um[idx] -= eps
        g[idx] = (ilqr.rollout(prob, tab, N, up).Jd - ilqr.rollout(prob, tab, N, um).Jd) / (2 * eps)
    return g


def _sensitivities(prob, tab, state, steps):
    """Forward accumulation of dX_k/dU (per step) and dx_N/dU through the chain."""
    n = prob.n
    N = state.N
    blk = state.U.shape[1]
    P = np.zeros((n, blk * N))
    stage_sens = []
    for k in range(N):
        Rk = steps.E[k] @ P
        Rk[:, k * blk : (k + 1) * blk] += steps.F[k]
        stage_sens.append(Rk)
        P = steps.G[k] @ P
        P[:, k * blk : (k + 1) * blk] += steps.H[k]
    return stage_sens, P


def grad_exact(prob, tab, N: int, U) -> np.ndarray:
    """Exact cost gradient assembled from dense step sensitivities."""
    state = ilqr.rollout(prob, tab, N, U)
    steps = ilqr.linearize(prob, tab, state)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, state.h)
    stage_sens, PN = _sensitivities(prob, tab, state, steps)
    blk = state.U.shape[1]
    Y = np.zeros(blk * N)
    for k in range(N):
        w = Qh @ state.X[k] + Sh @ state.U[k]
        own = Rh @ state.U[k] + Sh.T @ state.X[k]
        Y += stage_sens[k].T @ w
        Y[k * blk : (k + 1) * blk] += own
    Y += PN.T @ (prob.M @ state.x[-1])
    return Y.reshape(N, blk)


def quasi_newton(prob, tab, N: int, U) -> QuasiNewtonData:
    """Assemble the dense quadratic model (W, Y, C) at U and its minimizer step.

    W = F'(U)' Qcal F'(U) + Rcal + dx_N' M dx_N plus the cross blocks of Scal;
    Y is the gradient; the returned direction is -W^{-1} Y.  Small instances
    only.
    """
    state = ilqr.rollout(prob, tab, N, U)
    steps = ilqr.linearize(prob, tab, state)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, state.h)
    stage_sens, PN = _sensitivities(prob, tab, state, steps)
    blk = state.U.shape[1]
    dim = blk * N
    W = np.kron(np.eye(N), Rh)
    Y = np.zeros(dim)
    for k in range(N):
        Rk = stage_sens[k]
        W += Rk.T @ Qh @ Rk
        cols = slice(k * blk, (k + 1) * blk)
        W[:, cols] += Rk.T @ Sh
        W[cols, :] += Sh.T @ Rk
        w = Qh @ state.X[k] + Sh @ state.U[k]
        own = Rh @ state.U[k] + Sh.T @ state.X[k]
        Y += Rk.T @ w
        Y[k * blk : (k + 1) * blk] += own
    W += PN.T @ prob.M @ PN
    Y += PN.T @ (prob.M @ state.x[-1])
    W = 0.5 * (W + W.T)
    direction = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(W), Y)
    return QuasiNewtonData(W=W, Y=Y, C=state.Jd, direction=direction)


def scalar_curve_demo(u0: float, tol=1e-10, max_iter=100, force_full_step=False) -> ScalarCurveTrace:
    """Minimize 1/2 x^2 + 1/2 u^2 on the curve x = u^2 + 1 by the same iteration.

    The closest point to the origin is u* = 0.  Steps follow
    u <- u - alpha Y(u)/W(u) with W = 1 + g'(u)^2 and Y = j'(u), Armijo
    backtracking with the solver's ARMIJO_C1 unless force_full_step pins
    alpha = 1.  The curvature gap |j'' - W| = |g'' g| = 2 at u* keeps the
    contraction ratio bounded away from zero, so convergence is linear, never
    superlinear.

    j(u) = 1/2 u^4 + 3/2 u^2 + 1/2, so the Armijo decrease is evaluated in
    the expanded difference form j(c) - j(u); subtracting the constant 1/2
    inside the comparison would otherwise drown the decrease in roundoff
    once u^2 falls below the ulp of j.
    """

    def j(u):
        return 0.5 * u**4 + 1.5 * u * u + 0.5

    def jdiff(c, u):
        return 0.5 * (c**4 - u**4) + 1.5 * (c * c - u * u)

    def jprime(u):
        return 2.0 * u**3 + 3.0 * u

    u = float(u0)
    us, js, alphas = [u], [j(u)], []
    converged = False
    for _ in range(max_iter):
        Y = jprime(u)
        if abs(Y) < tol:
            converged = True
            break
        W = 1.0 + (2.0 * u) ** 2
        d = -Y / W
        if force_full_step:
            alpha = 1.0
        else:
            alpha = 1.0
            while jdiff(u + alpha * d, u) > ilqr.ARMIJO_C1 * alpha * Y * d:
                alpha *= 0.5
                if alpha < 2.0**-30:
                    raise OracleFailure("curve demo line search failed")
        u = u + alpha * d
        us.append(u)
        js.append(j(u))
        alphas.append(alpha)
    return ScalarCurveTrace(
        us=np.array(us), js=np.array(js), alphas=np.array(alphas), converged=converged
    )
