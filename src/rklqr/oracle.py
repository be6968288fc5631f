"""Independent verification machinery for the feedback solvers.

qp_solve assembles the full discretized problem as one equality-constrained
QP and solves its KKT system in a single dense factorization; it shares no
recursion with the feedback pipeline, so agreement is a real cross-check.
adjoint_costates back-substitutes the symplectic partitioned RK costate
system, the reference for Hager's equivalence with the solver's adjoint.
grad_exact and quasi_newton share one dense model, the chain rule through
all steps in block matrices, for the gradient and the metric W(U); grad_fd
differences the cost itself.
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


def _blockdiag(blocks, N: int) -> np.ndarray:
    """(N, p, q) blocks, or one (p, q) block N times, down the diagonal of an (N p, N q) matrix.

    For one block this is kron(eye(N), block), except that the entries off
    the blocks are +0.0 where np.kron writes 0 · x = -0.0 beside a negative x.
    """
    blocks = np.broadcast_to(blocks, (N,) + np.shape(blocks)[-2:])
    _, p, q = blocks.shape
    out = np.zeros((N, p, N, q))
    k = np.arange(N)
    out[k, :, k] = blocks
    return out.reshape(N * p, N * q)


def qp_solve(prob, tab, N: int) -> QPSolution:
    """Solve the discretized problem by one dense KKT factorization.

    Variables are all stage controls, stage states and node states x_1..x_N;
    constraints are the stage and node-transition equations specialized to
    linear dynamics, each block of a step placed once for all steps.  The
    indefinite system is LU-factored once and refined twice, which keeps the
    multipliers sharp on stiff instances.  Intended for small N.
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
    below = np.eye(N, k=-1)  # step k reads node x_k, the node variable of step k - 1

    P = np.block([
        [_blockdiag(Rh, N), _blockdiag(Sh.T, N), np.zeros((nu, nd))],
        [_blockdiag(Sh, N), _blockdiag(Qh, N), np.zeros((nx, nd))],
        [np.zeros((nd, nu + nx)), np.pad(prob.M, (nd - n, 0))],
    ])
    # constraints: stage rows then transition rows, both in residual form
    #   Z x_k + Acal X_k + Bcal U_k - X_k = 0
    #   x_k + Bt X_k + Ct U_k - x_{k+1}  = 0
    # with the known x_0 = x0 of the first step moved to the right-hand side
    Amat = np.block([
        [_blockdiag(Bcal, N), _blockdiag(Acal - np.eye(s * n), N), np.kron(below, Z)],
        [_blockdiag(Ct, N), _blockdiag(Bt, N), np.kron(below - np.eye(N), np.eye(n))],
    ])
    kkt = np.block([[P, Amat.T], [Amat, np.zeros((nx + nd, nx + nd))]])
    rhs = np.concatenate([np.zeros(nu + nx + nd), -(Z @ prob.x0), np.zeros(nx - s * n),
                          -prob.x0, np.zeros(nd - n)])
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
    U, X, x, mu, lam = (v.reshape(N, -1) for v in np.split(sol, np.cumsum([nu, nx, nd, nx])))
    return QPSolution(U=U, X=X, x=np.vstack([prob.x0, x]), mu=mu, lam=lam,
                      kkt_residual=residual, data_norm=float(data_norm))


def adjoint_costates(prob, tab, state) -> AdjointCostates:
    """Back-substitute the SPRK costate system along an iterate, one step at a time.

    With the tableau's symplectic partner abar and g_j = Jx_j'p_kj + w_j,
    w_j the running-cost gradient at stage state j, step k solves the dense
    (s+1)n system p_{k+1} = p_k - h sum_j b_j g_j,
    p_ki = p_k - h sum_j abar_ij g_j for p_k and the p_ki, from p_N = M x_N.
    """
    n, m, s = prob.n, prob.m, tab.s
    N, h = state.N, state.h
    wts = h * np.vstack([tab.b, -adjoint(tab).a])  # rows: node, then stage i
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


def _dense_model(prob, tab, N: int, U):
    """The iterate at U, its sensitivities dX/dU and dx_N/dU, and the cost gradient Y.

    The chain rule through all N steps at once, in block matrices.  The
    node sensitivities follow dx_{k+1} = G_k dx_k + H_k dU_k from dx_0 = 0:
    one block lower-triangular solve with I - G below the diagonal against
    blockdiag(H).  The stage sensitivities are dX_k = E_k dx_k + F_k dU_k.
    Y = dX'w + r + dx_N'M x_N, with w and r the running-cost gradients in the
    stage states and the stage controls.
    """
    state = ilqr.rollout(prob, tab, N, U)
    steps = ilqr.linearize(prob, tab, state)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, state.h)
    n = prob.n
    chain = np.eye(N * n) - np.pad(_blockdiag(steps.G[1:], N - 1), ((n, 0), (0, n)))
    dx = scipy.linalg.solve_triangular(chain, _blockdiag(steps.H, N), lower=True, unit_diagonal=True)
    dX = _blockdiag(steps.E, N) @ np.pad(dx[:-n], ((n, 0), (0, 0))) + _blockdiag(steps.F, N)
    w = state.X @ Qh.T + state.U @ Sh.T
    r = state.U @ Rh.T + state.X @ Sh
    Y = dX.T @ w.ravel() + r.ravel() + dx[-n:].T @ (prob.M @ state.x[-1])
    return state, dX, dx[-n:], Y


def grad_exact(prob, tab, N: int, U) -> np.ndarray:
    """Exact cost gradient from the dense sensitivities, shape (N, s*m)."""
    *_, Y = _dense_model(prob, tab, N, U)
    return Y.reshape(N, -1)


def quasi_newton(prob, tab, N: int, U) -> QuasiNewtonData:
    """Assemble the dense quadratic model (W, Y, C) at U and its minimizer step.

    W = dX' Qcal dX + Rcal + dx_N' M dx_N plus the cross blocks of Scal,
    with dX and dx_N the sensitivities of ``grad_exact``'s model; Y is the
    gradient; the returned direction is -W^{-1} Y.  Small instances only.
    OracleFailure when W is not numerically positive definite.
    """
    state, dX, dxN, Y = _dense_model(prob, tab, N, U)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, state.h)
    cross = _blockdiag(Sh.T, N) @ dX
    W = dX.T @ _blockdiag(Qh, N) @ dX + _blockdiag(Rh, N) + cross + cross.T + dxN.T @ prob.M @ dxN
    W = 0.5 * (W + W.T)
    try:
        direction = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(W), Y)
    except scipy.linalg.LinAlgError:
        raise OracleFailure(f"metric W is not positive definite, h = {state.h!r}") from None
    return QuasiNewtonData(W=W, Y=Y, C=state.Jd, direction=direction)
