"""Independent verification machinery for the feedback solvers.

The dense oracles read one discretized problem in v = (U, X, x_1..x_N): the
cost Hessian P from the stage cost blocks and the Jacobian of the stage and
node equations from one ``stage_jacobians`` call.  qp_solve factors the KKT
system of a linear-quadratic problem once; grad_exact and quasi_newton take
the Jacobian's null space at the iterate of ``rollout``, Newton on each step's
stage equations, for the gradient and the metric W(U); grad_fd differences the
cost 1/2 v'P v along it.  adjoint_costates back-substitutes the symplectic
partitioned RK costate system, the reference for Hager's equivalence.  Of the
solvers it reads only ``ilqr.stage_controls`` and ``dlqr.stage_cost_blocks``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ilqr
from .dlqr import stage_cost_blocks
from .errors import OracleFailure
from .problem import LQProblem
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


def _cost_hessian(prob, tab, N: int) -> np.ndarray:
    """Hessian P of the discrete cost in v = (U, X, x_1..x_N): J_d = 1/2 v'P v."""
    Qh, Rh, Sh = stage_cost_blocks(prob, tab, prob.tf / N)
    nu, nx, nd = tab.s * prob.m * N, tab.s * prob.n * N, prob.n * N
    return np.block([
        [_blockdiag(Rh, N), _blockdiag(Sh.T, N), np.zeros((nu, nd))],
        [_blockdiag(Sh, N), _blockdiag(Qh, N), np.zeros((nx, nd))],
        [np.zeros((nd, nu + nx)), np.pad(prob.M, (nd - prob.n, 0))],
    ])


def _constraint_jacobian(prob, tab, N: int, X, U) -> np.ndarray:
    """Jacobian in v = (U, X, x_1..x_N) of the stage and node equations at stage points X, U.

    Stage rows then node rows, in residual form for every step k,
      x_k + h sum_j a_ij f(X_kj, U_kj) - X_ki = 0,  x_k + h sum_j b_j f(X_kj, U_kj) - x_{k+1} = 0,
    with x_0 = x0 known.  Block (i, j) of step k is h w_ij J_kj, w the rows of a then b and J_kj
    the Jacobians of f from one ``stage_jacobians`` call at all N·s stage points.
    """
    h, n, m, s = prob.tf / N, prob.n, prob.m, tab.s
    wts = np.vstack([tab.a, tab.b])
    Jx, Ju = prob.stage_jacobians(np.reshape(X, (N * s, n)), np.reshape(U, (N * s, m)))
    JX, JU = (h * np.einsum("ij,kjab->kiajb", wts, J.reshape(N, s, n, -1)).reshape(N, (s + 1) * n, -1)
              for J in (Jx, Ju))
    JX[:, :s * n] -= np.eye(s * n)
    below = np.eye(N, k=-1)  # step k reads node x_k, the node variable of step k - 1
    return np.block([
        [_blockdiag(JU[:, :s * n], N), _blockdiag(JX[:, :s * n], N), np.kron(below, np.tile(np.eye(n), (s, 1)))],
        [_blockdiag(JU[:, s * n:], N), _blockdiag(JX[:, s * n:], N), np.kron(below - np.eye(N), np.eye(n))],
    ])


def qp_solve(prob, tab, N: int) -> QPSolution:
    """Solve the discretized linear-quadratic problem by one dense KKT factorization.

    The cost Hessian and the constraint Jacobian at zero stage points are
    exact for linear dynamics.  The indefinite system is LU-factored once
    and refined twice, which keeps the multipliers sharp on stiff instances.
    Intended for small N.  ValueError unless ``prob`` is an ``LQProblem``.
    """
    if not isinstance(prob, LQProblem):
        raise ValueError(f"qp_solve needs a linear-quadratic problem (LQProblem), not {type(prob).__name__}")
    n, sm, sn = prob.n, tab.s * prob.m, tab.s * prob.n
    nu, nx, nd = sm * N, sn * N, n * N
    P = _cost_hessian(prob, tab, N)
    Amat = _constraint_jacobian(prob, tab, N, np.zeros((N, sn)), np.zeros((N, sm)))
    kkt = np.block([[P, Amat.T], [Amat, np.zeros((nx + nd, nx + nd))]])
    # the known x_0 = x0 of the first step moves to the right-hand side
    rhs = np.concatenate([np.zeros(nu + nx + nd), -np.tile(prob.x0, tab.s), np.zeros(nx - sn),
                          -prob.x0, np.zeros(nd - n)])
    try:
        with warnings.catch_warnings():  # an exactly zero pivot warns; it fails here, under any warning filter
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(kkt)
        sol = scipy.linalg.lu_solve(factors, rhs)
        for _ in range(2):  # iterative refinement sharpens the multipliers
            sol += scipy.linalg.lu_solve(factors, rhs - kkt @ sol)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError):
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


def rollout(prob, tab, N: int, U):
    """Stage states X (N, s*n) and node states x (N+1, n) under stage controls U, one step at a time.

    Newton on step k's stage equations X_k = x_k + h (a⊗I) f(X_k, U_k) from X_k = x_k until no stage
    state moves by more than 1e-13 (1 + max |X_k|), s iterations for an explicit tableau; then
    x_{k+1} = x_k + h (b⊗I) f.  A move that raises the residual's sum of squares, or makes it NaN, is
    halved, at most 30 times: a full one can cross a singular Newton matrix and run far from the root, as
    trapezoidal pendulum steps at h = 2 cross θ ∈ 2πℤ.  OracleFailure names the step and h when the
    Newton matrix I - h (a⊗I) diag(Jx) is singular or 50 iterations leave the step unsettled.
    """
    n, s, h = prob.n, tab.s, prob.tf / N
    U = ilqr.stage_controls(U, N, s * prob.m).reshape(N, s, -1)
    X, x = np.empty((N, s, n)), np.tile(prob.x0, (N + 1, 1))

    def residual(Xk):  # of step k's stage equations
        return x[k] + h * tab.a @ prob.f(Xk, U[k]) - Xk

    with np.errstate(over="ignore", invalid="ignore"):  # a diverging step stays unsettled
        for k in range(N):
            X[k] = x[k]
            for _ in range(50):
                r = residual(X[k])
                hJ = h * np.einsum("ij,jab->iajb", tab.a, prob.stage_jacobians(X[k], U[k])[0]).reshape(s * n, -1)
                try:
                    move = np.linalg.solve(np.eye(s * n) - hJ, r.ravel()).reshape(s, n)
                except np.linalg.LinAlgError:
                    raise OracleFailure(f"singular stage equations at step {k}, h = {h!r}") from None
                if np.abs(move).max() <= 1e-13 * (1.0 + np.abs(X[k] + move).max()):
                    X[k] += move
                    break
                t = 1.0
                while not np.sum(residual(X[k] + t * move) ** 2) <= np.sum(r * r) and t > 2.0**-30:
                    t *= 0.5
                X[k] += t * move
            else:
                raise OracleFailure(f"stage equations unsettled at step {k}, h = {h!r}")
            x[k + 1] = x[k] + h * tab.b @ prob.f(X[k], U[k])
    return X.reshape(N, s * n), x


def _point(prob, tab, N: int, U) -> np.ndarray:
    """v = (U, X, x_1..x_N) of the ``rollout`` of U."""
    X, x = rollout(prob, tab, N, U)
    return np.concatenate([np.ravel(U), X.ravel(), x[1:].ravel()])


def grad_fd(prob, tab, N: int, U) -> np.ndarray:
    """Central differences, step 1e-6 (1 + ‖U‖_F) in each component, of the cost 1/2 v'P v along ``rollout``."""
    U = ilqr.stage_controls(U, N, tab.s * prob.m)
    P = _cost_hessian(prob, tab, N)
    eps = 1e-6 * (1.0 + np.linalg.norm(U))
    g = np.zeros(U.size)
    for i, d in enumerate(eps * np.eye(U.size)):
        up, um = _point(prob, tab, N, U.ravel() + d), _point(prob, tab, N, U.ravel() - d)
        g[i] = (up @ P @ up - um @ P @ um) / (4 * eps)
    return g.reshape(U.shape)


def _dense_model(prob, tab, N: int, U):
    """The cost J_d at U, the null-space basis Z of the constraint Jacobian there, the cost Hessian P and gradient Y.

    With A = [A_U | A_z] the constraint Jacobian at the iterate of ``rollout``, z = (X, x_1..x_N), the tangent
    plane's directions are v = Z dU for Z = [I; -A_z^{-1} A_U], one dense solve, and Y = Z'P v.
    """
    v, nu = _point(prob, tab, N, U), np.size(U)
    A = _constraint_jacobian(prob, tab, N, v[nu:-N * prob.n], v[:nu])  # at the stage points (X, U)
    Z = np.vstack([np.eye(nu), -np.linalg.solve(A[:, nu:], A[:, :nu])])
    P = _cost_hessian(prob, tab, N)
    return 0.5 * float(v @ P @ v), Z, P, Z.T @ (P @ v)


def grad_exact(prob, tab, N: int, U) -> np.ndarray:
    """Exact cost gradient on the tangent plane of the constraints, shape (N, s*m)."""
    *_, Y = _dense_model(prob, tab, N, U)
    return Y.reshape(N, -1)


def quasi_newton(prob, tab, N: int, U) -> QuasiNewtonData:
    """Assemble the dense quadratic model (W, Y, C) at U and its minimizer step.

    W = Z'P Z, the cost Hessian on the tangent plane of ``grad_exact``'s
    model; Y is the gradient; the returned direction is -W^{-1} Y.  Small
    instances only.  OracleFailure when W is not numerically positive definite.
    """
    Jd, Z, P, Y = _dense_model(prob, tab, N, U)
    W = Z.T @ P @ Z
    W = 0.5 * (W + W.T)
    try:
        direction = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(W), Y)
    except scipy.linalg.LinAlgError:
        raise OracleFailure(f"metric W is not positive definite, h = {prob.tf / N!r}") from None
    return QuasiNewtonData(W=W, Y=Y, C=Jd, direction=direction)
