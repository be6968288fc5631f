"""Discrete LQR: feedback solve of an RK-discretized linear-quadratic problem.

Pipeline: assemble the per-step stage/transition operators, recurse the
quadratic value function backward for the feedback gains, then roll the
closed loop forward and recover node controls from the costates
p_k = M_k x_k via u = -R^{-1}(B'p + S'x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RiccatiFailure, StepTooLarge
from .problem import LQProblem
from .tableau import ButcherTableau


def stage_cost_blocks(prob, b: np.ndarray, h: float):
    """Block-diagonal stage cost weights (Qh, Rh, Sh), scaled by h b_i.

    Sh is None when the problem has no cross term, so the plain formulas
    apply without extra zero products.
    """
    d = np.diag(b)
    Qh = h * np.kron(d, prob.Q)
    Rh = h * np.kron(d, prob.R)
    S = getattr(prob, "S", None)
    Sh = h * np.kron(d, S) if S is not None and np.any(S) else None
    return Qh, Rh, Sh


@dataclass(frozen=True)
class DiscreteLQSystem:
    """Step-invariant operators of the discretized linear problem.

    X_k = E x_k + F U_k and x_{k+1} = G x_k + H U_k, with stage cost blocks
    Qh, Rh and optional cross block Sh.
    """

    prob: LQProblem
    tab: ButcherTableau
    N: int
    h: float
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Qh: np.ndarray
    Rh: np.ndarray
    Sh: np.ndarray


@dataclass(frozen=True)
class RiccatiPass:
    """Value-function matrices M_k and feedback gains L_k, stacked over steps."""

    M: np.ndarray  # (N+1, n, n)
    L: np.ndarray  # (N, s*m, n)


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Closed-loop solution: node states/costates/controls and stage stacks."""

    x: np.ndarray  # (N+1, n) node states
    X: np.ndarray  # (N, s*n) internal-stage state stacks
    U: np.ndarray  # (N, s*m) internal-stage control stacks
    p: np.ndarray  # (N+1, n) node costates
    u: np.ndarray  # (N+1, m) node controls
    h: float

    @property
    def times(self):
        return self.h * np.arange(self.x.shape[0])


def assemble(prob: LQProblem, tab: ButcherTableau, N: int) -> DiscreteLQSystem:
    """Build the step operators for N steps of the given tableau.

    E = (I - hA(x)a)^{-1} Z blocks etc.; raises StepTooLarge when the
    stage-coupling matrix is singular (never happens for explicit tableaus).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    Z = np.tile(np.eye(n), (s, 1))
    coupling = np.eye(s * n) - h * np.kron(tab.a, prob.A)
    rhs = np.hstack([Z, h * np.kron(tab.a, prob.B)])
    try:
        EF = np.linalg.solve(coupling, rhs)
    except np.linalg.LinAlgError:
        raise StepTooLarge(f"singular stage coupling at h = {h!r}", h=h) from None
    E, F = EF[:, :n], EF[:, n:]
    bA = h * np.kron(tab.b[None, :], prob.A)  # (n, s*n) row of weighted A blocks
    bB = h * np.kron(tab.b[None, :], prob.B)
    G = np.eye(n) + bA @ E
    H = bA @ F + bB
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, h)
    return DiscreteLQSystem(prob=prob, tab=tab, N=N, h=h, E=E, F=F, G=G, H=H, Qh=Qh, Rh=Rh, Sh=Sh)


def factor_fails(factor, mat) -> bool:
    """Whether ``factor`` raises LinAlgError on ``mat`` or leaves a non-finite entry.

    numpy's Cholesky passes NaN through without raising.
    """
    try:
        return not np.isfinite(factor(mat)).all()
    except np.linalg.LinAlgError:
        return True


def value_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, failure):
    """Backward sweep of V_k(z) = 1/2 z'P_k z over stacked step operators.

    X_k = E_k z + F_k U and z_{k+1} = G_k z + H_k U, stage cost
    1/2 X'QhX + X'ShU + 1/2 U'RhU.  A leading axis of length 1 marks a
    step-invariant operator, broadcast to N without copying.  Returns P
    (N+1, d, d) from P_N = M_N and gains (N, sm, d) with U_k = gains_k z_k.
    The stage Hessians are checked positive definite after the sweep;
    ``failure`` names the first bad step in sweep order (largest k).
    """
    Ft = np.swapaxes(F, 1, 2)
    FtQ = Ft @ Qh
    Kc = FtQ @ F + Rh
    Lc = FtQ @ E
    if Sh is not None:
        FtS = Ft @ Sh
        Kc = Kc + FtS + np.swapaxes(FtS, 1, 2)
        Lc = Lc + Sh.T @ E
    Wc = np.swapaxes(E, 1, 2) @ Qh @ E
    Kc, Lc, Wc, G, H = (np.broadcast_to(a, (N,) + a.shape[1:]) for a in (Kc, Lc, Wc, G, H))
    Gt, Ht = np.swapaxes(G, 1, 2), np.swapaxes(H, 1, 2)
    d, sm = G.shape[-1], F.shape[-1]
    P = np.empty((N + 1, d, d))
    P[N] = M_N
    gains = np.empty((N, sm, d))
    K = np.empty((N, sm, sm))

    def failed(start):
        k = next((j for j in range(N - 1, start - 1, -1) if factor_fails(np.linalg.cholesky, K[j])), None)
        return failure(f"stage Hessian not positive definite at step {k}")

    for k in range(N - 1, -1, -1):
        HP = Ht[k] @ P[k + 1]
        K[k] = Kc[k] + HP @ H[k]
        lin = Lc[k] + HP @ G[k]
        try:
            sol = np.linalg.solve(K[k], lin)
        except np.linalg.LinAlgError:
            raise failed(k) from None
        Pk = Wc[k] + Gt[k] @ P[k + 1] @ G[k] - lin.T @ sol
        P[k] = 0.5 * (Pk + Pk.T)
        gains[k] = -sol
    if factor_fails(np.linalg.cholesky, K):
        raise failed(0)
    return P, gains


def riccati_backward(sys: DiscreteLQSystem, prob: LQProblem = None) -> RiccatiPass:
    """Backward value-function recursion from M_N = M down to M_0, collecting gains.

    The step-invariant, zero-offset case of ``value_sweep``.
    """
    prob = sys.prob if prob is None else prob
    M, L = value_sweep(sys.E[None], sys.F[None], sys.G[None], sys.H[None],
                       sys.Qh, sys.Rh, sys.Sh, prob.M, sys.N, RiccatiFailure)
    return RiccatiPass(M=M, L=L)


def rollout(sys: DiscreteLQSystem, riccati: RiccatiPass, x0=None) -> DiscreteTrajectory:
    """Roll the feedback law forward and recover stage and node quantities."""
    prob = sys.prob
    n, N = prob.n, sys.N
    x0 = prob.x0 if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    closed = sys.G + sys.H @ riccati.L  # x_{k+1} = (G + H L_k) x_k
    x = np.empty((N + 1, n))
    x[0] = x0
    for k in range(N):
        x[k + 1] = closed[k] @ x[k]
    U = (riccati.L @ x[:-1, :, None])[..., 0]
    X = x[:-1] @ sys.E.T + U @ sys.F.T
    p = (riccati.M @ x[..., None])[..., 0]
    u = node_controls(prob, x, p)
    return DiscreteTrajectory(x=x, X=X, U=U, p=p, u=u, h=sys.h)


def node_controls(prob: LQProblem, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Node controls u_k = -R^{-1}(B'p_k + S'x_k) for every node 0..N."""
    rhs = p @ prob.B
    S = getattr(prob, "S", None)
    if S is not None and np.any(S):
        rhs = rhs + x @ S
    return -np.linalg.solve(prob.R, rhs.T).T


def solve(prob: LQProblem, tab: ButcherTableau, N: int):
    """Full pipeline; returns (system, riccati pass, trajectory)."""
    sys = assemble(prob, tab, N)
    rp = riccati_backward(sys)
    return sys, rp, rollout(sys, rp)


def running_cost(Qh, Rh, Sh, X, U) -> float:
    """Sum over steps of 1/2 X_k'QhX_k + X_k'ShU_k + 1/2 U_k'RhU_k for stacked X, U."""
    total = 0.5 * np.sum((X @ Qh) * X) + 0.5 * np.sum((U @ Rh) * U)
    if Sh is not None:
        total += np.sum((X @ Sh) * U)
    return float(total)


def discrete_cost(sys: DiscreteLQSystem, traj: DiscreteTrajectory) -> float:
    """Direct evaluation of the discrete cost along a trajectory."""
    xN = traj.x[-1]
    return running_cost(sys.Qh, sys.Rh, sys.Sh, traj.X, traj.U) + float(0.5 * xN @ sys.prob.M @ xN)
