"""Discrete LQR: feedback solve of an RK-discretized linear-quadratic problem.

Pipeline: assemble the per-step stage/transition operators, recurse the
quadratic value function backward for the feedback gains, then roll the
closed loop forward and recover node controls from the costates
p_k = M_k x_k via u = -R^{-1}(B'p + S'x).

A linear-quadratic problem is the ILQR case with constant Jacobians and zero
offsets, so ILQR calls the same step builder (``step_operators``), discrete
cost (``discrete_cost``), closed-form node controls (``node_controls``),
scans and backward kernel (``value_sweep``) from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RiccatiFailure, StepTooLarge
from .problem import LQProblem, cross_term
from .tableau import ButcherTableau


def stage_cost_blocks(prob, b: np.ndarray, h: float):
    """Block-diagonal stage cost weights (Qh, Rh, Sh), scaled by h b_i.

    Sh is None when the problem has no cross term, so the plain formulas
    apply without extra zero products.
    """
    d = np.diag(b)
    Qh = h * np.kron(d, prob.Q)
    Rh = h * np.kron(d, prob.R)
    S = cross_term(prob)
    Sh = None if S is None else h * np.kron(d, S)
    return Qh, Rh, Sh


def discrete_cost(prob, tab: ButcherTableau, U, X, x) -> float:
    """Discrete cost of stacked stage controls U, stage states X and node states x.

    The sum over steps of 1/2 X_k'QhX_k + X_k'ShU_k + 1/2 U_k'RhU_k plus
    1/2 x_N'M x_N.  The stacks need not satisfy the dynamics.
    """
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, prob.tf / U.shape[0])
    total = 0.5 * np.sum((X @ Qh) * X) + 0.5 * np.sum((U @ Rh) * U)
    if Sh is not None:
        total += np.sum((X @ Sh) * U)
    xN = x[-1]
    return float(total) + float(0.5 * xN @ prob.M @ xN)


def step_operators(Jx, Ju, tab: ButcherTableau, h: float):
    """Step operators E, F, G, H of K steps from the stage Jacobians of f.

    ``Jx`` (K, n, s, n) and ``Ju`` (K, n, s, m) hold the Jacobians at the s
    stage points of each step, row index first: ``Jx[k, :, j]`` is jac_x at
    stage j.  To first order X_k = E x_k + F U_k and
    x_{k+1} = G x_k + H U_k, with the stage coupling I - A1, A1 = h a ⊗ Jx:
    E = (I - A1)^{-1} Z, F = (I - A1)^{-1} (h a ⊗ Ju), G = I + (h b ⊗ Jx) E
    and H = (h b ⊗ Jx) F + h b ⊗ Ju.  Raises StepTooLarge naming the first
    step whose coupling is singular.
    """
    K, n, s, _ = Jx.shape
    m = Ju.shape[-1]
    # (k, stage row i, row r, stage col j, col c) blocks h a_ij J[k, r, j, c]
    ha = (h * tab.a)[:, None, :, None]
    hb = (h * tab.b)[:, None]
    coupling = np.eye(s * n) - (ha * Jx[:, None]).reshape(K, s * n, s * n)
    A2 = (ha * Ju[:, None]).reshape(K, s * n, s * m)
    B = (hb * Jx).reshape(K, n, s * n)
    C = (hb * Ju).reshape(K, n, s * m)
    Z = np.broadcast_to(np.tile(np.eye(n), (s, 1)), (K, s * n, n))
    try:
        EF = np.linalg.solve(coupling, np.concatenate([Z, A2], axis=2))
    except np.linalg.LinAlgError:
        k = next((j for j in range(K) if factor_fails(np.linalg.inv, coupling[j])), None)
        raise StepTooLarge(f"singular stage coupling at step {k}, h = {h!r}", h=h) from None
    E, F = EF[:, :, :n], EF[:, :, n:]
    return E, F, np.eye(n) + B @ E, B @ F + C


@dataclass(frozen=True)
class DiscreteLQSystem:
    """Step-invariant operators of the discretized linear problem.

    X_k = E x_k + F U_k and x_{k+1} = G x_k + H U_k, with stage cost blocks
    Qh, Rh and optional cross block Sh.
    """

    prob: LQProblem
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


def assemble(prob: LQProblem, tab: ButcherTableau, N: int) -> DiscreteLQSystem:
    """Build the step operators for N steps of the given tableau.

    ``step_operators`` with the constant Jacobians A and B broadcast to one
    step without copying; raises StepTooLarge when the stage-coupling matrix
    is singular (never happens for explicit tableaus).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n, m, s = prob.n, prob.m, tab.s
    h = prob.tf / N
    Jx = np.broadcast_to(prob.A[None, :, None], (1, n, s, n))
    Ju = np.broadcast_to(prob.B[None, :, None], (1, n, s, m))
    E, F, G, H = (op[0] for op in step_operators(Jx, Ju, tab, h))
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, h)
    return DiscreteLQSystem(prob=prob, N=N, h=h, E=E, F=F, G=G, H=H, Qh=Qh, Rh=Rh, Sh=Sh)


def factor_fails(factor, mat) -> bool:
    """Whether ``factor`` raises LinAlgError on ``mat`` or leaves a non-finite entry.

    numpy's Cholesky passes NaN through without raising.
    """
    try:
        return not np.isfinite(factor(mat)).all()
    except np.linalg.LinAlgError:
        return True


def suffix_scan(elems, combine):
    """Suffix products S_k = e_k ∘ e_{k+1} ∘ … ∘ e_{L-1} of L stacked elements.

    ``elems`` is a tuple of arrays stacked along a leading axis of length L;
    ``combine(earlier, later)`` is associative and works on such tuples in
    batch.  Odd-even reduction: combine neighbour pairs, recurse on the L/2
    pairs, then fill the odd slots with one more batched combine.  That is
    about 2L element products in 2 log2(L) calls of ``combine``.
    """
    L = elems[0].shape[0]
    if L == 1:
        return elems
    half = L // 2
    pairs = combine(tuple(e[0:2 * half:2] for e in elems), tuple(e[1:2 * half:2] for e in elems))
    if L % 2:
        pairs = tuple(np.concatenate([p, e[-1:]]) for p, e in zip(pairs, elems))
    tails = suffix_scan(pairs, combine)
    del pairs
    out = tuple(np.empty(e.shape) for e in elems)
    for o, t in zip(out, tails):
        o[0::2] = t
    # an odd slot 2i+1 below the last is e_{2i+1} ∘ S_{2i+2}
    inner = len(tails[0]) - 1
    if inner:
        filled = combine(tuple(e[1:2 * inner:2] for e in elems), tuple(t[1:] for t in tails))
        for o, f in zip(out, filled):
            o[1:2 * inner:2] = f
    if L % 2 == 0:
        for o, e in zip(out, elems):
            o[-1] = e[-1]
    return out


def _compose_affine(earlier, later):
    """The affine map v -> A_e (A_l v + c_l) + c_e: ``later`` applies first."""
    Ae, ce = earlier
    Al, cl = later
    return Ae @ Al, (Ae @ cl[..., None])[..., 0] + ce


def affine_scan(A, c, v, reverse=False):
    """Every iterate of v_{k+1} = A_k v_k + c_k from v_0 = v, shape (L+1, n).

    With ``reverse`` the recursion runs backward instead, v_k = A_k v_{k+1} + c_k
    from v_L = v.  The start value enters as the constant map (0, v), so each
    suffix composition of the maps is the constant map of one iterate.
    """
    L, n = c.shape
    if not reverse:
        A, c = A[::-1], c[::-1]
    A = np.concatenate([A, np.zeros((1, n, n))])
    c = np.concatenate([c, np.reshape(v, (1, n))])
    out = suffix_scan((A, c), _compose_affine)[1]
    return out if reverse else out[::-1]


def _riccati_combine(earlier, later):
    """Join the value-function elements (A, C, J) of two adjacent step ranges.

    Särkkä and García-Fernández, "Temporal parallelization of dynamic
    programming and linear quadratic control", IEEE TAC 2023, with the
    offsets b and eta zero: X = (I + C_i J_j)^{-1} [A_i, C_i A_j'].
    """
    Ai, Ci, Ji = earlier
    Aj, Cj, Jj = later
    d = Ai.shape[-1]
    rhs = np.concatenate([Ai, Ci @ np.swapaxes(Aj, 1, 2)], axis=2)
    X = np.linalg.solve(np.eye(d) + Ci @ Jj, rhs)
    XA, XC = X[..., :d], X[..., d:]
    return Aj @ XA, Aj @ XC + Cj, np.swapaxes(XA, 1, 2) @ Jj @ Ai + Ji


def _stage_products(E, F, Qh, Rh, Sh):
    """Stage Hessian Kc, cross block Lc and state block Wc of the stage cost in (z, U)."""
    Ft = np.swapaxes(F, 1, 2)
    FtQ = Ft @ Qh
    Kc = FtQ @ F + Rh
    Lc = FtQ @ E
    if Sh is not None:
        FtS = Ft @ Sh
        Kc = Kc + FtS + np.swapaxes(FtS, 1, 2)
        Lc = Lc + Sh.T @ E
    Wc = np.swapaxes(E, 1, 2) @ Qh @ E
    return Kc, Lc, Wc


def value_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, failure):
    """Backward sweep of V_k(z) = 1/2 z'P_k z over stacked step operators.

    X_k = E_k z + F_k U and z_{k+1} = G_k z + H_k U, stage cost
    1/2 X'QhX + X'ShU + 1/2 U'RhU.  A leading axis of length 1 marks a
    step-invariant operator, broadcast to N without copying.  Returns P
    (N+1, d, d) from P_N = M_N and gains (N, sm, d) with U_k = gains_k z_k.

    P comes from the Riccati scan (``_riccati_combine``) after the cross
    term is eliminated with Kc^{-1}; the gains then follow in one batch.
    The scan needs every Kc positive definite.  Where one is not, or the
    scan breaks down, ``sequential_sweep`` runs instead.  The stage
    Hessians are checked positive definite; ``failure`` names the first
    bad step in sweep order (largest k).
    """
    Kc, Lc, Wc = _stage_products(E, F, Qh, Rh, Sh)
    if factor_fails(np.linalg.cholesky, Kc):
        return sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N, failure)
    d = G.shape[-1]
    Ht = np.swapaxes(H, 1, 2)
    KiL, KiH = np.split(np.linalg.solve(Kc, np.concatenate([Lc, Ht], axis=2)), 2, axis=2)
    elems = (G - H @ KiL, H @ KiH, Wc - np.swapaxes(Lc, 1, 2) @ KiL)
    elems = tuple(np.concatenate([np.broadcast_to(e, (N, d, d)), np.broadcast_to(t, (1, d, d))])
                  for e, t in zip(elems, (0.0, 0.0, M_N)))
    try:
        P = suffix_scan(elems, _riccati_combine)[2]
    except np.linalg.LinAlgError:
        P = None
    if P is None or not np.isfinite(P).all():
        return sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N, failure)
    P = 0.5 * (P + np.swapaxes(P, 1, 2))
    HP = Ht @ P[1:]
    K = Kc + HP @ H
    if factor_fails(np.linalg.cholesky, K):
        raise _first_failure(K, failure)
    return P, -np.linalg.solve(K, Lc + HP @ G)


def _first_failure(K, failure, start=0):
    """``failure`` naming the largest k >= start whose stage Hessian K[k] is not positive definite."""
    k = next((j for j in range(len(K) - 1, start - 1, -1) if factor_fails(np.linalg.cholesky, K[j])), None)
    return failure(f"stage Hessian not positive definite at step {k}")


def sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, failure):
    """``value_sweep`` as a loop of N steps: the reference, and the fallback where the scan cannot run."""
    Kc, Lc, Wc = (np.broadcast_to(a, (N,) + a.shape[1:]) for a in _stage_products(E, F, Qh, Rh, Sh))
    G, H = (np.broadcast_to(a, (N,) + a.shape[1:]) for a in (G, H))
    Gt, Ht = np.swapaxes(G, 1, 2), np.swapaxes(H, 1, 2)
    d, sm = G.shape[-1], F.shape[-1]
    P = np.empty((N + 1, d, d))
    P[N] = M_N
    gains = np.empty((N, sm, d))
    K = np.empty((N, sm, sm))
    for k in range(N - 1, -1, -1):
        HP = Ht[k] @ P[k + 1]
        K[k] = Kc[k] + HP @ H[k]
        lin = Lc[k] + HP @ G[k]
        try:
            sol = np.linalg.solve(K[k], lin)
        except np.linalg.LinAlgError:
            raise _first_failure(K, failure, k) from None
        Pk = Wc[k] + Gt[k] @ P[k + 1] @ G[k] - lin.T @ sol
        P[k] = 0.5 * (Pk + Pk.T)
        gains[k] = -sol
    if factor_fails(np.linalg.cholesky, K):
        raise _first_failure(K, failure)
    return P, gains


def riccati_backward(sys: DiscreteLQSystem) -> RiccatiPass:
    """Backward value-function recursion from M_N = M down to M_0, collecting gains.

    The step-invariant, zero-offset case of ``value_sweep``.
    """
    M, L = value_sweep(sys.E[None], sys.F[None], sys.G[None], sys.H[None],
                       sys.Qh, sys.Rh, sys.Sh, sys.prob.M, sys.N, RiccatiFailure)
    return RiccatiPass(M=M, L=L)


def rollout(sys: DiscreteLQSystem, riccati: RiccatiPass, x0=None) -> DiscreteTrajectory:
    """Roll the feedback law forward and recover stage and node quantities."""
    prob = sys.prob
    n, N = prob.n, sys.N
    x0 = prob.x0 if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    closed = sys.G + sys.H @ riccati.L  # x_{k+1} = (G + H L_k) x_k
    x = affine_scan(closed, np.zeros((N, n)), x0)
    U = (riccati.L @ x[:-1, :, None])[..., 0]
    X = x[:-1] @ sys.E.T + U @ sys.F.T
    p = (riccati.M @ x[..., None])[..., 0]
    u = node_controls(prob, x, p, prob.B)
    return DiscreteTrajectory(x=x, X=X, U=U, p=p, u=u, h=sys.h)


def node_controls(prob, x: np.ndarray, p: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Node controls u_k = -R^{-1}(B_k'p_k + S'x_k) for every node 0..N.

    The closed form of the stationarity equation for control-affine
    dynamics.  ``B`` is one input matrix (n, m) shared by every node, or a
    stack (N+1, n, m) with one per node.
    """
    rhs = (p[:, None, :] @ B)[:, 0]
    S = cross_term(prob)
    if S is not None:
        rhs = rhs + x @ S
    return -np.linalg.solve(prob.R, rhs.T).T


def solve(prob: LQProblem, tab: ButcherTableau, N: int):
    """Full pipeline; returns (system, riccati pass, trajectory)."""
    sys = assemble(prob, tab, N)
    rp = riccati_backward(sys)
    return sys, rp, rollout(sys, rp)
