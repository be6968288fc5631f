"""Discrete LQR: feedback solve of an RK-discretized linear-quadratic problem.

Pipeline: assemble the per-step stage/transition operators, recurse the
quadratic value function backward for the feedback gains, then roll the
closed loop forward and recover node controls from the costates
p_k = M_k x_k via u = -R^{-1}(B'p + S'x).

A linear-quadratic problem is the ILQR case with one step, taken about the
zero trajectory, so ILQR uses the same iterate (``IterateState``, which a
DLQR solution ``DiscreteTrajectory`` extends), step type (``Linearization``),
backward result (``AffineBackwardPass``), step-count check
(``check_steps``), step builder (``step_operators``), cost and its gradients
(``discrete_cost``, ``cost_gradients``), closed-loop scan (``closed_loop``),
affine recursions (``affine_scan``, one LAPACK banded triangular solve) and
backward pass (``riccati_backward``: the Riccati ``value_sweep`` on the
n-state, then one reverse ``affine_scan``) from here.

Both get the Riccati matrices M_k from one ``riccati_scan`` toward the
terminal M_N, in N half-combines and fewer than N full ones.  DLQR's
step-invariant step (K = 1) is one shared element, which the scan doubles;
ILQR's N distinct tangent-plane steps (K = N) are N elements.  The
backward reads E, F, G and H step axis last, as ``step_operators`` builds
them, each per-step product one einsum; the scan stays stacked.  The
stage Hessians are factored once each by one batch-last ``cholesky``,
through which every later solve with them goes.  Implicit stage
couplings, ILQR's node-control Newton systems and the scan's large
combines go through the batch-last pivoted ``lu_solve``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import BackwardFailure, StepTooLarge
from .problem import LQProblem
from .tableau import ButcherTableau


def check_steps(N):
    """ValueError unless the step count N is an int >= 1."""
    integral = isinstance(N, numbers.Integral) and not isinstance(N, bool)
    if not integral or N < 1:
        raise ValueError("N must be >= 1" if integral else f"N must be an int, not {N!r}")


def stage_cost_blocks(prob, b: np.ndarray, h: float):
    """Block-diagonal stage cost weights (Qh, Rh, Sh) = h kron(diag b, (Q, R, S)).

    Every problem carries S, zero when it has no cross term, so the three
    blocks are always arrays and the cost formulas take no branch.  The
    Kronecker products come from one broadcast product each: the same
    products as np.kron at about a tenth of its cost on these small blocks,
    which every rollout and gradient of a solve builds.
    """
    d, s = np.diag(b)[:, None, :, None], len(b)
    return tuple(h * (d * W[:, None, :]).reshape(s * W.shape[0], s * W.shape[1])
                 for W in (prob.Q, prob.R, prob.S))


def discrete_cost(prob, tab: ButcherTableau, U, X, x) -> float:
    """Discrete cost of stacked stage controls U, stage states X and node states x.

    The sum over steps of 1/2 X_k'QhX_k + X_k'ShU_k + 1/2 U_k'RhU_k plus
    1/2 x_N'M x_N.  The stacks need not satisfy the dynamics.
    """
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, prob.tf / U.shape[0])
    total = 0.5 * np.sum((X @ Qh) * X) + 0.5 * np.sum((U @ Rh) * U) + np.sum((X @ Sh) * U)
    xN = x[-1]
    return float(total) + float(0.5 * xN @ prob.M @ xN)


def step_operators(Jx, Ju, tab: ButcherTableau, h: float, shared=False):
    """Step operators E, F, G, H of K steps from the stage Jacobians of f.

    ``Jx`` (K·s, n, n) and ``Ju`` (K·s, n, m) hold the Jacobians at the K·s
    stage points as ``stage_jacobians`` returns them, ``Jx[k·s + j]`` at
    stage j of step k.  To first order X_k = E x_k + F U_k and
    x_{k+1} = G x_k + H U_k, with the stage coupling I - A1, A1 = h a ⊗ Jx:
    E = (I - A1)^{-1} Z, F = (I - A1)^{-1} (h a ⊗ Ju), G = I + (h b ⊗ Jx) E
    and H = (h b ⊗ Jx) F + h b ⊗ Ju.  U_k holds one m-column input per
    stage, so F and H have s·m columns.  With ``shared`` every stage reads
    the same m-column input instead, ``Ju[k·s + j]`` being stage j's
    columns of it, and F and H have m columns: the sum over the stages of
    the per-stage ones.

    It runs with the step axis last, so each product is one expression over
    vectors of length K rather than K tiny matrix products.  Stage i's row
    [E_i | F_i] is [I | 0] + sum_j h a_ij (Jx_j [E_j | F_j] + Ju_j in the
    input columns of stage j) over ``tab.nonzero_rows``, and [G | H] is the
    same sum with b_j for a_ij.  A zero-row stage is x_k, [I | 0] exactly,
    so its terms are h a_ij Jx_j with no product.  An explicit tableau makes
    the coupling unit lower triangular, so the stage rows come by forward
    substitution.  An implicit one moves the terms of the stages whose row
    of a is nonzero (the live ones) to the left: their coupling
    δ_ij I - h a_ij Jx_j is solved by one ``lu_solve``, which raises
    StepTooLarge naming (and carrying) the first step whose coupling is
    singular.
    """
    s, (P, n, m) = tab.s, Ju.shape
    K = P // s
    width = n + (m if shared else s * m)  # columns of [E | F]
    Jx, Ju = (np.ascontiguousarray(J.reshape(K, s, *J.shape[1:]).transpose(1, 2, 3, 0)) for J in (Jx, Ju))  # (s, n, ·, K)
    implicit = not tab.is_explicit
    live = [i for i, row in enumerate(tab.nonzero_rows) if row]
    # rows 0..s-1 are the stages' [E_i | F_i], row s is [G | H]
    rows = tab.nonzero_rows + ([(j, b) for j, b in enumerate(tab.b) if b],)
    EF = np.zeros((s + 1, n, width, K))
    EF[:, :, :n] = np.eye(n)[:, :, None]
    for i, row in enumerate(rows):
        if implicit and i == s:  # the live stages' rows hold their right-hand sides
            r = len(live)
            ha = h * tab.a[live][:, live]
            coupling = (ha[:, None, :, None, None] * Jx[live].transpose(1, 0, 2, 3)).reshape(r * n, r * n, K)
            X, bad = lu_solve(np.eye(r * n)[:, :, None] - coupling, EF[live].reshape(r * n, width, K))
            if bad.any():
                raise StepTooLarge("singular stage coupling", int(np.argmax(bad)), h)
            EF[live] = X.reshape(r, n, width, K)
        for j, a in row:
            col = n if shared else n + j * m  # stage j's input columns
            if not tab.nonzero_rows[j]:  # a zero-row stage j is [I | 0]
                EF[i, :, :n] += h * a * Jx[j]
            elif i == s or not implicit:  # an implicit stage's live terms are in the coupling
                # an explicit [E_j | F_j] has no input columns of stage j or
                # later yet, unless they are the shared ones
                w = width if implicit else col + m if shared else col
                term = np.einsum("ijk,jlk->ilk", Jx[j], EF[j, :, :w])
                term *= h * a  # in place: one (n, w, K) temporary per term, not two
                EF[i, :, :w] += term
                del term  # before the next term is formed
            EF[i, :, col:col + m] += h * a * Ju[j]
    GH = EF[s].transpose(2, 0, 1)
    EF = EF[:s].reshape(s * n, width, K).transpose(2, 0, 1)
    return EF[:, :, :n], EF[:, :, n:], GH[:, :, :n], GH[:, :, n:]


@dataclass(frozen=True, eq=False)
class Linearization:
    """Step operators stacked along a leading axis of K = N steps, or K = 1 for a step-invariant grid.

    To first order the changes of the stage and node states are
    dX_k = E_k dx_k + F_k dU_k and dx_{k+1} = G_k dx_k + H_k dU_k.  ILQR's
    tangent plane has K = N; ``assemble``'s linear step K = 1, where they hold exactly.
    """

    E: np.ndarray  # (K, s*n, n)
    F: np.ndarray  # (K, s*n, s*m)
    G: np.ndarray  # (K, n, n)
    H: np.ndarray  # (K, n, s*m)


@dataclass(frozen=True, eq=False)
class AffineBackwardPass:
    """Value Hessians M_k, affine feedback U1_k x + U2_k and closed loop A_k, stacked over steps."""

    M: np.ndarray  # (N+1, n, n)
    U1: np.ndarray  # (N, s*m, n) feedback gains
    U2: np.ndarray  # (N, s*m) feedforward terms
    A: np.ndarray  # (N, n, n) closed loop G_k + H_k U1_k


@dataclass(frozen=True, eq=False)
class IterateState:
    """A point on the feasible manifold: controls, stage states, node states, and its discrete cost."""

    U: np.ndarray  # (N, s*m) internal-stage controls
    X: np.ndarray  # (N, s*n) internal-stage states
    x: np.ndarray  # (N+1, n) node states
    Jd: float
    h: float

    @property
    def N(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory(IterateState):
    """A solution: the iterate plus its node costates and node controls."""

    p: np.ndarray  # (N+1, n) node costates
    u: np.ndarray  # (N+1, m) node controls


def assemble(prob: LQProblem, tab: ButcherTableau, N: int) -> Linearization:
    """N steps of the tableau as one step (K = 1), from ``step_operators`` at the zero trajectory's s stage points.

    Raises StepTooLarge when the stage coupling is singular (never for explicit tableaus).
    """
    check_steps(N)
    Jx, Ju = prob.stage_jacobians(np.zeros((tab.s, prob.n)), np.zeros((tab.s, prob.m)))
    return Linearization(*step_operators(Jx, Ju, tab, prob.tf / N))


def lu_solve(A, R):
    """A^{-1} R for A (d, d, B) and R (d, r, B), batch axis last, and where A is singular.

    Gaussian elimination with partial pivoting (Golub and Van Loan, Matrix
    Computations, §3.4) on a copy of [A | R]: column j brings up the row of
    largest |entry| on and below the diagonal, the first of equals, by one
    conditional swap per row below, then clears those rows with one
    expression over all B; back substitution takes one expression per row
    and term.  The copy is contiguous with the batch axis last whatever the
    strides of A and R, so every expression reads the batch at unit
    stride; the transposed views that callers pass would otherwise be read
    at a stride of d + r entries.  Returns X (d, r, B) and ``bad`` (B,),
    True at every b where a pivot is exactly zero, which is where LAPACK's
    getrf reports info > 0.  The X of a bad b is meaningless, and nothing
    warns about it.  A NaN pivot is not flagged and gives NaN.  A and R are
    only read.
    """
    d = A.shape[0]
    W = np.empty((d, d + R.shape[1], A.shape[-1]))  # [A | R], reduced in place
    W[:, :d], W[:, d:] = A, R
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d - 1):
            for i in range(j + 1, d):
                up = np.abs(W[i, j]) > np.abs(W[j, j])
                row = W[j, j:].copy()
                np.copyto(W[j, j:], W[i, j:], where=up)
                np.copyto(W[i, j:], row, where=up)
            W[j + 1:, j + 1:] -= (W[j + 1:, j] / W[j, j])[:, None] * W[j, j + 1:]
        X = W[:, d:]
        for i in range(d - 1, -1, -1):
            for k in range(i + 1, d):
                X[i] -= W[i, k] * X[k]
            X[i] /= W[i, i]
    # a pivot is never written after its column is done, so the diagonal holds them all
    return X, (np.diagonal(W[:, :d]) == 0.0).any(axis=1)


def cholesky(K):
    """Batch-last Cholesky factors of the symmetric stack K (d, d, B), and where K is not positive definite.

    Returns L (d, d, B), lower triangular with K_b = L_b L_b' read from K's
    lower triangle, and ``bad`` (B,), True at every b whose pivot is not
    finite and positive, NaN included.  No pivoting: positive definite
    matrices need none.  Column j is K's column less one product per
    earlier column, each one expression over all B, so tiny matrices cost
    numpy's per-call overhead about d^2 / 2 times rather than B times.  A
    bad pivot leaves the rest of its factor meaningless, and nothing warns;
    b is flagged once every column is done, from L's diagonal.
    """
    d = K.shape[0]
    L = np.zeros(K.shape)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for j in range(d):
            col = L[j:, j]  # column j on and below the diagonal, formed in place
            col[...] = K[j:, j]
            for k in range(j):
                col -= L[j:, k] * L[j, k]
            np.sqrt(col[0], out=col[0])
            col[1:] /= col[0]
    pivots = np.diagonal(L)  # (B, d), the square roots of the pivots
    return L, ~((pivots > 0) & (pivots < np.inf)).all(axis=1)


def _substitute(L, Y):
    """K^{-1} Y in place for Y (d, r, B), batch axis last, through the factor L (d, d, B) of ``cholesky``; returns Y.

    Forward then back substitution, one expression per row and term over
    the batch axis.  For a right-hand side that its caller reads no more.
    """
    d = L.shape[0]
    for i in range(d):
        for k in range(i):
            Y[i] -= L[i, k] * Y[k]
        Y[i] /= L[i, i]
    for i in range(d - 1, -1, -1):
        for k in range(i + 1, d):
            Y[i] -= L[k, i] * Y[k]
        Y[i] /= L[i, i]
    return Y


def _refined_solve(K, L, rhs):
    """K^{-1} rhs through the factor L of K, then one step of iterative refinement against K; all batch-last.

    The step X += K^{-1}(rhs - K X) is in working precision.  Without it the
    substitutions' rounding shows: ILQR's one Newton step on spring methodA
    N=25, whose stage states reach 3e5, then misses DLQR's optimum by
    1.4e-10, against 6e-11 with it and with LU.  rhs becomes the residual,
    one column's terms of K X subtracted at a time: on random 4x4 systems
    that refines as well as a stacked matmul at a third of its cost, where
    an einsum of K X subtracted at the end is a fifth less accurate.  The
    residual is then solved in place, as rhs has no later reader.
    """
    X = _substitute(L, rhs.copy())
    for a in range(len(L)):
        rhs -= K[:, a, None] * X[a]
    X += _substitute(L, rhs)
    return X


def affine_scan(A, c, v, reverse=False):
    """Every iterate of v_{k+1} = A_k v_k + c_k from v_0 = v, shape (L+1, n).

    With ``reverse`` the recursion runs backward instead, v_k = A_k v_{k+1} + c_k
    from v_L = v.  Either way it is one unit-triangular block-bidiagonal
    system in [v_0; …; v_L], with -A_k at block (k+1, k), or (k, k+1) in
    reverse, so LAPACK's banded solve ``dtbtrs`` (bandwidth 2n-1) does it by
    substitution.  The band is built column-major, 2n entries per column, so
    it reaches LAPACK uncopied.  Non-finite input comes out non-finite.
    """
    L, n = c.shape
    band = np.zeros((L + 1, n, 2 * n))  # [column block, column, band row]
    blocks = band[1:] if reverse else band[:L]  # column block of -A_k
    top = n - 1 if reverse else n  # band row of A_k[0, 0]; A_k[i, q] sits at top - q + i
    for q in range(n):
        blocks[:, q, top - q:top - q + n] = -A[:, :, q]
    ends = (c, np.reshape(v, (1, n))) if reverse else (np.reshape(v, (1, n)), c)
    out, info = dtbtrs(band.reshape(-1, 2 * n).T, np.concatenate(ends).reshape(-1, 1),
                       uplo="U" if reverse else "L", diag="U", overwrite_b=True)
    if info:
        raise ValueError(f"dtbtrs rejected argument {-info}")
    return out.reshape(L + 1, n)


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
    X = _combine_solve(np.eye(d) + Ci @ Jj, rhs)
    XA, XC = X[..., :d], X[..., d:]
    return Aj @ XA, Aj @ XC + Cj, np.swapaxes(XA, 1, 2) @ Jj @ Ai + Ji


def _half_combine(elem, T):
    """The J block of elem ∘ (0, 0, T), whose A and C blocks are zero: X'T A + J with X = (I + C T)^{-1} A."""
    A, C, J = elem
    X = _combine_solve(np.eye(T.shape[-1]) + C @ T, A)
    return np.swapaxes(X, 1, 2) @ T @ A + J


def _combine_solve(A, R):
    """A^{-1} R for the stacks A (B, d, d) and R (B, d, r) of a combine; a batch of 1 on either side broadcasts.

    From B = 2^(d+5) systems on it is one batch-last ``lu_solve``, below
    that one batched ``np.linalg.solve``: numpy's per-call overhead makes
    the elimination's cost about fixed at small B, and LAPACK's grows with
    B.  From the threshold on, whole half and full combines are faster
    batch-last at every d from 2 to 6, and about even at d = 1 (the
    crossovers are in the README).  A zero pivot raises LinAlgError, as
    LAPACK's solve does.
    """
    B, d = max(len(A), len(R)), A.shape[-1]
    if B < 32 << d:
        return np.linalg.solve(A, R)
    X, bad = lu_solve(*(np.broadcast_to(a, (B,) + a.shape[1:]).transpose(1, 2, 0) for a in (A, R)))
    if bad.any():
        raise np.linalg.LinAlgError("singular combine")
    return X.transpose(2, 0, 1)


def riccati_scan(elems, M):
    """Fill M[:-1] of M (N+1, n, n) in place: M_k = e_k ∘ … ∘ e_{N-1} ∘ (0, 0, M_N), from the terminal M[-1].

    ``elems`` holds the Riccati elements (A, C, J) of ``_riccati_combine``,
    each stacked along a leading axis of N, or of 1 for an element that
    every step shares: only arrays with a step axis are sliced, so a shared
    element is never copied N times.  Odd-even reduction toward the
    terminal: with o = N mod 2, the pairs e_{o+2i} ∘ e_{o+2i+1} give
    M_o, M_{o+2}, ... by the same scan on M[o::2], which ends in M_N; one
    batched ``_half_combine`` then fills every other M,
    M_k = e_k ∘ M_{k+1} for k = 1-o, 3-o, ..., N-1, M_0 of an odd N
    included.  Every suffix ends in the terminal, so only its J block is
    formed: N half-combines, one call a level, and fewer than N full ones,
    in about 2 log2(N) calls.  A shared element pairs with itself, which is
    doubling (Anderson, Int. J. Control 28, 1978): every full combine then
    acts on one element.
    """
    N = len(M) - 1
    o = N % 2

    def take(start):
        return tuple(e if len(e) == 1 else e[start:N:2] for e in elems)

    if N > 1:
        riccati_scan(_riccati_combine(take(o), take(o + 1)), M[o::2])
    M[1 - o:N:2] = _half_combine(take(1 - o), M[2 - o::2])


def _stage_products(E, F, Qh, Rh, Sh):
    """Stage Hessian Kc, cross block Lc and state block Wc of the stage cost in (z, U), step axis last.

    E (sn, n, K) and F (sn, sm, K) give Kc = F'QhF + F'Sh + Sh'F + Rh
    (sm, sm, K), Lc = F'QhE + Sh'E (sm, n, K) and Wc = E'QhE (n, n, K).  A
    product with a constant block is one matrix product over all K steps,
    a per-step one an einsum over the unit-stride step axis.
    """
    def const(W, V):  # W'V for every step
        return (W.T @ V.reshape(len(W), -1)).reshape(W.shape[1], *V.shape[1:])

    Wc = np.einsum("aik,ajk->ijk", E, const(Qh, E))
    Y = const(Qh, F)
    Y += Sh[:, :, None]  # QhF + Sh
    Kc = np.einsum("aik,ajk->ijk", F, Y)
    Kc += const(Sh, F)
    Kc += Rh[:, :, None]
    return Kc, np.einsum("aik,ajk->ijk", Y, E), Wc


def value_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, h: float):
    """Backward sweep of the quadratic value V_k(x) = 1/2 x'M_k x over step operators stacked step axis last.

    X_k = E_k x + F_k U and x_{k+1} = G_k x + H_k U, stage cost
    1/2 X'QhX + X'ShU + 1/2 U'RhU, with E (sn, n, K), F (sn, sm, K),
    G (n, n, K) and H (n, sm, K): the ``.transpose(1, 2, 0)`` views of a
    ``Linearization``.  A step axis of length 1 marks a step-invariant
    operator, broadcast to N without copying.  Returns M (N+1, n, n) from
    M_N and, step axis last, gains (sm, n, N) with U_k = gains_k x_k, the
    stage Hessians K_k = Kc_k + H_k'M_{k+1}H_k (sm, sm, N) and their
    ``cholesky`` factor (sm, sm, N), which later solves with K reuse.

    Each per-step product is one einsum over the unit-stride step axis but
    the refinement residual's (``_refined_solve``).  Kc and K are each
    factored once, by ``cholesky``, also the check that they are positive
    definite.  M comes from one ``riccati_scan`` of the Riccati elements
    (A, C, J) of ``_riccati_combine``, as (N, n, n) views, formed after the
    cross term is eliminated through Kc's factor; the gains then follow in
    one batch through K's, refined once against K.  Step-invariant
    operators give one shared element, which the scan doubles.  The scan
    needs every Kc positive definite.  Where one is not, or the scan breaks
    down (LinAlgError or a non-finite M), ``sequential_sweep`` runs
    instead.  Where a K is not, BackwardFailure names, and carries, the
    first bad step in sweep order (largest k) and the step size h, and an
    overflow as such.  Each per-step stack is dropped after its last reader.
    """
    Kc, Lc, Wc = _stage_products(E, F, Qh, Rh, Sh)
    factor, bad = cholesky(Kc)
    if bad.any():
        return sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N, h)
    n = G.shape[0]
    # solved in place: the concatenation has no other reader
    KiL, KiH = np.split(_substitute(factor, np.concatenate([Lc, H.transpose(1, 0, 2)], axis=1)), 2, axis=1)
    del factor
    elems = (G - np.einsum("iak,ajk->ijk", H, KiL), np.einsum("iak,ajk->ijk", H, KiH),
             Wc - np.einsum("aik,ajk->ijk", Lc, KiL))
    del KiL, KiH, Wc
    elems = tuple(e.transpose(2, 0, 1) for e in elems)
    M = np.empty((N + 1, n, n))
    M[N] = M_N
    try:
        riccati_scan(elems, M)
    except np.linalg.LinAlgError:
        M = None
    del elems
    if M is None or not np.isfinite(M).all():
        return sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N, h)
    M = 0.5 * (M + np.swapaxes(M, 1, 2))
    HM = np.einsum("aik,ajk->ijk", H, np.ascontiguousarray(M[1:].transpose(1, 2, 0)))
    K = np.einsum("iak,ajk->ijk", HM, H)
    K += Kc
    rhs = np.einsum("iak,ajk->ijk", HM, G)
    rhs += Lc
    del Kc, Lc, HM
    factor, bad = cholesky(K)
    if bad.any():
        raise _hessian_failure(int(np.flatnonzero(bad)[-1]), h, K)
    return M, -_refined_solve(K, factor, rhs), K, factor


def _hessian_failure(k, h, *stacks):
    """BackwardFailure at step k; an overflow where the stacks (K and its products, step axis last) are not finite."""
    finite = all(np.isfinite(a[..., k]).all() for a in stacks)
    return BackwardFailure("stage Hessian not positive definite" if finite else
                           "stage operators or Hessian not finite", k, h)


def sequential_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, h: float):
    """``value_sweep`` as a loop of N steps: the reference, and the fallback where the scan cannot run.

    It takes and returns the same layouts.  Each K_k is checked by
    ``cholesky`` as the loop reaches it, and its factor kept for the
    caller; the loop's own solves stay LU, so it stays an independent
    reference for the scan.
    """
    Kc, Lc, Wc, G, H = (np.broadcast_to(a, a.shape[:2] + (N,))
                        for a in (*_stage_products(E, F, Qh, Rh, Sh), G, H))
    n, sm = G.shape[0], F.shape[1]
    M = np.empty((N + 1, n, n))
    M[N] = M_N
    gains, K, factor = np.empty((sm, n, N)), np.empty((sm, sm, N)), np.empty((sm, sm, N))
    for k in range(N - 1, -1, -1):
        Gk, Hk = G[..., k], H[..., k]
        HM = Hk.T @ M[k + 1]
        K[..., k] = Kc[..., k] + HM @ Hk
        Lk, bad = cholesky(K[..., k:k + 1])
        if bad[0]:
            raise _hessian_failure(k, h, K, Lc, Wc, G, H)
        factor[..., k:k + 1] = Lk
        lin = Lc[..., k] + HM @ Gk
        sol = np.linalg.solve(K[..., k], lin)
        Mk = Wc[..., k] + Gk.T @ M[k + 1] @ Gk - lin.T @ sol
        M[k] = 0.5 * (Mk + Mk.T)
        gains[..., k] = -sol
    return M, gains, K, factor


def cost_gradients(Qh, Rh, Sh, U, X):
    """Gradients (w, r) of the running cost 1/2 X'QhX + X'ShU + 1/2 U'RhU in the stage states X and controls U."""
    return X @ Qh + U @ Sh.T, U @ Rh + X @ Sh


def riccati_backward(prob: LQProblem, tab: ButcherTableau, steps: Linearization, U, X, xN) -> AffineBackwardPass:
    """Feedback dU_k = U1_k dx_k + U2_k minimizing the cost's quadratic model about (U, X, x_N), N = len(U).

    The one backward of DLQR (``assemble``'s K = 1 step, about the zero
    trajectory) and ILQR (a K = N tangent plane, about the iterate), in the
    changes dX_k = E_k dx_k + F_k dU_k and dx_{k+1} = G_k dx_k + H_k dU_k.
    ``value_sweep`` gives M, the gains U1, the stage Hessians K and K's
    factor on the n-state.  The linear terms are the ``cost_gradients``
    (w, r) at (U, X) and M x_N; with l_k = r_k + F_k'w_k, the model's value
    gradient along the closed loop A_k = G_k + H_k U1_k is one reverse
    ``affine_scan`` of v_k = A_k'v_{k+1} + E_k'w_k + U1_k'l_k from
    v_N = M x_N, and U2_k = -K_k^{-1}(l_k + H_k'v_{k+1}) is one solve through
    K's factor, refined once against K.  About the zero point, DLQR's, all
    of these are exact zeros, so none is formed and U2 is zero.  The cost
    gradient g_k = l_k + H_k'p_{k+1} could drive it instead, but g carries
    the rounding of the costates p, which unstable steps grow far past the
    step itself; v stays near M_k x_k.  It reads the operators through
    their step-last ``.transpose(1, 2, 0)`` views, each per-step product
    one einsum (K = 1 broadcasts); U1 and A come back as (N, ·, ·) views.
    """
    N = len(U)
    h = prob.tf / N
    Qh, Rh, Sh = stage_cost_blocks(prob, tab.b, h)
    E, F, G, H = (a.transpose(1, 2, 0) for a in (steps.E, steps.F, steps.G, steps.H))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails as a non-finite stage Hessian
        M, U1, K, factor = value_sweep(E, F, G, H, Qh, Rh, Sh, prob.M, N, h)
    A = np.einsum("iak,ajk->ijk", H, U1)
    A += G
    U1, A = U1.transpose(2, 0, 1), A.transpose(2, 0, 1)
    if not (U.any() or X.any() or xN.any()):
        return AffineBackwardPass(M=M, U1=U1, U2=np.zeros(U.shape), A=A)
    w, r = cost_gradients(Qh, Rh, Sh, U, X)
    w = np.ascontiguousarray(w.T)  # (sn, N), as every operand here
    lu = r.T + np.einsum("aik,ak->ik", F, w)
    c = np.einsum("aik,ak->ik", E, w) + np.einsum("kai,ak->ik", U1, lu)
    del w, r  # read by nothing past c
    v = affine_scan(np.swapaxes(A, 1, 2), c.T, prob.M @ xN, reverse=True)
    lu += np.einsum("aik,ak->ik", H, np.ascontiguousarray(v[1:].T))
    U2 = -_refined_solve(K, factor, lu[:, None])[:, 0].T
    return AffineBackwardPass(M=M, U1=U1, U2=U2, A=A)


def closed_loop(steps: Linearization, bp: AffineBackwardPass, x0):
    """Node states x (N+1, n) and stage controls U = U1 x + U2 (N, s*m) of the feedback from x0.

    One ``affine_scan`` of x_{k+1} = A_k x_k + H_k U2_k, with the closed loop
    A_k = G_k + H_k U1_k that ``riccati_backward`` formed; K = 1 steps
    broadcast.  An all-zero U2, as DLQR's, is neither multiplied nor added.
    """
    feedforward = bp.U2.any()
    c = (steps.H @ bp.U2[:, :, None])[..., 0] if feedforward else np.zeros((len(bp.U2), len(x0)))
    x = affine_scan(bp.A, c, x0)
    U = (bp.U1 @ x[:-1, :, None])[..., 0]
    return x, U + bp.U2 if feedforward else U


def rollout(prob: LQProblem, tab: ButcherTableau, steps: Linearization, bp: AffineBackwardPass) -> DiscreteTrajectory:
    """Roll the feedback forward from x0 over ``assemble``'s step; recover stage and node quantities and price them."""
    x, U = closed_loop(steps, bp, prob.x0)
    X = x[:-1] @ steps.E[0].T + U @ steps.F[0].T
    p = (bp.M @ x[..., None])[..., 0]
    u = -np.linalg.solve(prob.R, (p @ prob.B + x @ prob.S).T).T  # the closed form of stationarity
    return DiscreteTrajectory(U=U, X=X, x=x, Jd=discrete_cost(prob, tab, U, X, x), h=prob.tf / len(U), p=p, u=u)


def solve(prob: LQProblem, tab: ButcherTableau, N: int):
    """Full pipeline; returns (steps, backward pass, trajectory)."""
    steps = assemble(prob, tab, N)
    zero = np.zeros((N, tab.s * prob.m)), np.zeros((N, tab.s * prob.n)), np.zeros(prob.n)  # U, X and x_N
    bp = riccati_backward(prob, tab, steps, *zero)
    return steps, bp, rollout(prob, tab, steps, bp)
