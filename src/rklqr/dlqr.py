"""Discrete LQR: feedback solve of an RK-discretized linear-quadratic problem.

Pipeline: assemble the per-step stage/transition operators, recurse the
quadratic value function backward for the feedback gains, then roll the
closed loop forward and recover node controls from the costates
p_k = M_k x_k via u = -R^{-1}(B'p + S'x).

A linear-quadratic problem is the ILQR case with one step, taken about the
zero trajectory, so ILQR uses the same iterate (``IterateState``, which a
DLQR solution ``DiscreteTrajectory`` extends), quadratic model
(``Linearization``), backward result (``AffineBackwardPass``), step-count
check (``check_steps``), step builder (``step_operators``), cost
(``discrete_cost``), closed-loop scan (``closed_loop``), affine recursions
(``affine_scan``, one LAPACK banded triangular solve) and backward pass
(``riccati_backward``: the Riccati ``value_sweep`` on the n-state, then one
reverse ``affine_scan`` driven by the model's first-order terms) from here.

Both get the Riccati matrices M_k from one ``riccati_scan`` toward the
terminal M_N, in N half-combines and fewer than N full ones, for every
input: where some stage Hessian Kc is indefinite, ``value_sweep`` first
shifts the stage blocks by a telescoping storage term 1/2 x'σI x, with σ
the largest eigenvalue of M_N.  The per-step loop of the same recursion
is ``sequential_sweep`` in ``tests/fixtures.py``, the scan's reference.
DLQR's step-invariant step (K = 1) is one shared element, which the scan
doubles; ILQR's N distinct tangent-plane steps (K = N) are N elements.  The
backward reads E, F, G and H step axis last, as ``step_operators`` builds
them, each per-step product one einsum; the scan stays stacked.  The
stage Hessians are factored once each by one batch-last ``cholesky``,
through which every later solve with them goes; DLQR, which makes none,
forms K only where Kc ≻ 0 and M_{k+1} ≻ 0 leave it unproved.  Implicit
stage couplings, ILQR's node-control Newton systems and the large batches
of the scan's combines and of the closed loop go through the batch-last
pivoted ``lu_solve``.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import BackwardFailure, RolloutDiverged, StepTooLarge
from .problem import LQProblem
from .tableau import ButcherTableau, _frozen


def check_steps(N):
    """ValueError unless the step count N is an int >= 1."""
    integral = isinstance(N, numbers.Integral) and not isinstance(N, bool)
    if not integral or N < 1:
        raise ValueError("N must be >= 1" if integral else f"N must be an int, not {N!r}")


@functools.lru_cache(maxsize=8)
def stage_cost_blocks(prob, tab: ButcherTableau, h: float):
    """Block-diagonal stage cost weights (Qh, Rh, Sh) = h kron(diag b, (Q, R, S)) of the tableau's b, read-only.

    Every problem carries S, zero when it has no cross term, so the three
    blocks are always arrays and the cost formulas take no branch.  The
    Kronecker products come from one broadcast product each: the same
    products as np.kron at about a tenth of its cost on these small blocks.
    Every rollout, linearization and backward of a solve reads the same
    blocks, so the last few are kept, keyed by problem, tableau and h.
    """
    d, s = np.diag(tab.b)[:, None, :, None], tab.s
    return tuple(_frozen(h * (d * W[:, None, :]).reshape(s * len(W), -1)) for W in (prob.Q, prob.R, prob.S))


def discrete_cost(prob, tab: ButcherTableau, U, X, x) -> float:
    """Discrete cost of stacked stage controls U, stage states X and node states x.

    The sum over steps of 1/2 X_k'QhX_k + X_k'ShU_k + 1/2 U_k'RhU_k plus
    1/2 x_N'M x_N.  The stacks need not satisfy the dynamics.
    """
    Qh, Rh, Sh = stage_cost_blocks(prob, tab, prob.tf / U.shape[0])
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
    live, a_live, rows = tab.step_plan
    Jx = np.ascontiguousarray(Jx.reshape(K, s, n, n).transpose(1, 2, 3, 0))  # (s, n, ·, K)
    Ju = np.ascontiguousarray(Ju.reshape(K, s, n, m).transpose(1, 2, 3, 0))
    # rows 0..s-1 are the stages' [E_i | F_i], row s is [G | H]
    EF = np.zeros((s + 1, n, width, K))
    EF[:, :, :n] = _identity(n)[:, :, None]
    for i, row in enumerate(rows):
        if i == s and a_live is not None:  # the live stages' rows hold their right-hand sides
            r = len(a_live)
            coupling = (h * a_live[:, None, :, None, None] * Jx[live].transpose(1, 0, 2, 3)).reshape(r * n, r * n, K)
            X, bad = lu_solve(_identity(r * n)[:, :, None] - coupling, EF[live].reshape(r * n, width, K))
            if bad.any():
                raise StepTooLarge("singular stage coupling", int(np.argmax(bad)), h)
            EF[live] = X.reshape(r, n, width, K)
        for j, a, kind in row:
            col = n if shared else n + j * m  # stage j's input columns
            if kind == 0:  # a zero-row stage j is [I | 0]
                EF[i, :, :n] += h * a * Jx[j]
            elif kind == 1:  # an implicit stage's live terms (kind 2) are in the coupling
                # an explicit [E_j | F_j] has no input columns of stage j or later yet, unless they are shared
                w = width if a_live is not None else col + m if shared else col
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
    """The cost's quadratic model at an iterate: step operators for K = N steps, or K = 1, and N steps' terms.

    To first order dX_k = E_k dx_k + F_k dU_k and dx_{k+1} = G_k dx_k + H_k dU_k:
    ILQR's tangent plane has K = N, ``assemble``'s linear step K = 1.  With
    (w_k, r_k) the running cost's gradients in X_k and U_k, Ew_k = E_k'w_k,
    l_k = r_k + F_k'w_k and the costates p_k = G_k'p_{k+1} + Ew_k from
    p_N = M x_N; the cost's gradient in U_k is l_k + H_k'p_{k+1}.
    """

    E: np.ndarray  # (K, s*n, n)
    F: np.ndarray  # (K, s*n, s*m)
    G: np.ndarray  # (K, n, n)
    H: np.ndarray  # (K, n, s*m)
    Ew: np.ndarray  # (N, n)
    l: np.ndarray  # (N, s*m)
    p: np.ndarray  # (N+1, n) node costates


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
    """N steps of the tableau as one step (K = 1), the zero trajectory's model, so its terms are zeros.

    The step comes from ``step_operators`` at the zero trajectory's s stage
    points.  Raises StepTooLarge when the stage coupling is singular (never for explicit tableaus).
    """
    check_steps(N)
    Jx, Ju = prob.stage_jacobians(np.zeros((tab.s, prob.n)), np.zeros((tab.s, prob.m)))
    return Linearization(*step_operators(Jx, Ju, tab, prob.tf / N), Ew=np.zeros((N, prob.n)),
                         l=np.zeros((N, tab.s * prob.m)), p=np.zeros((N + 1, prob.n)))


def lu_solve(A, R):
    """A^{-1} R for A (d, d, B) and R (d, r, B), batch axis last, and where A is singular; a batch of 1 broadcasts.

    Gaussian elimination with partial pivoting (Golub and Van Loan, Matrix
    Computations, §3.4) on a copy of [A | R]: column j brings up the row of
    largest |entry| on and below the diagonal, the first of equals, by one
    conditional swap per row below, skipped where no b swaps, then clears
    those rows with one expression over all B; back substitution takes one
    expression per row and term.  The copy is contiguous with the batch
    axis last whatever the strides of A and R, so every expression reads the
    batch at unit stride; the transposed views that callers pass would
    otherwise be read at a stride of d + r entries.  Returns X (d, r, B)
    and ``bad`` (B,), True at every b where a pivot is exactly zero, which
    is where LAPACK's getrf reports info > 0.  The X of a bad b is
    meaningless, and nothing warns about it.  A NaN pivot is not flagged
    and gives NaN.  A and R are only read.
    """
    d = A.shape[0]
    W = np.empty((d, d + R.shape[1], max(A.shape[-1], R.shape[-1])))  # [A | R], reduced in place
    W[:, :d], W[:, d:] = A, R
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d - 1):
            for i in range(j + 1, d):
                up = np.abs(W[i, j]) > np.abs(W[j, j])
                if up.any():
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
    return X, (W[:, :d].diagonal() == 0.0).any(axis=1)


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
    pivots = L.diagonal()  # (B, d), the square roots of the pivots
    return L, ~((pivots > 0) & (pivots < np.inf)).all(axis=1)


def _substitute(L, Y):
    """K^{-1} Y in place for Y (d, ..., B), batch axis last, through the factor L (d, d, B) of ``cholesky``; returns Y.

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

    It serves ``riccati_backward``'s feedforward U2 alone: the gains need
    no solve with K.  The step X += K^{-1}(rhs - K X) is in working
    precision, against the substitutions' rounding on large right-hand
    sides, such as ILQR's one Newton step on spring methodA N=25 meets,
    whose stage states reach 3e5.  rhs becomes the residual, one column's
    terms of K X subtracted at a time: on random 4x4 systems that refines as
    well as a stacked matmul at a third of its cost, where an einsum of K X
    subtracted at the end is a fifth less accurate.  The residual is then
    solved in place, as rhs has no later reader.
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
    negA = -A  # one negation, not one per column
    for q in range(n):
        blocks[:, q, top - q:top - q + n] = negA[:, :, q]
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
    X = _combine_solve(_identity(d) + Ci @ Jj, np.concatenate([Ai, Ci @ Aj.transpose(0, 2, 1)], axis=2))
    AX = Aj @ X
    return AX[..., :d], AX[..., d:] + Cj, X[..., :d].transpose(0, 2, 1) @ Jj @ Ai + Ji


def _half_combine(elem, T):
    """The J block of elem ∘ (0, 0, T), whose A and C blocks are zero: X'T A + J with X = (I + C T)^{-1} A."""
    A, C, J = elem
    return _combine_solve(_identity(T.shape[-1]) + C @ T, A).transpose(0, 2, 1) @ T @ A + J


@functools.lru_cache(maxsize=16)
def _identity(d):
    """The read-only d x d identity, made once per d rather than by np.eye in every combine."""
    return _frozen(np.eye(d))


def _combine_solve(A, R):
    """A^{-1} R for the stacks A (B, d, d) and R (B, d, r) of a combine; a batch of 1 on either side broadcasts.

    From B = 2^(d+5) systems on it is one batch-last ``lu_solve``, below
    that one batched ``np.linalg.solve``: numpy's per-call overhead makes
    the elimination's cost about fixed at small B, and LAPACK's grows with
    B.  From the threshold on, whole half and full combines are faster
    batch-last at every d from 2 to 6, and about even at d = 1 (the
    crossovers are in the README).  A system with a zero pivot comes out
    NaN, at either size: below the threshold the batch LAPACK rejects is
    solved again by ``lu_solve``, which flags it.
    """
    B, d = max(len(A), len(R)), A.shape[-1]
    if B < 32 << d:
        try:
            return np.linalg.solve(A, R)
        except np.linalg.LinAlgError:
            pass
    X, bad = lu_solve(A.transpose(1, 2, 0), R.transpose(1, 2, 0))
    X[..., bad] = np.nan
    return X.transpose(2, 0, 1)


def riccati_scan(elems, M):
    """Fill M[:-1] of M (N+1, n, n) in place: M_k = e_k ∘ … ∘ e_{N-1} ∘ (0, 0, M_N), from the terminal M[-1].

    ``elems`` holds the Riccati elements (A, C, J) of ``_riccati_combine``,
    all three stacked along a leading axis of N, or of 1 for an element
    that every step shares, which is never sliced, so never copied N times.
    Odd-even reduction toward the terminal: with o = N mod 2, the pairs e_{o+2i} ∘ e_{o+2i+1} give
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
    A, C, J = elems
    early, late, rest = [elems] * 3 if len(A) == 1 else [(A[i:N:2], C[i:N:2], J[i:N:2]) for i in (o, o + 1, 1 - o)]
    if N > 1:
        riccati_scan(_riccati_combine(early, late), M[o::2])
    M[1 - o:N:2] = _half_combine(rest, M[2 - o::2])


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


def value_sweep(E, F, G, H, Qh, Rh, Sh, M_N, N: int, h: float, need_factor=True):
    """Backward sweep of the quadratic value V_k(x) = 1/2 x'M_k x over step operators stacked step axis last.

    X_k = E_k x + F_k U and x_{k+1} = G_k x + H_k U, stage cost
    1/2 X'QhX + X'ShU + 1/2 U'RhU, with E (sn, n, K), F (sn, sm, K),
    G (n, n, K) and H (n, sm, K): the ``.transpose(1, 2, 0)`` views of a
    ``Linearization``.  A step axis of length 1 marks a step-invariant
    operator, broadcast to N without copying.  Returns M (N+1, n, n) from
    M_N and, step axis last, gains (sm, n, N) with U_k = gains_k x_k, the
    stage Hessians K_k = Kc_k + H_k'M_{k+1}H_k (sm, sm, N), their
    ``cholesky`` factor (sm, sm, N), which later solves with K reuse, and
    the closed loop G_k + H_k gains_k (n, n, N).  With ``need_factor`` False
    K and its factor are None where Kc ≻ 0 unshifted and M_{k+1} ≻ 0 prove K ≻ 0.

    Each per-step product is one einsum over the unit-stride step axis.  Kc
    and K are each factored once, by ``cholesky``, also the check that they
    are positive definite.  M comes from one ``riccati_scan`` of the
    Riccati elements (A, C, J) of ``_riccati_combine``, as (N, n, n) views,
    formed after the cross term is eliminated through Kc's factor.  The same
    elements give the closed loop (I + C_k M_{k+1})^{-1} A_k, one batched
    n x n ``_combine_solve``, and the gains -Kc^{-1}(Lc_k + H_k'M_{k+1} A_k)
    from the products with Kc^{-1} that built them: K_k's stationarity with
    the push-through identity, no solve with K, and a closed loop that does
    not cancel as G + H gains does.  det K_k = det Kc_k det(I + C_k M_{k+1}),
    so that solve is nonsingular once K passes.  Step-invariant operators
    give one shared element, which the scan doubles.

    One scan serves every input.  Where some Kc is not positive definite,
    every stage first takes the telescoping storage term
    1/2 x_{k+1}'Σx_{k+1} - 1/2 x_k'Σx_k (Willems, IEEE TAC 16, 1971), which
    leaves the feedback as it is: the blocks become Kc + H'ΣH, Lc + H'ΣG,
    Wc + G'ΣG - Σ and M_N - Σ, and M_k = M̃_k + Σ.  Σ = σI with
    σ = λ_max(M_N): then Kc + H'ΣH ⪰ K_{N-1}, so a step-invariant Kc shifted
    so fails only where K_{N-1} does (Finsler, Comment. Math. Helv. 9,
    1937, on definiteness on the null space of H).  A shifted Kc that still
    fails, and a singular combine, give NaN elements, which spoil only the
    M_k before them.  So BackwardFailure names, and carries, the largest k
    whose K_k fails, as its M_{k+1} comes from the steps after k only, and
    h, and an overflow as such.  The per-step loop of the same recursion is
    ``sequential_sweep`` in ``tests/fixtures.py``, the scan's reference.
    Each per-step stack is dropped after its last reader.
    """
    Kc, Lc, Wc = _stage_products(E, F, Qh, Rh, Sh)
    factor, bad = cholesky(Kc)
    n, sigma, shifted = G.shape[0], 0.0, bad.any()
    if shifted:  # the storage term 1/2 x'Σx, Σ = σI
        sigma = float(np.linalg.eigvalsh(M_N)[-1])
        Kc = Kc + sigma * np.einsum("aik,ajk->ijk", H, H)
        Lc = Lc + sigma * np.einsum("aik,ajk->ijk", H, G)
        Wc = Wc + sigma * (np.einsum("aik,ajk->ijk", G, G) - np.eye(n)[:, :, None])
        M_N = M_N - sigma * np.eye(n)
        factor, bad = cholesky(Kc)
        factor[..., bad] = np.nan  # its elements, and the M_k before it, come out NaN
    # solved in place: the stack has no other reader
    KiL, KiH = _substitute(factor, np.stack([Lc, H.transpose(1, 0, 2)], axis=1)).transpose(1, 0, 2, 3)
    del factor
    A, C = G - np.einsum("iak,ajk->ijk", H, KiL), np.einsum("iak,ajk->ijk", H, KiH)
    J = Wc - np.einsum("aik,ajk->ijk", Lc, KiL)
    del Wc, Lc
    M = np.empty((N + 1, n, n))
    M[N] = M_N
    riccati_scan((A.transpose(2, 0, 1), C.transpose(2, 0, 1), J.transpose(2, 0, 1)), M)
    del J
    M = 0.5 * (M + M.transpose(0, 2, 1))
    Mt = np.ascontiguousarray(M[1:].transpose(1, 2, 0))
    K = factor = None
    if need_factor or shifted or cholesky(Mt)[1].any():  # else Kc ≻ 0 and every M_{k+1} ≻ 0 make K ≻ 0
        K = np.einsum("iak,ajk->ijk", np.einsum("aik,ajk->ijk", H, Mt), H)
        K += Kc
        factor, bad = cholesky(K)
        if bad.any():
            k = int(np.flatnonzero(bad)[-1])
            raise _hessian_failure(k, h, K, *_stage_products(E, F, Qh, Rh, Sh), G, H)
    del Kc
    CM = np.einsum("iak,ajk->ijk", C, Mt)
    CM += _identity(n)[:, :, None]
    A = _combine_solve(CM.transpose(2, 0, 1), A.transpose(2, 0, 1)).transpose(1, 2, 0)
    gains = np.einsum("iak,ajk->ijk", KiH, np.einsum("iak,ajk->ijk", Mt, A))
    gains += KiL
    if sigma:
        M += sigma * np.eye(n)
    return M, -gains, K, factor, A


def _hessian_failure(k, h, *stacks):
    """BackwardFailure at step k; an overflow where the stacks (K and its products, step axis last) are not finite."""
    finite = all(np.isfinite(a[..., min(k, a.shape[-1] - 1)]).all() for a in stacks)  # a step axis of 1 is shared
    return BackwardFailure("stage Hessian not positive definite" if finite else
                           "stage operators or Hessian not finite", k, h)


def riccati_backward(prob: LQProblem, tab: ButcherTableau, steps: Linearization) -> AffineBackwardPass:
    """Feedback dU_k = U1_k dx_k + U2_k minimizing the quadratic model ``steps`` over N = len(steps.l) steps.

    The one backward of DLQR (``assemble``'s K = 1 step, about the zero
    trajectory) and ILQR (a K = N tangent plane, about the iterate).
    ``value_sweep`` gives M, the gains U1, the stage Hessians K, K's
    factor and the closed loop A_k = G_k + H_k U1_k on the n-state.  The
    model's value gradient along A is one reverse ``affine_scan`` of
    v_k = A_k'v_{k+1} + Ew_k + U1_k'l_k from v_N = p_N, and
    U2_k = -K_k^{-1}(l_k + H_k'v_{k+1}) is one solve through K's factor,
    refined once against K.  Where Ew, l and p_N are all zero, as about
    DLQR's zero trajectory, none of this is formed, U2 is zero and
    ``value_sweep`` needs no factor.  The cost gradient
    g_k = l_k + H_k'p_{k+1} could drive it instead, but g carries the
    rounding of the costates p, which unstable steps grow far past the step
    itself; v stays near M_k x_k.  It reads the operators through their
    step-last ``.transpose(1, 2, 0)`` views, each per-step product one
    einsum (K = 1 broadcasts); U1 and A come back as (N, ·, ·) views.
    """
    N = len(steps.l)
    h = prob.tf / N
    E, F, G, H = (a.transpose(1, 2, 0) for a in (steps.E, steps.F, steps.G, steps.H))
    terms = steps.Ew.any() or steps.l.any() or steps.p[-1].any()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails as a non-finite stage Hessian
        M, U1, K, factor, A = value_sweep(E, F, G, H, *stage_cost_blocks(prob, tab, h), prob.M, N, h, terms)
    U1, A = U1.transpose(2, 0, 1), A.transpose(2, 0, 1)
    if not terms:
        return AffineBackwardPass(M=M, U1=U1, U2=np.zeros(steps.l.shape), A=A)
    lu = np.ascontiguousarray(steps.l.T)  # (sm, N), as every operand here
    c = steps.Ew.T + np.einsum("kai,ak->ik", U1, lu)
    v = affine_scan(A.transpose(0, 2, 1), c.T, steps.p[-1], reverse=True)
    lu = lu + np.einsum("aik,ak->ik", H, np.ascontiguousarray(v[1:].T))  # not in place: lu may be the model's l
    U2 = -_refined_solve(K, factor, lu[:, None])[:, 0].T
    return AffineBackwardPass(M=M, U1=U1, U2=U2, A=A)


def closed_loop(steps: Linearization, bp: AffineBackwardPass, x0):
    """Node states x (N+1, n) and stage controls U = U1 x + U2 (N, s*m) of the feedback from x0.

    One ``affine_scan`` of x_{k+1} = A_k x_k + H_k U2_k, with the closed loop
    A_k = G_k + H_k U1_k that ``value_sweep`` formed; K = 1 steps
    broadcast.  An all-zero U2, as DLQR's, is neither multiplied nor added.
    """
    feedforward = bp.U2.any()
    c = (steps.H @ bp.U2[:, :, None])[..., 0] if feedforward else np.zeros((len(bp.U2), len(x0)))
    x = affine_scan(bp.A, c, x0)
    U = (bp.U1 @ x[:-1, :, None])[..., 0]
    return x, U + bp.U2 if feedforward else U


def rollout(prob: LQProblem, tab: ButcherTableau, steps: Linearization, bp: AffineBackwardPass) -> DiscreteTrajectory:
    """Roll the feedback forward from x0 over ``assemble``'s step; recover stage and node quantities and price them.

    Each stacked product is one pass: p = M x one einsum, the node controls
    u = -R^{-1}(B'p + S'x) one product with R's inverse, and every stack is
    formed under one ``errstate``.  Raises RolloutDiverged naming the first
    step k whose U_k, X_k, x_{k+1}, p_{k+1} or u_{k+1}, or at k = 0 p_0 or
    u_0, is not finite; else at step 0 where the cost Jd is not finite or
    differs from the value 1/2 x_0'p_0 by more than 1e-6 |Jd|.  The two are
    equal at the optimum, and their rounding gap stays below 2.6e-10 |Jd|
    wherever h < 5 on the builtin problems (measured in the README).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises RolloutDiverged below
        x, U = closed_loop(steps, bp, prob.x0)
        X = x[:-1] @ steps.E[0].T + U @ steps.F[0].T
        p = np.einsum("kij,kj->ki", bp.M, x)
        u = -(p @ prob.B + x @ prob.S) @ np.linalg.inv(prob.R).T  # the closed form of stationarity
        Jd, value = discrete_cost(prob, tab, U, X, x), 0.5 * prob.x0 @ p[0]
    h = prob.tf / len(U)
    if not all(np.isfinite(a).all() for a in (U, X, x, p, u)):  # one flat pass each; a failure finds its step
        bad = ~np.isfinite(np.hstack([x, p, u])).all(axis=1)  # node j >= 1 comes out of step j - 1
        bad[1:] |= ~np.isfinite(np.hstack([U, X])).all(axis=1)
        raise RolloutDiverged("closed loop not finite", max(int(np.argmax(bad)) - 1, 0), h)
    if not (np.isfinite(Jd) and abs(Jd - value) <= 1e-6 * abs(Jd)):
        raise RolloutDiverged("cost contradicts the value function" if np.isfinite(Jd) else "cost not finite", 0, h)
    return DiscreteTrajectory(U=U, X=X, x=x, Jd=Jd, h=h, p=p, u=u)


def solve(prob: LQProblem, tab: ButcherTableau, N: int):
    """Full pipeline; returns (steps, backward pass, trajectory)."""
    steps = assemble(prob, tab, N)
    bp = riccati_backward(prob, tab, steps)
    return steps, bp, rollout(prob, tab, steps, bp)
