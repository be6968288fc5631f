"""Iterative LQR for RK-discretized nonlinear quadratic problems.

Each iteration linearizes the discrete stage/transition equations at the
current iterate, minimizes the cost's quadratic model on that tangent plane
by a backward value recursion plus a forward sweep of the changes, and
backtracks along the feasible curve U + alpha dU: by the Armijo test on the
cost while its change is above rounding, by the approximate Wolfe
conditions on the slope once it is not.  The search direction equals
-W(U)^{-1} J_d'(U), so the loop is a quasi-Newton method.  It stops on the
stage-scaled gradient max |g_ki| / (h b_i), which means the same at every
step size h.

Each iterate's quadratic model comes from one ``linearize``, which the
gradient, the backward pass and the node costates read: the discrete adjoint
p_k = E_k'w_k + G_k'p_{k+1} from p_N = M x_N, by Hager's equivalence the
costates of the symplectic partitioned RK method.  The node controls solve
the stationarity equation Ju'p + Ru + S'x = 0 by batched Newton.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dlqr import (AffineBackwardPass, IterateState, Linearization, affine_scan, check_steps, closed_loop,
                   discrete_cost, lu_solve, stage_cost_blocks, step_operators)
from .dlqr import riccati_backward as backward  # the feedback minimizing the quasi-Newton model
from .errors import LineSearchFailed, NodeControlFailure, NotConverged, RolloutDiverged, StepTooLarge

# solve's stopping rule when the caller names none; cli.solve_problem and `rklqr solve` default to it too
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
ROLLOUT_TOL = 1e-12
ROLLOUT_MAXIT = 12  # sweeps a step may stay the first one unsettled
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
ARMIJO_C1 = 1e-4
MIN_ALPHA = 2.0**-30
# Near the optimum a step changes Jd by less than its rounding error, so the
# Armijo test would accept or reject a good step by luck.  A trial whose Jd is
# within COST_FLOOR |Jd| of the iterate's is judged by its slope instead, by the
# approximate Wolfe conditions of Hager and Zhang (SIAM J. Optim. 16, 2005).
COST_FLOOR = 1e-10
WOLFE_DELTA = 0.1
WOLFE_SIGMA = 0.9


@dataclass(frozen=True)
class IterateRecord:
    """One accepted iteration of solve(): cost after the step plus diagnostics."""

    iteration: int
    Jd: float
    grad_inf_norm: float  # stage-scaled gradient max |g_ki| / (h b_i) before the step, as tested against tol
    step_norm: float
    alpha: float
    slope: float  # directional derivative J_d'(U)' dU, negative for descent


def stage_controls(U, N: int, sm: int) -> np.ndarray:
    """U as (N, s·m); ValueError unless N is an int >= 1 and U has N·s·m entries, all finite."""
    return _stage_stack(U, N, sm, "U", "s·m", "stage controls")


def _stage_stack(V, N: int, width: int, name: str, cols: str, what: str) -> np.ndarray:
    """V as (N, width); ValueError naming ``name`` unless N is an int >= 1 and V has N·width entries, all finite."""
    check_steps(N)
    V = np.asarray(V, dtype=float)
    got = f"{V.size} entries" if V.size != N * width else None if np.isfinite(V).all() else "a non-finite entry"
    if got:
        raise ValueError(f"{name} must hold N·{cols} = {N * width} finite {what}, "
                         f"shape (N, {cols}) = ({N}, {width}); got {got}")
    return V.reshape(N, width)


def rollout(prob, tab, N: int, U, X=None) -> IterateState:
    """Integrate the discrete dynamics under stage controls U and price them.

    Newton on the stage and node equations of all N steps at once, from the
    stage states X (N, s*n), or from every state at x0 without them; ``solve``
    passes X0 to its first rollout, and the line search starts each trial
    from the tangent-plane prediction of
    ``direction``.  The steps settle in causal order: step k counts as
    settled once no stage state of it moves by more than
    ROLLOUT_TOL (1 + max |X_j| over j <= k), and a settled prefix 0..k-1 is
    frozen, so each later sweep runs on the steps k..N-1 only.  A sweep
    linearizes f at their stage states and passes Jx and the offsets
    f - Jx X (K·s, n, 1) to ``step_operators``, the offsets as one input
    column shared by all stages, which returns [E | e] and [G | g] of width
    n+1: the node states are one ``affine_scan(G, g, x_k)`` from the frozen
    x_k, and the stage states X' = E x + e.  A zero row of a gives E = I and
    e = 0, so the stage is x_k.  The sweeps stop when every step has
    settled.  RolloutDiverged names and carries the first unsettled step and
    h once it has been first for ROLLOUT_MAXIT sweeps, once a state is not
    finite, or once an iterate makes the stage coupling of a step singular.
    """
    n, m, s = prob.n, prob.m, tab.s
    U = stage_controls(U, N, s * m)
    h = prob.tf / N
    U_points = U.reshape(N * s, m)  # one control per stage point
    start = np.tile(prob.x0, s) if X is None else np.reshape(X, (N, s * n))
    X = np.empty((N, s * n))
    X[:] = start
    x = np.empty((N + 1, n))
    x[0] = prob.x0
    # steps frozen, max |X| over them, sweeps with the same first unsettled step
    first, floor, stalled = 0, 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging iterate raises RolloutDiverged
        while True:
            K = N - first
            Xw, Uw = X[first:].reshape(K * s, n), U_points[first * s:]
            Jx = prob.stage_jacobians(Xw, Uw)[0]
            offsets = prob.f(Xw, Uw) - np.einsum("pij,pj->pi", Jx, Xw)
            try:
                E, e, G, g = step_operators(Jx, offsets[:, :, None], tab, h, shared=True)
            except StepTooLarge as exc:
                raise RolloutDiverged("singular stage coupling", first + exc.step, h) from None
            del Jx, offsets  # each sweep's stacks go before the next sweep builds its own
            xw = affine_scan(G, g[..., 0], x[first])
            del G, g
            new = np.einsum("kij,kj->ki", E, xw[:-1]) + e[..., 0]
            del E, e
            # each step's largest move, then its max |X|; column-major order lets numpy reduce across all rows
            # at once, about ten times faster than a row-major max on (2000, 6)
            both = np.asfortranarray(np.abs(np.concatenate([new - X[first:], new]))).max(axis=1)
            X[first:], x[first + 1:] = new, xw[1:]
            moved, level = both[:K], np.maximum(floor, np.maximum.accumulate(both[K:]))
            still = ~(moved <= ROLLOUT_TOL * (1.0 + level))  # a NaN move is unsettled too
            if not still.any():
                return IterateState(U=U, X=X, x=x, Jd=discrete_cost(prob, tab, U, X, x), h=h)
            j = int(np.argmax(still))
            stalled = 1 if j else stalled + 1
            if stalled == ROLLOUT_MAXIT or not np.isfinite(moved).all():
                raise RolloutDiverged("stage equations unsolved", first + j, h)
            if j:
                first, floor = first + j, level[j - 1]


def linearize(prob, tab, state: IterateState) -> Linearization:
    """The iterate's quadratic model: step operators from one ``stage_jacobians`` call, first-order terms, costates.

    The running cost's gradients w = Qh X + Sh U and r = Rh U + Sh'X are
    formed here only.  Ew and l are one einsum each over the step-last views,
    as ``backward`` reads them, and p one reverse ``affine_scan``.  Raises
    RolloutDiverged at the largest k whose p_k is not finite, as the scan
    through steps past an explicit tableau's stability bound makes it.
    """
    Jx, Ju = prob.stage_jacobians(state.X.reshape(-1, prob.n), state.U.reshape(-1, prob.m))
    E, F, G, H = step_operators(Jx, Ju, tab, state.h)
    Qh, Rh, Sh = stage_cost_blocks(prob, tab, state.h)
    w = np.ascontiguousarray((state.X @ Qh + state.U @ Sh.T).T)  # (sn, N)
    Ew = np.einsum("aik,ak->ik", E.transpose(1, 2, 0), w).T
    l = (state.U @ Rh + state.X @ Sh).T + np.einsum("aik,ak->ik", F.transpose(1, 2, 0), w)
    p = affine_scan(G.transpose(0, 2, 1), Ew, prob.M @ state.x[-1], reverse=True)
    if not np.isfinite(p).all():
        raise RolloutDiverged("costates not finite", int(np.flatnonzero(~np.isfinite(p).all(axis=1))[-1]), state.h)
    return Linearization(E, F, G, H, Ew=Ew, l=l.T, p=p)


def direction(state: IterateState, bp: AffineBackwardPass, steps: Linearization):
    """Forward sweep of the affine feedback from dx_0 = 0 (``closed_loop``); returns (dU, dX).

    dU = U1 dx + U2 moves the controls to the minimizer of the quasi-Newton
    model that ``backward`` solved, dx being the node states' change on the
    tangent plane; the stage states change by dX = E dx + F dU.
    """
    dx, dU = closed_loop(steps, bp, np.zeros(state.x.shape[1]))
    dX = (steps.E @ dx[:-1, :, None] + steps.F @ dU[:, :, None])[..., 0]
    return dU, dX


def gradient(prob, tab, state: IterateState, steps=None) -> np.ndarray:
    """Exact gradient of the discrete cost in the stage controls, shape (N, s*m).

    The states are functions of U via the stage equations, so by the chain
    rule through the linearized steps g_k = l_k + H_k'p_{k+1}, read off the
    linearization of ``state``: ``steps`` if given, else formed here.
    """
    if steps is None:
        steps = linearize(prob, tab, state)
    return steps.l + (steps.p[1:, None, :] @ steps.H)[:, 0]


def scaled_residual(tab, state: IterateState, g) -> float:
    """The stage-scaled gradient max |g_ki| / (h b_i) that ``solve`` tests against tol.

    The discrete gradient in stage control i scales like h b_i, so this is
    the same quantity at every h.  A stage with b_i <= 0 is divided by h.
    """
    weights = state.h * np.where(tab.b > 0, tab.b, 1.0)
    return float(np.abs(g.reshape(state.N, tab.s, -1) / weights[:, None]).max(initial=0.0))


def line_search(prob, tab, state: IterateState, dU, dX, slope: float):
    """Backtracking along the feasible curve through U + alpha dU.

    ``slope`` is the directional derivative phi'(0) = J_d'(U)' dU.  Tries
    alpha = 1, 1/2, ..., MIN_ALPHA; each trial is a rollout of U + alpha dU
    started from the tangent-plane stage states X + alpha dX (``direction``),
    and one that raises RolloutDiverged is rejected.  While the trial's Jd
    differs from the iterate's by more than COST_FLOOR |Jd|, it is accepted
    by the Armijo test Jd(alpha) <= Jd + ARMIJO_C1 alpha slope.  Within that
    floor the cost difference is rounding, and the trial is accepted by the
    approximate Wolfe conditions
    (2 WOLFE_DELTA - 1) phi'(0) >= phi'(alpha) >= WOLFE_SIGMA phi'(0), with
    phi'(alpha) = g(trial)' dU from the trial's ``linearize`` and
    ``gradient``; alpha = 1 skips the curvature bound, the second, which a
    halving search with no longer step to try could only fail on.

    Returns (alpha, trial, steps, g): steps and g are the accepted trial's
    linearization and gradient when the slope test made them, else None.
    Raises LineSearchFailed when no alpha down to MIN_ALPHA is accepted.
    """
    dU = np.asarray(dU, dtype=float).reshape(state.U.shape)
    if not np.any(dU):
        return 1.0, state, None, None
    alpha = 1.0
    while alpha >= MIN_ALPHA:
        try:
            trial = rollout(prob, tab, state.N, state.U + alpha * dU, state.X + alpha * dX)
        except RolloutDiverged:
            trial = None
        if trial is not None and abs(trial.Jd - state.Jd) > COST_FLOOR * abs(state.Jd):
            if trial.Jd <= state.Jd + ARMIJO_C1 * alpha * slope:
                return alpha, trial, None, None
        elif trial is not None and np.isfinite(trial.Jd):  # at the rounding floor of Jd
            with np.errstate(over="ignore", invalid="ignore"):
                steps = linearize(prob, tab, trial)
                g = gradient(prob, tab, trial, steps)
                trial_slope = float(np.sum(g * dU))
            if (2 * WOLFE_DELTA - 1) * slope >= trial_slope and (alpha == 1.0 or trial_slope >= WOLFE_SIGMA * slope):
                return alpha, trial, steps, g
        alpha *= 0.5
    raise LineSearchFailed(f"no acceptable step above alpha = {MIN_ALPHA!r}")


def check_stopping_rule(tol, max_iter):
    """ValueError unless tol is a number > 0 and max_iter an int >= 1, neither a bool.

    tol = inf passes: ``solve`` then returns its first rollout.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and tol > 0):
        raise ValueError(f"tol must be a number > 0, not {tol!r}")
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError(f"max_iter must be an int >= 1, not {max_iter!r}")


def solve(prob, tab, N: int, U0=None, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, X0=None):
    """Run the full iteration from U0 (default all zeros) on one grid.

    The first rollout's Newton sweeps start from the stage states X0
    (N, s·n) when given, else from every state at x0.

    Stops when the stage-scaled gradient (``scaled_residual``) falls below
    tol, which means the same at every h; returns (state, log, p): the final
    iterate, a per-iteration log and the final iterate's node ``costates``.
    Each iterate is linearized once: a trial the line search linearized for
    its slope test hands its linearization and gradient on, and p is the
    last linearization's.  The iterate's linearization, backward
    pass and gradient are dropped once the direction and its slope are
    formed, so the line search holds no tangent plane but its trials'.
    U0 and X0 are dropped after the first rollout: on CPython >= 3.11,
    which moves call arguments into the callee, a start passed unnamed is
    freed there.
    Raises NotConverged (carrying the last state and log) when max_iter
    steps leave the residual above tol, or when the line search fails on a
    step whose predicted decrease |slope| is below the rounding floor
    COST_FLOOR |Jd|; LineSearchFailed when it fails above that floor or on
    a slope that is not finite; both name h.  RolloutDiverged when the first
    rollout or a ``linearize`` fails.  ValueError when ``check_stopping_rule``
    rejects tol or max_iter, or when U0 or X0 has the wrong size or a
    non-finite entry.
    """
    check_stopping_rule(tol, max_iter)
    check_steps(N)
    if U0 is None:
        U0 = np.zeros((N, tab.s * prob.m))
    if X0 is not None:
        X0 = _stage_stack(X0, N, tab.s * prob.n, "X0", "s·n", "stage states")
    state = rollout(prob, tab, N, U0, X0)
    U0 = X0 = None  # the first iterate holds U0 as its U; nothing reads X0 again
    steps, log = None, []
    while True:
        if steps is None:
            steps = linearize(prob, tab, state)
            g = gradient(prob, tab, state, steps)
        resid = scaled_residual(tab, state, g)
        if resid < tol:
            return state, log, steps.p
        if len(log) == max_iter:
            raise NotConverged(f"stage-scaled gradient {resid!r} above {tol!r} after {max_iter} iterations, "
                               f"h = {state.h!r}", state=state, log=log)
        bp = backward(prob, tab, steps)
        dU, dX = direction(state, bp, steps)
        slope = float(np.sum(g * dU))
        steps = bp = g = None  # from here the trials' linearizations are the only tangent planes held
        try:
            alpha, state, steps, g = line_search(prob, tab, state, dU, dX, slope)
        except LineSearchFailed as exc:
            if not abs(slope) <= COST_FLOOR * abs(state.Jd):  # a NaN slope is no rounding floor
                raise LineSearchFailed(f"{exc}, h = {state.h!r}") from None
            raise NotConverged(f"rounding floor reached: stage-scaled gradient {resid!r} above {tol!r} "
                               f"and no step can lower it, h = {state.h!r}", state=state, log=log) from None
        log.append(
            IterateRecord(
                iteration=len(log) + 1,
                Jd=state.Jd,
                grad_inf_norm=resid,
                # not np.linalg.norm: its BLAS dot wakes a worker thread on
                # large steps, which then spins on a core
                step_norm=float(np.sqrt(np.sum(dU * dU))),
                alpha=alpha,
                slope=slope,
            )
        )


def costates(prob, tab, state: IterateState, steps=None) -> np.ndarray:
    """Node costates (N+1, n), the discrete adjoint, read off the linearization of ``state``: ``steps`` or a new one."""
    if steps is None:
        steps = linearize(prob, tab, state)
    return steps.p


def node_controls(prob, state: IterateState, p: np.ndarray) -> np.ndarray:
    """Node controls (N+1, m) from the stationarity equation g(u) = Ju(x,u)'p + Ru + S'x = 0.

    Batched Newton from each step's first-stage control (step N-1's last for
    node N).  Each iteration makes one ``stage_jacobians`` call at the live
    nodes and their 2m central-difference shifts, for D = d(Ju'p)/du, and
    solves (R + D) u' = D u - Ju'p - S'x: D = 0 exactly for control-affine
    dynamics, so the first step is the closed form.  The systems of all
    live nodes are one ``lu_solve``, whose zero pivot marks a singular one.
    A node settles once max |g| <= NEWTON_TOL max(|Ju'p|, |Ru|, |S'x|).
    NodeControlFailure names h and the first node, in node order, whose
    system is singular, whose iterate or residual is not finite, or that is
    unsettled after NEWTON_MAXIT iterations.
    """
    N, m = state.N, prob.m
    u = np.concatenate([state.U[:, :m], state.U[-1:, -m:]])
    shifts = np.concatenate([np.zeros((1, m)), np.eye(m), -np.eye(m)])  # u, u + d e_l, u - d e_l
    live, first = np.arange(N + 1), (N + 1, "")  # unsettled nodes; the first failing node and why
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a failure raises below
        for _ in range(NEWTON_MAXIT):
            x, ul, d = state.x[live], u[live], 1e-7 * (1.0 + np.abs(u[live]))
            _, Ju = prob.stage_jacobians(np.repeat(x, 2 * m + 1, axis=0),
                                         (ul[:, None] + shifts * d[:, None]).reshape(-1, m))
            Jup = np.einsum("kqij,ki->kqj", Ju.reshape(len(live), 2 * m + 1, prob.n, m), p[live])
            terms = np.stack([Jup[:, 0], ul @ prob.R.T, x @ prob.S])  # Ju'p, Ru, S'x; Ru is finite iff u is
            finite = np.isfinite(terms).all(axis=(0, 2))
            step = finite & (np.abs(terms.sum(axis=0)).max(axis=1) > NEWTON_TOL * np.abs(terms).max(axis=(0, 2)))
            D = np.swapaxes(Jup[step, 1:m + 1] - Jup[step, m + 1:], 1, 2) / (2 * d[step, None])
            J, rhs = prob.R + D, (D * ul[step, None]).sum(axis=2) - terms[0, step] - terms[2, step]
            new, singular = lu_solve(J.transpose(1, 2, 0), rhs.T[:, None])
            u[live[step][~singular]] = new[:, 0, ~singular].T
            bad = {"non-finite iterate or residual": live[~finite], "singular Newton system": live[step][singular]}
            first = min([first] + [(k[0], why) for why, k in bad.items() if k.size])
            live = live[step & (live < first[0])]  # a singular node is never before the first failure
            if not live.size:
                break
        else:
            first = (live[0], "node control Newton stalled")
    if first[0] <= N:
        raise NodeControlFailure(f"{first[1]} at node {first[0]}, h = {state.h!r}", index=int(first[0]))
    return u
