"""Command-line harness: solves, convergence-order studies, tableau reports.

Subcommands: solve, order-study, tableau, gradcheck.  All tabular output is
CSV; printed numbers use 6 significant digits.  Exit codes: 0 success,
1 solver failure, 2 usage error (an unreadable input or unwritable output too).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import csvformat, dlqr, ilqr, oracle
from .errors import AdjointUndefined, NeedsReference, NoFit, NotFound, SolverError
from .problem import LQProblem, builtin_problem, load_problem
from .tableau import ButcherTableau, adjoint, builtin, load_tableau, ocp_order, stage_orders


@dataclass(frozen=True)
class OrderStudy:
    """(h, max error) samples for one error target plus the fitted slope."""

    method: str
    target: str
    samples: list  # [(h, max_error)] sorted by h descending
    fitted_slope: float


def fit_order(samples) -> float:
    """Least-squares slope of log(error) against log(h).

    A sample whose step size or error is not finite and positive is
    dropped with a warning; fewer than three usable samples raise NoFit.
    """
    usable = []
    for h, e in samples:
        if 0.0 < h < np.inf and 0.0 < e < np.inf:
            usable.append((h, e))
        else:
            print(f"warning: dropping error {e!r} at h = {h!r}: both must be finite and positive", file=sys.stderr)
    if len(usable) < 3:
        raise NoFit(f"need >= 3 finite positive samples, have {len(usable)}")
    hs = np.log([h for h, _ in usable])
    es = np.log([e for _, e in usable])
    return float(np.polyfit(hs, es, 1)[0])


# ---------------------------------------------------------------------------
# solving either problem kind into one trajectory shape
# ---------------------------------------------------------------------------

COARSEN = 8  # a nonlinear solve at N starts from a solve at N // COARSEN ...
MIN_COARSE_STEPS = 25  # ... when that has at least this many steps
# Stopping tolerance of every order-study solve: about 5x the stage-scaled gradient's rounding floor (4e-12
# on the pendulum).  Pendulum node controls are then 4.7-13.9x tol off, 13-38x below methodC's h = 0.02 node
# error, which is 160x tol only as a node-control error against this tolerance on the gradient.
STUDY_TOL = 2e-11


def cubic_lagrange(u, h: float, t, *more):
    """Values at times t of the 4-point cubic Lagrange interpolant of node values u.

    u (L+1, m) holds values at the nodes j h, j = 0..L, with L >= 3; each t
    uses the four nodes around it (the first or last four at the ends), so
    the result is exact for cubics.  Returns (len(t), m).  Further node
    values ``more`` on the same nodes share the weights, and then a list of
    the results comes back, u's first.  ValueError for fewer than four nodes.
    """
    u = np.asarray(u, dtype=float)
    if len(u) < 4:
        raise ValueError(f"cubic interpolation needs at least 4 nodes, not {len(u)}")
    pos = np.asarray(t, dtype=float) / h
    j = np.clip(np.floor(pos).astype(int) - 1, 0, len(u) - 4)
    r = (pos - j)[:, None]  # position inside the stencil j..j+3
    r1, r2, r3 = r - 1, r - 2, r - 3
    w = -r1 * r2 * r3 / 6, r * r2 * r3 / 2, r * r1 * r3 / 2, r * r1 * r2 / 6
    out = [w[0] * np.take(v, j, axis=0) + w[1] * np.take(v, j + 1, axis=0)
           - w[2] * np.take(v, j + 2, axis=0) + w[3] * np.take(v, j + 3, axis=0)
           for v in (u, *(np.asarray(v, dtype=float) for v in more))]
    return out if more else out[0]


def _at_stage_times(traj, tab: ButcherTableau, tf: float, N: int) -> list:
    """Node controls and states of traj by ``cubic_lagrange`` at the stage times (k + c_i) tf / N, as [U, X]."""
    times = ((np.arange(N)[:, None] + tab.c) * (tf / N)).ravel()
    return [v.reshape(N, -1) for v in cubic_lagrange(traj.u, traj.h, times, traj.x)]


def solve_problem(prob, tab: ButcherTableau, N: int, tol=ilqr.DEFAULT_TOL, max_iter=ilqr.DEFAULT_MAX_ITER,
                  start=None):
    """Solve by DLQR (linear) or ILQR (nonlinear); returns (trajectory, info).

    A nonlinear solve starts from coarse ones: the ladder N, N // COARSEN,
    ... keeps every rung of at least MIN_COARSE_STEPS steps and is solved
    coarsest first, with the same tableau, tol and max_iter.  Each finer
    ``ilqr.solve`` starts from the previous rung's node controls and node
    states interpolated by ``cubic_lagrange`` at the stage times (k + c_i) h:
    the controls as U0, the states as X0, the start of the first rollout's
    Newton sweeps, both from one call; a rung's node controls come from the
    costates ``ilqr.solve`` returns.  Both starts are popped from their list
    into the call, so no name here keeps them alive while the rung runs.  A
    start trajectory (node controls u and states x at step h, of any
    tableau; at least four nodes) takes the place of every rung below N
    with no more steps than it has, and the lowest rung left starts from it;
    N itself is always solved.  A linear problem is solved directly and
    reads no start.  info carries Jd, the iteration count and the ILQR
    iterate log of the finest solve.  tol and max_iter go through
    ``ilqr.check_stopping_rule`` for either kind.
    """
    ilqr.check_stopping_rule(tol, max_iter)
    dlqr.check_steps(N)
    if isinstance(prob, LQProblem):
        _, _, traj = dlqr.solve(prob, tab, N)
        return traj, {"Jd": traj.Jd, "iterations": 0, "log": []}
    lowest = MIN_COARSE_STEPS if start is None else max(MIN_COARSE_STEPS, len(start.u))
    ladder = [N]
    while ladder[-1] // COARSEN >= lowest:
        ladder.append(ladder[-1] // COARSEN)
    traj = start
    for level in reversed(ladder):
        starts = [None, None] if traj is None else _at_stage_times(traj, tab, prob.tf, level)
        state, log, p = ilqr.solve(prob, tab, level, tol=tol, max_iter=max_iter, U0=starts.pop(0), X0=starts.pop())
        u = ilqr.node_controls(prob, state, p)
        traj = dlqr.DiscreteTrajectory(U=state.U, X=state.X, x=state.x, Jd=state.Jd, h=state.h, p=p, u=u)
    return traj, {"Jd": state.Jd, "iterations": len(log), "log": log}


def step_count(prob, h: float) -> int:
    """The number of steps N = tf / h; ValueError unless h is finite and positive and divides tf."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step {h!r} must be finite and positive")
    N = int(round(prob.tf / h))
    if N < 1 or abs(prob.tf / h - N) > 1e-9:
        raise ValueError(f"step {h!r} does not divide tf = {prob.tf!r}")
    return N


def build_reference(prob, tab: ButcherTableau, h_fine: float, start=None):
    """Fine-grid solve used as truth for problems without a closed form.

    ``solve_problem`` at STUDY_TOL from start (see there), or from its own
    coarse ladder when start is None.  Returns the lookup from an array t
    of fine-grid node times to the node controls there, (len(t), m);
    NeedsReference for a time off the grid.
    """
    traj, _ = solve_problem(prob, tab, step_count(prob, h_fine), tol=STUDY_TOL, start=start)

    def reference(t):
        idx = t / traj.h
        j = np.rint(idx).astype(int)
        off = (j < 0) | (j >= traj.u.shape[0]) | (np.abs(idx - j) > 1e-6)
        if off.any():
            raise NeedsReference(f"time {float(t[off.argmax()])!r} is not a node of the reference grid")
        return traj.u[j]

    return reference


def _max_error(values, times, reference) -> float:
    """max_k ||values_k - u*(times_k)|| over the rows of values (len(times), m)."""
    ref = np.reshape(reference(times), values.shape)
    return float(np.linalg.norm(values - ref, axis=1).max())


def max_node_error(traj, reference) -> float:
    """max_k ||u_k - u*(t_k)|| over all nodes 0..N."""
    return _max_error(traj.u, np.arange(traj.u.shape[0]) * traj.h, reference)


def max_stage_error(traj, tab: ButcherTableau, reference, stage: int) -> float:
    """max_k ||u_ki - u*(t_k + c_i h)|| over steps 0..N-1 (stage i, 1-based)."""
    if not 1 <= stage <= tab.s:
        raise ValueError(f"stage {stage} out of range 1..{tab.s}")
    times = (np.arange(traj.U.shape[0]) + tab.c[stage - 1]) * traj.h
    return _max_error(traj.U.reshape(len(times), tab.s, -1)[:, stage - 1], times, reference)


def _parse_target(target: str, s: int):
    """Stage index i of "stage:<i>" (1 <= i <= s), or None for "node"."""
    if target == "node":
        return None
    kind, _, index = target.partition(":")
    if kind == "stage" and index.isdecimal() and 1 <= int(index) <= s:
        return int(index)
    raise ValueError(f"unknown target {target!r} (use node or stage:<i> with 1 <= i <= {s})")


def run_order_study(prob, tab: ButcherTableau, h_grid, target: str,
                    reference=None, ref_refine: int = 40) -> OrderStudy:
    """Solve at each h and fit the convergence slope of the requested error.

    target is "node" or "stage:<i>".  The reference maps an array of times to
    controls: the analytic control if known, else a methodC solve 'ref_refine'
    times finer than the smallest h.  Every h must be finite and positive and
    divide tf (``step_count``); the whole grid is checked, in its given order,
    before ref_refine, the target and any solve.  Every solve stops at
    STUDY_TOL.  The samples are solved coarsest first, each started from the
    one before (``solve_problem``'s start), and the reference from the
    finest; a predecessor of fewer than four nodes starts nothing.  An ILQR
    sample whose error is below 100 STUDY_TOL partly measures the solver,
    and is reported with a warning.
    """
    h_grid = [float(h) for h in h_grid]
    if not h_grid:
        raise ValueError("the step grid is empty")
    steps = {h: step_count(prob, h) for h in h_grid}
    if ref_refine < 1:
        raise ValueError(f"ref_refine {ref_refine!r} must be >= 1")
    stage = _parse_target(target, tab.s)
    trajs, start = [], None
    for N in (steps[h] for h in sorted(steps, reverse=True)):
        traj, _ = solve_problem(prob, tab, N, tol=STUDY_TOL, start=start)
        trajs.append(traj)
        start = traj if len(traj.u) >= 4 else None  # cubic_lagrange needs four nodes
    if reference is None:
        reference = build_reference(prob, builtin("methodC"), min(h_grid) / ref_refine, start=start)
    samples = []
    for traj in trajs:
        if stage is None:
            err = max_node_error(traj, reference)
        else:
            err = max_stage_error(traj, tab, reference, stage)
        if err < 100 * STUDY_TOL and not isinstance(prob, LQProblem):
            print(f"warning: error {err!r} at h = {traj.h!r} is within 100x of the solve tolerance "
                  f"{STUDY_TOL!r}", file=sys.stderr)
        samples.append((traj.h, err))
    return OrderStudy(method=tab.name, target=target, samples=samples,
                      fitted_slope=fit_order(samples))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_trajectory_csv(path, traj):
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    header = (
        ["k", "t"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(m)]
        + [f"p_{i + 1}" for i in range(n)]
    )

    def rows(i, j):  # rows i..j-1: k and t made here, the rest sliced from the trajectory
        k = np.arange(i, j)
        return np.column_stack([k, k * traj.h, traj.x[i:j], traj.u[i:j], traj.p[i:j]])

    _write_table(path, header, rows, len(traj.x))


def write_order_study_csv(path, study: OrderStudy):
    _write_table(path, ["h", "max_error"], study.samples)


def write_iterate_log_csv(path, log):
    header = ["iter", "Jd", "grad_inf_norm", "step_norm", "alpha", "slope"]
    _write_table(path, header, [(rec.iteration, rec.Jd, rec.grad_inf_norm, rec.step_norm,
                                 rec.alpha, rec.slope) for rec in log])


_TABLE_BLOCK = 960  # rows formatted per block by _write_table


def _write_table(path, header, rows, count=None):
    """Write a header line and one line per row, every value as ``"%.17g" % v``.

    rows is the table (an array or a sequence of rows), or, with the row
    count, a function whose rows(i, j) stacks rows i..j-1, so that only one
    block of the table is formed at a time.  ``csvformat.format_rows`` makes
    the bytes of ``%`` a block of rows at a time with numpy and no Python
    object per value: the correctly rounded 17-digit significand of each
    value in range (1e-28 <= |v| < 1e16) from an exact double-double product
    with 10^(16 - X), certified against a half before it is rounded, then
    its digits, dot, prefix or exponent as bytes.  Zeros print as ``0`` and
    ``-0``; non-finite, subnormal and other values outside the range, those
    whose estimated X may be off (powers of ten and their neighbours: 5-9
    values of a bench trajectory table) and any whose rounding cannot be
    certified are formatted by ``%`` one by one.
    """
    if count is None:
        table = np.asarray(rows, dtype=float)
        count, rows = len(table), lambda i, j: table[i:j]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, count, _TABLE_BLOCK):
            fh.write(csvformat.format_rows(rows(i, min(i + _TABLE_BLOCK, count))))


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------

_SOURCES = {"method": (builtin, load_tableau), "problem": (builtin_problem, load_problem)}


def _resolve(kind: str, spec: str):
    """The builtin method or problem named spec, else its spec file; NotFound if neither."""
    from_builtin, from_file = _SOURCES[kind]
    try:
        return from_builtin(spec)
    except NotFound:
        pass
    try:
        return from_file(spec)
    except OSError:  # missing, a directory, unreadable
        raise NotFound(f"{kind} {spec!r} is neither builtin nor a readable file") from None


def _fmt(x) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    prob, _ = _resolve("problem", args.problem)
    tab = _resolve("method", args.method)
    traj, info = solve_problem(prob, tab, args.steps, tol=args.tol, max_iter=args.max_iter)
    if args.out:
        write_trajectory_csv(args.out, traj)
    if args.log:
        write_iterate_log_csv(args.log, info["log"])
    print(f"Jd = {_fmt(info['Jd'])}  iterations = {info['iterations']}  "
          f"N = {args.steps}  h = {_fmt(prob.tf / args.steps)}")
    return 0


def cmd_order_study(args) -> int:
    prob, ref = _resolve("problem", args.problem)
    tab = _resolve("method", args.method)
    h_grid = [float(tok) for tok in args.h_grid.split(",") if tok.strip()]
    study = run_order_study(prob, tab, h_grid, args.target, reference=ref,
                            ref_refine=args.ref_refine)
    if args.out:
        write_order_study_csv(args.out, study)
    print(f"method = {tab.name}  target = {study.target}")
    for h, err in study.samples:
        print(f"  h = {_fmt(h):<12} max_error = {err:.6e}")
    print(f"fitted slope = {_fmt(study.fitted_slope)}")
    return 0


def _print_rows(label: str, tab: ButcherTableau):
    print(f"{label}:")
    for ci, row in zip(tab.c, tab.a):
        print("  " + _fmt(ci) + " | " + "  ".join(_fmt(v) for v in row))


def cmd_tableau(args) -> int:
    tab = _resolve("method", args.method)
    print(f"method {tab.name}  (s = {tab.s}, explicit = {tab.is_explicit})")
    _print_rows("c | a", tab)
    print("b:   " + "  ".join(_fmt(v) for v in tab.b))
    try:
        _print_rows("cbar | abar", adjoint(tab))
    except AdjointUndefined as exc:
        print(f"adjoint undefined: {exc}")
        return 0
    print(f"stage orders at OCP order r = {ocp_order(tab)}:")
    print("  i   q1  q2  c_match  predicted")
    for rep in stage_orders(tab):
        print(f"  {rep.stage:<3} {rep.q1:<3} {rep.q2:<3} {str(rep.c_match):<8} {rep.predicted_order}")
    return 0


def cmd_gradcheck(args) -> int:
    prob, _ = _resolve("problem", args.problem)
    tab = _resolve("method", args.method)
    rng = np.random.default_rng(args.seed)
    U = rng.standard_normal((args.steps, tab.s * prob.m))
    # the adjoint gradient that ilqr.solve stops on
    ge = ilqr.gradient(prob, tab, ilqr.rollout(prob, tab, args.steps, U)).ravel()
    gf = oracle.grad_fd(prob, tab, args.steps, U).ravel()
    diff = np.abs(ge - gf)
    worst = int(np.argmax(diff))
    rel = float(diff.max() / (1.0 + np.abs(ge).max(initial=0.0)))
    status = "PASS" if rel < 1e-5 else "FAIL"
    print(f"gradcheck {status}: max relative discrepancy = {rel:.6e} "
          f"(component {worst} of {ge.size})")
    return 0 if status == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rklqr",
                                  description="Feedback solvers for RK-discretized quadratic optimal control")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="builtin name or JSON spec file")
        p.add_argument("--method", required=True, help="builtin name or JSON tableau file")

    p = sub.add_parser("solve", help="solve one problem and emit the trajectory CSV")
    common(p)
    p.add_argument("--steps", type=int, required=True, help="number of RK steps N")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--log", help="iterate log CSV path (header only for a solve without iterations)")
    p.add_argument("--tol", type=float, default=ilqr.DEFAULT_TOL,
                   help="stopping tolerance of the stage-scaled gradient (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=ilqr.DEFAULT_MAX_ITER, help="iteration limit (default %(default)s)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("order-study", help="empirical convergence order of a control error")
    common(p)
    p.add_argument("--h-grid", required=True, help="comma-separated step sizes")
    p.add_argument("--target", default="node", help="node or stage:<i>")
    p.add_argument("--out", help="study CSV path")
    p.add_argument("--ref-refine", type=int, default=40,
                   help="reference grid refinement over the finest h")
    p.set_defaults(func=cmd_order_study)

    p = sub.add_parser("tableau", help="print a tableau, its adjoint, and stage orders")
    p.add_argument("--method", required=True)
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("gradcheck", help="finite-difference check of ILQR's adjoint gradient")
    common(p)
    p.add_argument("--steps", type=int, required=True, help="number of RK steps N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotFound, ValueError, NoFit, NeedsReference, OSError) as exc:  # OSError: an --out or --log path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
