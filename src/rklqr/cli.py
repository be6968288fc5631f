"""Command-line harness: solves, convergence-order studies, tableau reports.

Subcommands: solve, order-study, tableau, gradcheck.  All tabular output is
CSV; printed numbers use 6 significant digits.  Exit codes: 0 success,
1 solver failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import dlqr, ilqr, oracle
from .errors import NeedsReference, NoFit, NotFound, SolverError
from .problem import LQProblem, builtin_problem, load_problem
from .tableau import BUILTIN_ORDERS, ButcherTableau, adjoint, builtin, load_tableau, stage_orders
from .errors import AdjointUndefined


@dataclass(frozen=True)
class OrderStudy:
    """(h, max error) samples for one error target plus the fitted slope."""

    method: str
    target: str
    samples: list  # [(h, max_error)] sorted by h descending
    fitted_slope: float


def fit_order(samples) -> float:
    """Least-squares slope of log(error) against log(h).

    Non-positive errors are dropped with a warning; fewer than three usable
    samples raise NoFit.
    """
    usable = [(h, e) for h, e in samples if e > 0.0]
    for h, e in samples:
        if e <= 0.0:
            print(f"warning: dropping non-positive error {e!r} at h = {h!r}", file=sys.stderr)
    if len(usable) < 3:
        raise NoFit(f"need >= 3 positive samples, have {len(usable)}")
    hs = np.log([h for h, _ in usable])
    es = np.log([e for _, e in usable])
    return float(np.polyfit(hs, es, 1)[0])


# ---------------------------------------------------------------------------
# solving either problem kind into one trajectory shape
# ---------------------------------------------------------------------------

def solve_problem(prob, tab: ButcherTableau, N: int, tol=1e-8, max_iter=200):
    """Solve by DLQR (linear) or ILQR (nonlinear); returns (trajectory, info).

    info carries Jd, iteration count, and the ILQR iterate log when present.
    """
    if isinstance(prob, LQProblem):
        _, _, traj = dlqr.solve(prob, tab, N)
        Jd = dlqr.discrete_cost(prob, tab, traj.U, traj.X, traj.x)
        return traj, {"Jd": Jd, "iterations": 0, "log": []}
    state, log = ilqr.solve(prob, tab, N, tol=tol, max_iter=max_iter)
    cost = ilqr.costates(prob, tab, state)
    u = ilqr.node_controls(prob, state, cost)
    traj = dlqr.DiscreteTrajectory(x=state.x, X=state.X, U=state.U, p=cost.p, u=u, h=state.h)
    return traj, {"Jd": state.Jd, "iterations": len(log), "log": log}


class GridReference:
    """Node-control reference on a fine uniform grid; exact lookup only."""

    def __init__(self, h, u):
        self.h = float(h)
        self.u = np.asarray(u, dtype=float)

    def __call__(self, t):
        idx = t / self.h
        j = int(round(idx))
        if not 0 <= j < self.u.shape[0] or abs(idx - j) > 1e-6:
            raise NeedsReference(f"time {t!r} is not a node of the reference grid")
        return self.u[j]


def build_reference(prob, tab: ButcherTableau, h_fine: float) -> GridReference:
    """Fine-grid methodC solve used as truth for problems without a closed form."""
    N = int(round(prob.tf / h_fine))
    if abs(prob.tf / h_fine - N) > 1e-9 or N < 1:
        raise NeedsReference(f"reference step {h_fine!r} does not divide tf = {prob.tf!r}")
    traj, _ = solve_problem(prob, tab, N)
    return GridReference(h=prob.tf / N, u=traj.u)


def max_node_error(traj, reference) -> float:
    """max_k ||u_k - u*(t_k)|| over all nodes 0..N."""
    worst = 0.0
    for k in range(traj.u.shape[0]):
        ref = np.atleast_1d(reference(k * traj.h))
        worst = max(worst, float(np.linalg.norm(traj.u[k] - ref)))
    return worst


def max_stage_error(traj, tab: ButcherTableau, reference, stage: int) -> float:
    """max_k ||u_ki - u*(t_k + c_i h)|| over steps 0..N-1 (stage i, 1-based)."""
    if not 1 <= stage <= tab.s:
        raise ValueError(f"stage {stage} out of range 1..{tab.s}")
    m = traj.u.shape[1]
    ci = tab.c[stage - 1]
    worst = 0.0
    for k in range(traj.U.shape[0]):
        uk = traj.U[k][(stage - 1) * m : stage * m]
        ref = np.atleast_1d(reference((k + ci) * traj.h))
        worst = max(worst, float(np.linalg.norm(uk - ref)))
    return worst


def run_order_study(prob, tab: ButcherTableau, h_grid, target: str,
                    reference=None, ref_refine: int = 40) -> OrderStudy:
    """Solve at each h and fit the convergence slope of the requested error.

    target is "node" or "stage:<i>".  The reference is the analytic control
    when available, otherwise a methodC solve 'ref_refine' times finer than
    the smallest h.
    """
    h_grid = [float(h) for h in h_grid]
    for h in h_grid:
        if not (np.isfinite(h) and h > 0):
            raise ValueError(f"step {h!r} must be finite and positive")
    if ref_refine < 1:
        raise ValueError(f"ref_refine {ref_refine!r} must be >= 1")
    h_grid = sorted(set(h_grid), reverse=True)
    if reference is None:
        reference = build_reference(prob, builtin("methodC"), min(h_grid) / ref_refine)
    samples = []
    for h in h_grid:
        N = int(round(prob.tf / h))
        if N < 1 or abs(prob.tf / h - N) > 1e-9:
            raise ValueError(f"step {h!r} does not divide tf = {prob.tf!r}")
        traj, _ = solve_problem(prob, tab, N)
        if target == "node":
            err = max_node_error(traj, reference)
        elif target.startswith("stage:"):
            err = max_stage_error(traj, tab, reference, int(target.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown target {target!r} (use node or stage:<i>)")
        samples.append((prob.tf / N, err))
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
    lines = [",".join(header)]
    for k in range(traj.x.shape[0]):
        vals = [str(k), f"{k * traj.h:.17g}"]
        vals += [f"{v:.17g}" for v in traj.x[k]]
        vals += [f"{v:.17g}" for v in traj.u[k]]
        vals += [f"{v:.17g}" for v in traj.p[k]]
        lines.append(",".join(vals))
    _write_lines(path, lines)


def write_order_study_csv(path, study: OrderStudy):
    lines = ["h,max_error"]
    for h, err in study.samples:
        lines.append(f"{h:.17g},{err:.17g}")
    _write_lines(path, lines)


def write_iterate_log_csv(path, log):
    lines = ["iter,Jd,grad_inf_norm,step_norm,alpha,slope"]
    for rec in log:
        lines.append(
            f"{rec.iteration},{rec.Jd:.17g},{rec.grad_inf_norm:.17g},"
            f"{rec.step_norm:.17g},{rec.alpha:.17g},{rec.slope:.17g}"
        )
    _write_lines(path, lines)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------

def _resolve_method(spec: str) -> ButcherTableau:
    try:
        return builtin(spec)
    except NotFound:
        pass
    try:
        return load_tableau(spec)
    except FileNotFoundError:
        raise NotFound(f"method {spec!r} is neither builtin nor a readable file") from None


def _resolve_problem(spec: str):
    try:
        return builtin_problem(spec)
    except NotFound:
        pass
    try:
        return load_problem(spec)
    except FileNotFoundError:
        raise NotFound(f"problem {spec!r} is neither builtin nor a readable file") from None


def _fmt(x) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    prob, _ = _resolve_problem(args.problem)
    tab = _resolve_method(args.method)
    traj, info = solve_problem(prob, tab, args.steps, tol=args.tol, max_iter=args.max_iter)
    if args.out:
        write_trajectory_csv(args.out, traj)
    if args.log and info["log"]:
        write_iterate_log_csv(args.log, info["log"])
    print(f"Jd = {_fmt(info['Jd'])}  iterations = {info['iterations']}  "
          f"N = {args.steps}  h = {_fmt(prob.tf / args.steps)}")
    return 0


def cmd_order_study(args) -> int:
    prob, ref = _resolve_problem(args.problem)
    tab = _resolve_method(args.method)
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


def cmd_tableau(args) -> int:
    tab = _resolve_method(args.method)
    r = args.order if args.order is not None else BUILTIN_ORDERS.get(tab.name)
    print(f"method {tab.name}  (s = {tab.s}, explicit = {tab.is_explicit})")
    print("c | a:")
    for i in range(tab.s):
        print("  " + _fmt(tab.c[i]) + " | " + "  ".join(_fmt(v) for v in tab.a[i]))
    print("b:   " + "  ".join(_fmt(v) for v in tab.b))
    try:
        adj = adjoint(tab)
    except AdjointUndefined as exc:
        print(f"adjoint undefined: {exc}")
        return 0
    print("cbar | abar:")
    for i in range(tab.s):
        print("  " + _fmt(adj.cbar[i]) + " | " + "  ".join(_fmt(v) for v in adj.abar[i]))
    if r is None:
        print("stage order report skipped: pass --order for custom tableaus")
        return 0
    print(f"stage orders at OCP order r = {r}:")
    print("  i   q1  q2  c_match  predicted")
    for i in range(1, tab.s + 1):
        rep = stage_orders(tab, adj, i, r)
        print(f"  {i:<3} {rep.q1:<3} {rep.q2:<3} {str(rep.c_match):<8} {rep.predicted_order}")
    return 0


def cmd_gradcheck(args) -> int:
    prob, _ = _resolve_problem(args.problem)
    if isinstance(prob, LQProblem):
        print("gradcheck expects a nonlinear problem", file=sys.stderr)
        return 2
    tab = _resolve_method(args.method)
    rng = np.random.default_rng(args.seed)
    U = rng.standard_normal((args.steps, tab.s * prob.m))
    ge = oracle.grad_exact(prob, tab, args.steps, U).ravel()
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

    def common(p, steps=True):
        p.add_argument("--problem", required=True, help="builtin name or JSON spec file")
        p.add_argument("--method", required=True, help="builtin name or JSON tableau file")
        if steps:
            p.add_argument("--steps", type=int, required=True, help="number of RK steps N")

    p = sub.add_parser("solve", help="solve one problem and emit the trajectory CSV")
    common(p)
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--log", help="iterate log CSV path (nonlinear solves)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("order-study", help="empirical convergence order of a control error")
    p.add_argument("--problem", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--h-grid", required=True, help="comma-separated step sizes")
    p.add_argument("--target", default="node", help="node or stage:<i>")
    p.add_argument("--out", help="study CSV path")
    p.add_argument("--ref-refine", type=int, default=40,
                   help="reference grid refinement over the finest h")
    p.set_defaults(func=cmd_order_study)

    p = sub.add_parser("tableau", help="print a tableau, its adjoint, and stage orders")
    p.add_argument("--method", required=True)
    p.add_argument("--order", type=int, help="OCP order r (required for custom tableaus)")
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("gradcheck", help="finite-difference check of the exact gradient")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotFound, ValueError, NoFit, NeedsReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
