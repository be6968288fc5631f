"""Benchmark of the rklqr solvers: one named workload per run, closed loop, one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run imports rklqr from ``src/`` of the checkout that holds this file and
runs a fixed number of units, fixed by the workload and ``--seconds``, one
after another.  A unit is what one ``rklqr solve`` or ``rklqr order-study``
command computes after its set-up, called through rklqr's public functions;
unit i starts from an initial state drawn from (seed, i) alone.  Every unit's
output is checked outside its timing, and the dense-KKT and finite-difference
oracles run once per run after the units.

Latency is calibrated: a fixed numpy kernel (``spans.Kernel``) runs before
and after every unit and every ``spans.CALIBRATION_PERIOD_S`` inside it, and
each stretch of a unit is divided by the mean time of the kernel runs on
either side.  Set-up is timed in fresh interpreters (``probe.py``) and
calibrated the same way.  Raw seconds and the kernel's seconds go in the
report.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` every unit runs twice, traced and untraced, and it holds the
per-layer metrics.  A JSON report with the machine note precedes that line.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
KERNEL_SAMPLES = 5  # kernel runs whose median calibrates one set-up probe
# Seconds of one kernel run at the reference speed, about its median on the
# 2-core machine the bounds were fitted on.  setup_s is the calibrated set-up
# time in these seconds.  There, medians of ten runs' raw set-up seconds
# moved by up to 30 % between windows a few minutes apart; calibrated, they
# moved by at most 4 % between two windows where raw ones moved by 13 %.
KERNEL_REF_S = 0.005
REF_REFINE = 40  # the order-study command's default reference refinement
GRAD_TOL = 1e-4  # stage-scaled gradient; 3x what tol=1e-8 guarantees at h b_i = 1/3000
IDENTITY_TOL = 1e-10  # relative, for identities that hold up to rounding
ORACLE_QP_N = 60
ORACLE_FD_N = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; see BENCHMARK.json for why each exists."""

    name: str
    problem: str
    method: str
    steps: int  # N of the solve; 0 for an order study
    unit_s: float  # nominal seconds of one unit, which fixes the unit count
    band: tuple  # half-width of the x0 draw around the builtin start, per component
    h_grid: tuple = ()

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def steps_per_unit(self, tf: float) -> int:
        if not self.h_grid:
            return self.steps
        return sum(round(tf / h) for h in self.h_grid) + round(tf * REF_REFINE / min(self.h_grid))


# Half-widths of the pendulum's x0 draw (theta, omega).  Wider bands (0.1 rad)
# mix solves of 4 to 8 iterations, and with a few units per run the median
# jumps between those paths.  Within this band, 278 of 280 ILQR units of
# twenty runs took 5 iterations and 2 took 4.
PENDULUM_BAND = (0.01, 0.005)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("dlqr_spring_c4000", "spring", "methodC", 4000, 0.4, (0.1, 0.1)),
        Workload("ilqr_pendulum_b2000", "pendulum", "methodB", 2000, 3.0, PENDULUM_BAND),
        Workload("ilqr_pendulum_trap400", "pendulum", "trapezoidal", 400, 0.9, PENDULUM_BAND),
        Workload("order_study_pendulum_b", "pendulum", "methodB", 0, 12.0, PENDULUM_BAND,
                 h_grid=(0.1, 0.05, 0.04, 0.02)),
    )
}


def draw_x0(wl: Workload, base, seed: int, index: int):
    import numpy as np

    rng = np.random.default_rng([seed, index])
    return np.asarray(base) + np.asarray(wl.band) * rng.uniform(-1.0, 1.0, size=len(wl.band))


# ---------------------------------------------------------------------------
# one unit and its check
# ---------------------------------------------------------------------------

def run_unit(cli, wl: Workload, prob, tab, csv_path):
    if wl.h_grid:
        return cli.run_order_study(prob, tab, wl.h_grid, "node", ref_refine=REF_REFINE)
    traj, info = cli.solve_problem(prob, tab, wl.steps)
    cli.write_trajectory_csv(csv_path, traj)
    return traj, info


def check_unit(rk, wl: Workload, prob, tab, out, csv_path) -> list:
    """Problems found in one unit's output; empty when it is correct."""
    import numpy as np

    if wl.h_grid:
        errs = [e for _, e in out.samples]
        if len(errs) != len(wl.h_grid) or not all(np.isfinite(e) and e > 0 for e in errs):
            return [f"order study samples {out.samples!r}"]
        return []
    traj, info = out
    bad = []
    N = wl.steps
    x, p, u = traj.x, traj.p, traj.u
    if x.shape[0] != N + 1 or p.shape[0] != N + 1 or u.shape[0] != N + 1:
        return [f"trajectory has {x.shape[0]} nodes, expected {N + 1}"]
    pN = prob.M @ x[-1]
    if np.abs(p[-1] - pN).max() > IDENTITY_TOL * (1.0 + np.abs(pN).max()):
        bad.append("p_N != M x_N")
    S = getattr(prob, "S", None)
    resid = 0.0
    for k in range(N + 1):
        r = prob.R @ u[k] + prob.input_matrix(x[k]).T @ p[k]
        if S is not None:
            r = r + S.T @ x[k]
        resid = max(resid, float(np.abs(r).max()))
    if resid > 1e-8 * (1.0 + float(np.abs(u @ prob.R).max())):
        bad.append(f"node stationarity residual {resid:.3e}")
    with open(csv_path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    if lines != N + 2:
        bad.append(f"trajectory CSV has {lines} lines, expected {N + 2}")
    if isinstance(prob, rk.problem.LQProblem):
        quad = 0.5 * float(x[0] @ p[0])  # p_0 = M_0 x_0
        if abs(info["Jd"] - quad) > IDENTITY_TOL * abs(quad):
            bad.append(f"discrete cost {info['Jd']!r} != x0'M_0x0/2 = {quad!r}")
        return bad
    state = rk.ilqr.rollout(prob, tab, N, traj.U)
    if abs(state.Jd - info["Jd"]) > IDENTITY_TOL * abs(state.Jd):
        bad.append("reported Jd differs from a rollout of the returned controls")
    g = rk.ilqr.gradient(prob, tab, state).reshape(N, tab.s, prob.m)
    scaled = float(np.abs(g / (state.h * tab.b)[None, :, None]).max())
    if not scaled <= GRAD_TOL:
        bad.append(f"stage-scaled gradient {scaled:.3e} > {GRAD_TOL}")
    return bad


def oracle_checks(rk, seed: int) -> dict:
    """Once per run: DLQR against the dense KKT solve, exact against FD gradient."""
    import numpy as np

    spring = rk.problem.spring_oscillator()
    tabC = rk.tableau.builtin("methodC")
    traj, _ = rk.cli.solve_problem(spring, tabC, ORACLE_QP_N)
    t0 = time.perf_counter()
    qp = rk.oracle.qp_solve(spring, tabC, ORACLE_QP_N)
    t_qp = time.perf_counter() - t0
    qp_gap = max(float(np.abs(traj.U - qp.U).max()), float(np.abs(traj.x - qp.x).max()))
    qp_gap /= 1.0 + float(np.abs(qp.x).max())

    pend = rk.problem.pendulum()
    tabB = rk.tableau.builtin("methodB")
    U = np.random.default_rng(seed).standard_normal((ORACLE_FD_N, tabB.s * pend.m))
    ge = rk.oracle.grad_exact(pend, tabB, ORACLE_FD_N, U)
    t0 = time.perf_counter()
    gf = rk.oracle.grad_fd(pend, tabB, ORACLE_FD_N, U)
    t_fd = time.perf_counter() - t0
    fd_gap = float(np.abs(ge - gf).max()) / (1.0 + float(np.abs(ge).max()))
    return {"qp_gap": qp_gap, "qp_s": t_qp, "fd_gap": fd_gap, "fd_s": t_fd,
            "ok": qp_gap <= 1e-9 and fd_gap <= 1e-5}


# ---------------------------------------------------------------------------
# set-up and machine note
# ---------------------------------------------------------------------------

def _pin_to_current_cpu():
    """Hold this process (and the children it starts) to the CPU it runs on.

    Returns the affinity to restore, or None where it cannot be set.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return previous


def measure_setup(wl: Workload, scratch: str, kernel) -> list:
    """(seconds, kernels) from interpreter start until the probe is ready, SETUP_REPEATS times.

    Each probe is calibrated by the median of KERNEL_SAMPLES kernel runs on
    either side of it.  The two CPUs of a shared machine drift apart, so the
    probes and kernel runs are held to one CPU; unpinned, the calibrated
    figure spread more than the raw one.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), wl.problem, wl.method, scratch]
    samples = []
    affinity = _pin_to_current_cpu()
    try:
        before = statistics.median(kernel() for _ in range(KERNEL_SAMPLES))
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                rc = proc.wait(timeout=120)
            if line.strip() != "ready" or rc != 0:
                raise RuntimeError(f"set-up probe failed (exit {rc})")
            after = statistics.median(kernel() for _ in range(KERNEL_SAMPLES))
            samples.append((t1 - t0, (t1 - t0) / (0.5 * (before + after))))
            before = after
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    return samples


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library file name.

    numpy and scipy wheels each bundle their own OpenBLAS, whose getter
    carries a build-specific prefix and suffix.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def machine_note(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads() or "unknown",
        "blas_thread_env": env,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten values beyond it, and that percentile.

    With twenty values or fewer that percentile is not above the median, so
    the median is reported, at percentile 50.
    """
    n = len(values)
    if n <= 20:
        return statistics.median(values), 50.0
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n


def layer_metrics(spans, units, n_units) -> dict:
    """Per-layer calls, calibrated self time and share of unit time, per unit.

    The cli layers do their work in the layers below them, so they also get
    ``total_share``: their whole span time over unit time.  No cli layer
    calls itself, so their spans do not overlap.
    """
    from spans import LAYERS

    child = [0.0] * len(spans)
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    agg = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for i, (name, start, end, _, unit, _) in enumerate(spans):
        wall, cal = units[unit]
        self_s = (end - start) - child[i]
        a = agg[name]
        a[0] += 1
        a[1] += self_s
        a[2] += self_s * cal / wall
        a[3] += end - start
    total_wall = sum(w for w, _ in units.values())
    out = {}
    for modname, names in LAYERS.items():
        for fname in names:
            key = f"{modname}.{fname}"
            calls, self_s, self_cal, total_s = agg.get(key, (0, 0.0, 0.0, 0.0))
            out[f"{key}.calls"] = (calls / n_units, "count")
            out[f"{key}.self_cal"] = (self_cal / n_units, "kernels")
            out[f"{key}.share"] = (self_s / total_wall, "ratio")
            if modname == "cli":
                out[f"{key}.total_share"] = (total_s / total_wall, "ratio")
    out["trace.coverage"] = (sum(a[1] for a in agg.values()) / total_wall, "ratio")

    def has_ancestor(i, name):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == name:
                return True
        return False

    searches = [i for i, sp in enumerate(spans) if sp[0] == "ilqr.line_search"]
    trials = sum(1 for sp in spans if sp[0] == "ilqr.rollout" and sp[3] >= 0
                 and spans[sp[3]][0] == "ilqr.line_search")
    out["ilqr.iterations"] = (len(searches) / n_units, "count")
    out["ilqr.line_search.trials"] = (trials / len(searches) if searches else 0.0, "count")
    out["study.reference_iterations"] = (
        sum(1 for i in searches if has_ancestor(i, "cli.build_reference")) / n_units, "count")
    norms = defaultdict(list)
    for sp in spans:
        if sp[0] == "ilqr.gradient" and sp[3] >= 0 and spans[sp[3]][0] == "ilqr.solve":
            norms[sp[3]].append(sp[5])
    ratios = [b / a for seq in norms.values() for a, b in zip(seq, seq[1:]) if a]
    out["ilqr.contraction"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    return out


def _defects(wl, out) -> dict:
    """Known defects read off a unit's output, recorded but never gated.

    Solves give their iterations and the ratios of successive logged
    gradient sup-norms (linear, not superlinear, convergence); studies their
    slope.
    """
    if out is None:
        return {}
    if wl.h_grid:
        return {"fitted_slope": out.fitted_slope}
    norms = [rec.grad_inf_norm for rec in out[1].get("log", [])]
    return {"iterations": out[1].get("iterations"),
            "contraction_ratios": [b / a for a, b in zip(norms, norms[1:]) if a]}


def _sup_norm(g):
    import numpy as np

    return float(np.abs(g).max(initial=0.0))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool):
    steal0, load0 = _steal_ticks(), os.getloadavg()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import scipy

    import rklqr
    from probe import prepare
    from spans import CallCounter, Kernel, Recorder, wrapped_layers

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as scratch:
        base, tab = prepare(wl.problem, wl.method, scratch)
        phases = {"main_setup": time.perf_counter() - T_START}
        t0 = time.perf_counter()
        kernel = Kernel()
        setup = measure_setup(wl, scratch, kernel)
        phases["setup_probes"] = time.perf_counter() - t0
        csv_path = os.path.join(scratch, "unit.csv")
        modules = {"cli": rklqr.cli, "dlqr": rklqr.dlqr, "ilqr": rklqr.ilqr}
        rec = Recorder(kernel, observers={"ilqr.gradient": _sup_norm})
        n = wl.units(seconds)
        if trace:
            n = max(1, n // 2)
            plan = [(i, traced) for i in range(n)
                    for traced in ((True, False) if i % 2 == 0 else (False, True))]
        else:
            plan = [(i, False) for i in range(n)]
        counter = CallCounter()
        results = {True: {}, False: {}}  # traced -> unit -> (wall, cal)
        failures = []
        slopes = []
        detail = []  # per untraced unit
        t_units = time.perf_counter()
        t_checks = 0.0
        with rec, wrapped_layers(modules, rec) as absent:
            for i, traced in plan:
                prob = dataclasses.replace(base, x0=draw_x0(wl, base.x0, seed, i))
                run_prob = prob
                if traced and hasattr(prob, "f_fn"):
                    run_prob = dataclasses.replace(
                        prob, f_fn=counter.wrap("f", prob.f_fn),
                        jac_x_fn=counter.wrap("jac_x", prob.jac_x_fn),
                        jac_u_fn=counter.wrap("jac_u", prob.jac_u_fn))
                gc.collect()
                out, err = None, None
                rec.begin_unit(i, traced)
                try:
                    out = run_unit(rklqr.cli, wl, run_prob, tab, csv_path)
                except Exception:  # a failed unit is counted, never redrawn
                    err = traceback.format_exc(limit=3)
                wall, cal, _ = rec.end_unit()
                results[traced][i] = (wall, cal)
                if not traced:
                    detail.append(dict(_defects(wl, out), cal=cal, s=wall))
                t0 = time.perf_counter()
                if err is None:
                    try:
                        bad = check_unit(rklqr, wl, prob, tab, out, csv_path)
                    except Exception:
                        bad = [traceback.format_exc(limit=3)]
                    err = "; ".join(bad) or None
                    if wl.h_grid and traced:
                        slopes.append(out.fitted_slope)
                if err is not None:
                    failures.append((i, traced, err))
                t_checks += time.perf_counter() - t0
        phases["units"] = time.perf_counter() - t_units - t_checks
        phases["checks"] = t_checks
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        try:
            orc = oracle_checks(rklqr, seed)
        except Exception:  # reported as an incorrect run, with its traceback
            orc = {"ok": False, "error": traceback.format_exc(limit=3), "qp_s": 0.0, "fd_s": 0.0}
        phases["oracle"] = time.perf_counter() - t0

    cal_all = [c for _, c in results[False].values()]
    wall_all = [w for w, _ in results[False].values()]
    tail_val, tail_pct = tail(cal_all)
    kern = statistics.median(rec.kernel_times)
    steal1, load1 = _steal_ticks(), os.getloadavg()
    report = {
        "workload": wl.name, "seed": seed, "trace": trace,
        "units": n, "steps_per_unit": wl.steps_per_unit(base.tf),
        "latency_cal": {"p50": statistics.median(cal_all), "tail": tail_val,
                        "tail_percentile": tail_pct, "samples": len(cal_all)},
        "latency_s": {"p50": statistics.median(wall_all), "max": max(wall_all)},
        "kernel_s": {"median": kern, "runs": len(rec.kernel_times)},
        "setup": {"s": [s for s, _ in setup], "kernels": [c for _, c in setup],
                  "reference_kernel_s": KERNEL_REF_S},
        "phase_s": phases,
        "peak_rss_mb": peak_rss_mb,
        "oracle": orc,
        "absent_layers": absent,
        "unit_detail": detail,
        "failures": [{"unit": i, "traced": t, "error": e} for i, t, e in failures],
        "machine": dict(machine_note(np, scipy),
                        steal_ticks=None if steal0 is None else steal1 - steal0,
                        loadavg_start=load0, loadavg_end=load1),
    }
    if trace:
        traced_units = results[True]
        metrics = layer_metrics(rec.spans, traced_units, len(traced_units))
        for key, val in counter.counts.items():
            metrics[f"problem.{key}.calls"] = (val / len(traced_units), "count")
        metrics["study.fitted_slope"] = (statistics.median(slopes) if slopes else 0.0, "1")
        metrics["oracle.qp_solve.s"] = (orc["qp_s"], "s")
        metrics["oracle.grad_fd.s"] = (orc["fd_s"], "s")
        traced_p50 = statistics.median(c for _, c in traced_units.values())
        metrics["trace.overhead"] = (traced_p50 / statistics.median(cal_all) - 1.0, "ratio")
    else:
        metrics = {
            "latency_cal.p50": (statistics.median(cal_all), "kernels"),
            "latency_cal.tail": (tail_val, "kernels"),
            "setup_s": (statistics.median(c for _, c in setup) * KERNEL_REF_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failures and orc["ok"],
        "attempted": len(plan),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rklqr" / "__init__.py").is_file():
        print(f"error: no rklqr sources under {SRC}", file=sys.stderr)
        return 2
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
