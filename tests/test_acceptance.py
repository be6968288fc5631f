"""Acceptance suite: every shipped claim, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (pytest itself reports the fail lines).
"""

import time

import numpy as np
import pytest
from curve_demo import scalar_curve_demo
from explicit3_family import explicit3_family
from fixtures import GAUSS2, GAUSS3, RADAU2A3, RALSTON3
from scipy.integrate import solve_ivp
import scipy.linalg
from scipy.optimize import minimize

from rklqr import dlqr, ilqr, oracle
from rklqr.cli import build_reference, fit_order, max_stage_error, run_order_study
from rklqr.errors import AdjointUndefined
from rklqr.problem import example31, pendulum, pendulum_tanh, spring_oscillator
from rklqr.tableau import ButcherTableau, builtin, ocp_order, stage_orders

# Reference table of max internal-control errors for the scalar benchmark
# (u* known in closed form), 3 significant digits, columns per method/stage.
STAGE_ERROR_TABLE = {
    "methodA": {
        0.1: [2.40e-3, 2.48e-3],
        0.05: [5.94e-4, 6.56e-4],
        0.04: [3.79e-4, 4.25e-4],
        0.02: [9.43e-5, 1.09e-4],
        0.01: [2.35e-5, 2.74e-5],
    },
    "methodB": {
        0.1: [1.28e-3, 9.23e-4, 2.61e-3],
        0.05: [4.20e-4, 2.60e-4, 6.42e-4],
        0.04: [2.82e-4, 1.70e-4, 4.09e-4],
        0.02: [7.67e-5, 4.41e-5, 1.01e-4],
        0.01: [1.99e-5, 1.12e-5, 2.52e-5],
    },
    "methodC": {
        0.1: [1.40e-4, 2.67e-4, 3.02e-4, 1.11e-5],
        0.05: [1.76e-5, 7.02e-5, 7.45e-5, 1.55e-6],
        0.04: [9.05e-6, 4.53e-5, 4.75e-5, 8.08e-7],
        0.02: [1.13e-6, 1.15e-5, 1.18e-5, 1.05e-7],
        0.01: [1.42e-7, 2.91e-6, 2.94e-6, 1.34e-8],
    },
}
H_GRID = [0.1, 0.05, 0.04, 0.02, 0.01]


def _pass(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


@pytest.fixture(scope="module")
def probe_set():
    """50 seeded random (method, N, U) probes on the pendulum."""
    prob = pendulum()
    combos = [(name, N) for name in ("euler", "methodA", "methodB") for N in (2, 3, 4)]
    probes = []
    rng = np.random.default_rng(20240817)
    for i in range(50):
        name, N = combos[i % len(combos)]
        tab = builtin(name)
        probes.append((name, N, rng.standard_normal((N, tab.s * prob.m))))
    return prob, probes


def test_criterion_01_stage_error_table_within_5_percent():
    prob, ref = example31()
    t0 = time.perf_counter()
    checked = 0
    for name, columns in STAGE_ERROR_TABLE.items():
        tab = builtin(name)
        for h, expected in columns.items():
            _, _, traj = dlqr.solve(prob, tab, int(round(prob.tf / h)))
            for stage, cell in enumerate(expected, start=1):
                got = max_stage_error(traj, tab, ref, stage)
                assert got == pytest.approx(cell, rel=0.05), (name, h, stage)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 45
    assert elapsed < 5.0
    _pass(f"criterion 1: all 45 stage-error cells within 5% ({elapsed:.2f}s)")


def test_criterion_02_stage_slopes_match_min_q1_q2():
    prob, ref = example31()
    expected = {"methodA": [2, 2], "methodB": [2, 2, 2], "methodC": [3, 2, 2, 3]}
    for name, mins in expected.items():
        tab = builtin(name)
        # the prediction machinery must agree with the hard-coded table
        predicted = [rep.predicted_order for rep in stage_orders(tab)]
        assert predicted == mins
        for stage, target in enumerate(mins, start=1):
            study = run_order_study(prob, tab, H_GRID, f"stage:{stage}", reference=ref)
            assert study.fitted_slope == pytest.approx(target, abs=0.25), (name, stage)
    _pass("criterion 2: stage-control slopes match min(q1, q2) within 0.25")


def test_criterion_03_node_control_orders():
    prob, ref = example31()
    for name, target in (("methodA", 2), ("methodB", 3), ("methodC", 4), ("trapezoidal", 2)):
        study = run_order_study(prob, builtin(name), H_GRID, "node", reference=ref)
        assert study.fitted_slope == pytest.approx(target, abs=0.3), name
    for stage in (1, 2):
        study = run_order_study(prob, builtin("trapezoidal"), H_GRID, f"stage:{stage}", reference=ref)
        assert study.fitted_slope == pytest.approx(1.0, abs=0.3), stage
    _pass("criterion 3: node orders 2/3/4/2 and trapezoidal stage orders 1")


def test_criterion_04_spring_node_error_slopes():
    prob = spring_oscillator()
    t0 = time.perf_counter()
    reference = build_reference(prob, builtin("methodC"), 0.00125)
    grid = [0.4, 0.2, 0.1, 0.05]
    for name, target in (("euler", 1), ("trapezoidal", 2), ("methodB", 3)):
        study = run_order_study(prob, builtin(name), grid, "node", reference=reference)
        assert study.fitted_slope == pytest.approx(target, abs=0.3), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(f"criterion 4: spring node-error slopes 1/2/3 vs fine reference ({elapsed:.2f}s)")


def test_criterion_05_oracle_equivalence():
    ex, _ = example31()
    for prob in (ex, spring_oscillator()):
        for N in (2, 5, 8):
            for name in ("euler", "methodA", "methodB", "trapezoidal"):
                tab = builtin(name)
                qp = oracle.qp_solve(prob, tab, N)
                _, _, traj = dlqr.solve(prob, tab, N)
                np.testing.assert_allclose(qp.U, traj.U, atol=1e-9)
                np.testing.assert_allclose(qp.X, traj.X, atol=1e-9)
                np.testing.assert_allclose(qp.x, traj.x, atol=1e-9)
                state = ilqr.IterateState(U=qp.U, X=qp.X, x=qp.x, Jd=0.0, h=prob.tf / N)
                p = ilqr.costates(prob, tab, state)
                np.testing.assert_allclose(qp.lam, p[1:], atol=1e-9)
    _pass("criterion 5: DLQR == KKT solve and multipliers == costates (1e-9)")


def test_criterion_06_gradient_identity(probe_set):
    prob, probes = probe_set
    worst = 0.0
    for name, N, U in probes:
        tab = builtin(name)
        ge = oracle.grad_exact(prob, tab, N, U)
        gf = oracle.grad_fd(prob, tab, N, U)
        rel = np.abs(ge - gf).max() / (1 + np.abs(ge).max())
        worst = max(worst, rel)
        assert rel < 1e-5, (name, N, rel)
    _pass(f"criterion 6: grad_exact vs grad_fd on 50 probes (worst rel {worst:.2e})")


def test_criterion_07_quasi_newton_identity(probe_set):
    prob, probes = probe_set
    worst = 0.0
    for name, N, U in probes:
        tab = builtin(name)
        qn = oracle.quasi_newton(prob, tab, N, U)
        state = ilqr.rollout(prob, tab, N, U)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        dU, _ = ilqr.direction(state, bp, steps)
        rel = np.abs(dU.ravel() - qn.direction).max() / (1 + np.abs(qn.direction).max())
        worst = max(worst, rel)
        assert rel < 1e-8, (name, N, rel)
    _pass(f"criterion 7: search direction == -W^-1 Y on 50 probes (worst rel {worst:.2e})")


def test_criterion_08_one_shot_on_linear_problem():
    prob = spring_oscillator()
    tab = builtin("methodB")
    N = 100
    state, log, _ = ilqr.solve(prob, tab, N)
    assert len(log) == 1  # second gradient check terminates the loop
    assert log[0].alpha == 1.0
    _, _, traj = dlqr.solve(prob, tab, N)
    np.testing.assert_allclose(state.U, traj.U, atol=1e-10)
    np.testing.assert_allclose(state.x, traj.x, atol=1e-10)
    _pass("criterion 8: one full-step iteration reaches the DLQR optimum (1e-10)")


def test_criterion_09_descent_and_monotone_convergence():
    prob = pendulum()
    state, log, _ = ilqr.solve(prob, builtin("methodB"), 200, tol=1e-8, max_iter=50)
    assert len(log) <= 50
    assert all(rec.slope < 0.0 for rec in log)
    jds = [rec.Jd for rec in log]
    assert all(a >= b for a, b in zip(jds, jds[1:]))
    g = ilqr.gradient(prob, builtin("methodB"), state)
    assert np.abs(g).max() < 1e-8
    _pass(f"criterion 9: pendulum converged in {len(log)} iterations, monotone descent")


def test_criterion_10_linear_only_convergence():
    tr = scalar_curve_demo(0.1)
    assert tr.converged and abs(tr.us[-1]) < 1e-10
    ratios = np.abs(tr.us[1:] / tr.us[:-1])
    assert np.all(ratios[-5:] >= 0.1) and np.all(ratios[-5:] <= 0.9)
    forced = scalar_curve_demo(0.1, force_full_step=True, max_iter=1)
    assert abs(forced.us[1]) > abs(forced.us[0])
    _pass(f"criterion 10: linear rate (last ratios ~{ratios[-1]:.2f}), full step overshoots")


def test_criterion_11_pendulum_initial_control_convergence():
    prob = pendulum()
    Ns = [100, 200, 400, 800]
    u0 = {}
    for name in ("euler", "trapezoidal", "methodB"):
        tab = builtin(name)
        vals = []
        for N in Ns:
            state, _, p = ilqr.solve(prob, tab, N)
            vals.append(ilqr.node_controls(prob, state, p)[0, 0])
        u0[name] = np.array(vals)
    # methodB initial control is settled to well under 1e-3 by N = 200
    assert abs(u0["methodB"][1] - u0["methodB"][3]) < 1e-3
    observed = {}
    for name, target in (("euler", 1.0), ("trapezoidal", 2.0), ("methodB", 3.0)):
        diffs = np.abs(np.diff(u0[name]))
        assert np.all(diffs > 0)  # Cauchy, still resolving
        orders = -np.log2(diffs[1:] / diffs[:-1])
        observed[name] = orders.mean()
        assert observed[name] == pytest.approx(target, abs=0.5), name
    assert observed["euler"] < observed["trapezoidal"] < observed["methodB"]
    _pass(
        "criterion 11: u0 sequences Cauchy with rates "
        f"euler {observed['euler']:.2f} < trapezoidal {observed['trapezoidal']:.2f} "
        f"< methodB {observed['methodB']:.2f}"
    )


def test_criterion_12_pendulum_node_orders():
    # the reference is the 40x finer methodC solve; every solve of the study
    # stops at STUDY_TOL = 2e-11, well below methodC's error at h = 0.02
    # (3.6e-9), so the errors do not flatten at fine h.  Measured slopes:
    # 2.036, 3.097 and 3.976
    prob = pendulum()
    slopes = {}
    for name, target in (("methodA", 2), ("methodB", 3), ("methodC", 4)):
        slopes[name] = run_order_study(prob, builtin(name), [0.1, 0.05, 0.04, 0.02], "node").fitted_slope
        assert slopes[name] == pytest.approx(target, abs=0.2), name
    _pass("criterion 12: pendulum node orders " + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()))


# control order r from the bi-coloured trees; classical order in the comment where it differs
OCP_ORDERS = [
    (builtin("euler"), 1),
    (builtin("methodA"), 2),
    (builtin("methodB"), 3),
    (builtin("methodC"), 4),
    (builtin("trapezoidal"), 2),
    (ButcherTableau(a=[[0, 0, 0, 0], [1 / 3, 0, 0, 0], [-1 / 3, 1, 0, 0], [1, -1, 1, 0]],
                    b=[1 / 8, 3 / 8, 3 / 8, 1 / 8], name="kutta38"), 4),
    (GAUSS2, 4),  # classical 4
    (RADAU2A3, 5),
    (GAUSS3, 6),
    (RALSTON3, 2),  # classical 3
    (explicit3_family(0.45), 3),
]


def test_criterion_13_control_order_from_hagers_conditions():
    for tab, r in OCP_ORDERS:
        assert ocp_order(tab) == r, tab.name
    with pytest.raises(AdjointUndefined):
        ocp_order(explicit3_family(0.3))  # b1 < 0
    # the node controls of the tableaus above order 4 converge at r, on
    # example31 grids whose errors stay clear of rounding (Gauss3's reach
    # 2.1e-12 at h = 0.1)
    prob, ref = example31()
    grids = {"radau2a3": [0.1, 0.05, 0.025, 0.0125], "gauss3": [0.5, 0.25, 0.2, 0.125, 0.1]}
    high = {}
    for tab, r in OCP_ORDERS:
        if tab.name in grids:
            high[tab.name] = run_order_study(prob, tab, grids[tab.name], "node", reference=ref).fitted_slope
            assert high[tab.name] == pytest.approx(r, abs=0.3), tab.name
    # Ralston's node controls converge at its control order 2, not its classical order 3
    scalar = run_order_study(prob, RALSTON3, H_GRID, "node", reference=ref).fitted_slope
    t0 = time.perf_counter()
    pend = run_order_study(pendulum(), RALSTON3, [0.1, 0.05, 0.04, 0.02], "node").fitted_slope
    elapsed = time.perf_counter() - t0
    for slope in (scalar, pend):
        assert slope == pytest.approx(ocp_order(RALSTON3), abs=0.3)
        assert abs(slope - 3) > 0.3
    _pass(f"criterion 13: ocp_order on {len(OCP_ORDERS)} tableaus; example31 node slopes "
          + ", ".join(f"{k} {v:.3f}" for k, v in high.items())
          + f"; Ralston 3 node slopes {scalar:.3f} (example31), {pend:.3f} (pendulum, {elapsed:.2f}s)")


def test_criterion_14_stage_orders_across_tableaus():
    # the stage orders min(q1, q2) of criterion 2 on every tableau of
    # criterion 13, explicit and implicit: each stage control's fitted slope
    prob, ref = example31()
    t0 = time.perf_counter()
    worst = 0.0
    for tab, _ in OCP_ORDERS:
        for rep in stage_orders(tab):
            slope = run_order_study(prob, tab, H_GRID, f"stage:{rep.stage}", reference=ref).fitted_slope
            assert slope == pytest.approx(rep.predicted_order, abs=0.3), (tab.name, rep.stage)
            worst = max(worst, abs(slope - rep.predicted_order))
    # on the pendulum the prediction is a lower bound: methodB's stage 3 fits
    # 3.10 and methodC's stage 4 3.96 against a predicted 2 and 3
    pend = pendulum()
    pend_ref = build_reference(pend, builtin("methodC"), 0.02 / 40)
    lowest = np.inf
    for tab, _ in OCP_ORDERS[:5]:  # the five builtins
        for rep in stage_orders(tab):
            slope = run_order_study(pend, tab, [0.1, 0.05, 0.04, 0.02], f"stage:{rep.stage}",
                                    reference=pend_ref).fitted_slope
            assert slope >= rep.predicted_order - 0.3, ("pendulum", tab.name, rep.stage)
            lowest = min(lowest, slope - rep.predicted_order)
    elapsed = time.perf_counter() - t0
    _pass(f"criterion 14: stage slopes of {len(OCP_ORDERS)} tableaus within {worst:.2f} "
          f"of stage_orders on example31, at least {lowest:+.2f} from them on the pendulum ({elapsed:.2f}s)")


def _continuous_riccati(prob, h):
    """P(k h), k = 0..tf/h, of -P' = A'P + PA - (PB + S)R^-1(B'P + S') + Q with P(tf) = M.

    Integrated backward by DOP853 at rtol 1e-13 and atol 1e-14.
    """
    A, B, S, Q, Rinv, n = prob.A, prob.B, prob.S, prob.Q, np.linalg.inv(prob.R), prob.n

    def rhs(t, y):
        P = y.reshape(n, n)
        K = P @ B + S
        return -(A.T @ P + P @ A - K @ Rinv @ K.T + Q).ravel()

    N = int(round(prob.tf / h))
    sol = solve_ivp(rhs, (prob.tf, 0.0), prob.M.ravel(), method="DOP853", rtol=1e-13, atol=1e-14,
                    t_eval=np.linspace(prob.tf, 0.0, N + 1))
    return sol.y.T[::-1].reshape(N + 1, n, n)


def _value_slope(prob, tab, grid):
    """Fitted slope of max_k max |M_k - P(t_k)| against h over the halving grid, P from its finest h."""
    P = _continuous_riccati(prob, grid[-1])
    samples = []
    for h in grid:
        N = int(round(prob.tf / h))
        _, bp, _ = dlqr.solve(prob, tab, N)
        samples.append((h, float(np.abs(bp.M - P[::(len(P) - 1) // N]).max())))
    return fit_order(samples)


def test_criterion_15_value_function_at_the_control_order():
    # the dynamic-programming analogue: DLQR's value Hessians M_k approach
    # the continuous Riccati solution P(t_k) at the control order, not the
    # classical one.  The errors of Radau IIA and Gauss3 reach the
    # reference's accuracy (3e-13) on the finer grid, so they are fitted on
    # coarser ones.
    t0 = time.perf_counter()
    ex, _ = example31()
    coarse = {"radau2a3": [0.25, 0.125, 0.0625, 0.03125], "gauss3": [1.0, 0.5, 0.25, 0.125]}
    slopes = {}
    for tab, r in OCP_ORDERS:
        slopes[tab.name] = _value_slope(ex, tab, coarse.get(tab.name, [0.1, 0.05, 0.025, 0.0125]))
        assert slopes[tab.name] == pytest.approx(r, abs=0.15), tab.name
    spring = spring_oscillator()
    for tab, r in OCP_ORDERS[:5]:  # the five builtins
        slope = _value_slope(spring, tab, [0.4, 0.2, 0.1, 0.05])
        assert slope == pytest.approx(r, abs=0.3), ("spring", tab.name)
    elapsed = time.perf_counter() - t0
    _pass("criterion 15: M_k slopes at ocp_order on example31 ("
          + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()) + f"; {elapsed:.2f}s)")


def test_criterion_16_feedback_takes_fewer_steps_than_a_direct_method():
    # the paper credits its methods' efficiency to the feedback technique.
    # The direct method without feedback is L-BFGS-B on the same discrete
    # cost with the same exact gradient (ilqr.rollout and ilqr.gradient).
    # Steps are counted, not timed, so a noisy machine cannot flip the
    # result; ilqr.solve runs cold, so no coarse start enters its count.
    # L-BFGS-B stops on its relative reduction of Jd, short of tol
    prob, tab = pendulum(), builtin("methodB")
    counts = {}
    for N in (100, 250):
        state, log, _ = ilqr.solve(prob, tab, N, tol=1e-8)

        def cost_and_gradient(U, N=N):
            point = ilqr.rollout(prob, tab, N, U)
            return point.Jd, ilqr.gradient(prob, tab, point).ravel()

        direct = minimize(cost_and_gradient, np.zeros(N * tab.s * prob.m), jac=True, method="L-BFGS-B",
                          options={"gtol": 1e-14, "ftol": 1e-16})
        assert direct.fun == pytest.approx(state.Jd, rel=1e-10)  # the same optimum
        assert len(log) <= 10 and direct.nfev > 100, (N, len(log), direct.nfev)
        counts[N] = (len(log), direct.nfev)
    _pass("criterion 16: ILQR iterations against L-BFGS-B evaluations "
          + ", ".join(f"N={N} {it} vs {nfev}" for N, (it, nfev) in counts.items()))


def _rate_pencil(prob, tab, N):
    """U*, the metric W at U* and the pencil (hess J_d, W): its eigenvalues and W-unit eigenvectors.

    hess J_d is central differences (step 1e-5) of ``oracle.grad_exact``, symmetrized.
    """
    U_star = ilqr.solve(prob, tab, N, tol=1e-11)[0].U
    W = oracle.quasi_newton(prob, tab, N, U_star).W
    shifts = 1e-5 * np.eye(U_star.size).reshape(-1, *U_star.shape)
    hess = np.array([oracle.grad_exact(prob, tab, N, U_star + d) - oracle.grad_exact(prob, tab, N, U_star - d)
                     for d in shifts]).reshape(U_star.size, -1) / 2e-5
    lam, V = scipy.linalg.eigh(0.5 * (hess + hess.T), W)
    return U_star, W, lam, V


def _observed_ratios(prob, tab, N, U_star, W, v, alpha):
    """Ratios of successive W-norm errors of fixed-step iterations from U* + 1e-4 v, while the error exceeds 1e-9."""
    U, errors = U_star + 1e-4 * v.reshape(U_star.shape), []
    while True:
        e = (U - U_star).ravel()
        errors.append(np.sqrt(e @ W @ e))
        if errors[-1] <= 1e-9 or len(errors) > 200:
            return np.array(errors[1:]) / errors[:-1]
        state = ilqr.rollout(prob, tab, N, U)
        steps = ilqr.linearize(prob, tab, state)
        bp = ilqr.backward(prob, tab, steps)
        U = U + alpha * ilqr.direction(state, bp, steps)[0]


def test_criterion_17_linear_rate_predicted_and_observed():
    # the paper's linear rate: near U* a step U + alpha dU, dU = -W^-1 grad J_d,
    # contracts the error by rho(alpha) = max_i |1 - alpha lambda_i| over the
    # pencil's eigenvalues, and the error along the eigenvector attaining it
    # shrinks by exactly that factor.  On pendulum_tanh the metric misses up
    # to a factor 6 of curvature, so alpha = 1 would diverge
    tab, rows, rho_one = builtin("methodB"), [], {}
    for prob, N, alphas in [(pendulum(), 16, (1.0, 0.5)), (pendulum(), 32, (1.0,)), (pendulum_tanh(), 16, (0.25, 0.3))]:
        U_star, W, lam, V = _rate_pencil(prob, tab, N)
        for alpha in alphas:
            i = np.argmax(np.abs(1.0 - alpha * lam))
            rho = abs(1.0 - alpha * lam[i])
            ratios = _observed_ratios(prob, tab, N, U_star, W, V[:, i], alpha)
            assert len(ratios) >= 3 and np.abs(ratios - rho).max() <= 0.01, (prob.name, N, alpha, rho, ratios)
            rows.append(f"{prob.name} N={N} alpha={alpha} rho {rho:.4f} observed {ratios.min():.4f}-{ratios.max():.4f}")
            if prob.name == "pendulum" and alpha == 1.0:
                rho_one[N] = rho
    assert abs(rho_one[16] - rho_one[32]) <= 0.01, rho_one  # the rate does not depend on h
    _pass("criterion 17: " + "; ".join(rows))


def test_criterion_18_implicit_node_orders_on_the_pendulum(capsys):
    # the implicit tableaus' control orders 4, 5 and 6 on a nonlinear problem,
    # each on a grid whose finest error (3.97e-9, 4.82e-9, 3.90e-9) stays above
    # 100 STUDY_TOL, so no sample warns.  Measured fitted slopes, with those of
    # adjacent pairs: Gauss2 3.980 (3.96, 4.03, 3.98), Radau IIA3 4.948 (4.88,
    # 5.02), Gauss3 5.977 (5.88, 6.08)
    t0 = time.perf_counter()
    rows = []
    for tab, grid in ((GAUSS2, [0.2, 0.1, 0.08, 0.05]), (RADAU2A3, [0.4, 0.2, 0.1]), (GAUSS3, [0.8, 0.4, 0.2])):
        study = run_order_study(pendulum(), tab, grid, "node")
        r = ocp_order(tab)
        h, e = np.log(study.samples).T
        pairs = np.diff(e) / np.diff(h)
        assert study.fitted_slope == pytest.approx(r, abs=0.2), (tab.name, study.fitted_slope)
        assert all(abs(slope - r) <= 0.3 for slope in pairs), (tab.name, pairs)
        rows.append(f"{tab.name} {study.fitted_slope:.3f} (pairs " + ", ".join(f"{p:.2f}" for p in pairs) + ")")
    assert capsys.readouterr().err == ""
    _pass(f"criterion 18: pendulum node slopes {'; '.join(rows)} ({time.perf_counter() - t0:.2f}s)")
