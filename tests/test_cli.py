"""CLI surface: slope fitting, subcommands, CSV formats, exit codes."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from fixtures import CLOSED_LOOP, HUGE_START, MIDPOINT, OVERFLOW, RALSTON3, STIFF_ACTUATOR, ZERO_VALUE, write_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from rklqr import cli, csvformat, ilqr
from rklqr.dlqr import DiscreteTrajectory
from rklqr.errors import NoFit, RolloutDiverged
from rklqr.ilqr import IterateRecord
from rklqr.problem import builtin_problem
from rklqr.tableau import builtin

# expected max internal-control errors for the scalar benchmark (3 significant
# digits), methodC stage 4 and methodA stage 1, at the listed step sizes
METHODC_STAGE4 = {0.1: 1.11e-5, 0.05: 1.55e-6, 0.04: 8.08e-7, 0.02: 1.05e-7, 0.01: 1.34e-8}
METHODA_STAGE1 = {0.1: 2.40e-3, 0.05: 5.94e-4, 0.04: 3.79e-4, 0.02: 9.43e-5, 0.01: 2.35e-5}


class TestFitOrder:
    def test_exact_power_law(self):
        samples = [(h, h**2) for h in (0.1, 0.05, 0.025)]
        assert cli.fit_order(samples) == pytest.approx(2.0, abs=1e-12)

    def test_reference_column_slopes(self):
        # np.polyfit doubles as the in-test oracle for the same fit
        for table, expect in ((METHODA_STAGE1, 2.0), (METHODC_STAGE4, 2.9)):
            samples = sorted(table.items(), reverse=True)
            slope = cli.fit_order(samples)
            check = np.polyfit(np.log([h for h, _ in samples]), np.log([e for _, e in samples]), 1)[0]
            assert slope == pytest.approx(check, abs=1e-12)
            assert slope == pytest.approx(expect, abs=0.1)

    def test_nonpositive_errors_dropped(self, capsys):
        samples = [(0.1, 1e-2), (0.05, 0.0), (0.025, 6.25e-4), (0.0125, 1.5625e-4)]
        slope = cli.fit_order(samples)
        assert "dropping" in capsys.readouterr().err
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_no_fit(self):
        with pytest.raises(NoFit):
            cli.fit_order([(0.1, 1.0), (0.05, 0.25)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_error_dropped_with_its_h(self, capsys, bad):
        slope = cli.fit_order([(0.1, 1e-2), (0.05, bad), (0.04, 1e-3), (0.02, 1e-4)])
        assert f"dropping error {bad!r} at h = 0.05" in capsys.readouterr().err
        want = np.polyfit(np.log([0.1, 0.04, 0.02]), np.log([1e-2, 1e-3, 1e-4]), 1)[0]
        assert slope == pytest.approx(want, abs=1e-12)

    def test_two_nonfinite_errors_of_four_leave_no_fit(self, capsys):
        with pytest.raises(NoFit, match="have 2$"):
            cli.fit_order([(0.1, 1e-2), (0.05, np.nan), (0.04, np.inf), (0.02, 1e-4)])
        err = capsys.readouterr().err
        assert "at h = 0.05" in err and "at h = 0.04" in err

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.05], ids=["nan", "zero", "negative"])
    def test_step_size_not_finite_and_positive_dropped(self, capsys, bad):
        # the log of such an h is NaN or -inf, which least squares cannot fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = cli.fit_order([(0.1, 1e-2), (bad, 1e-3), (0.04, 1e-3), (0.02, 1e-4)])
        assert f"dropping error 0.001 at h = {bad!r}" in capsys.readouterr().err
        want = np.polyfit(np.log([0.1, 0.04, 0.02]), np.log([1e-2, 1e-3, 1e-4]), 1)[0]
        assert slope == pytest.approx(want, abs=1e-12)

    def test_bad_step_sizes_leave_no_fit(self, capsys):
        with pytest.raises(NoFit, match="have 2$"):
            cli.fit_order([(0.1, 1e-2), (np.nan, 1e-3), (-0.04, 1e-3), (0.02, 1e-4)])
        err = capsys.readouterr().err
        assert "at h = nan" in err and "at h = -0.04" in err


class TestSolveCommand:
    def test_trajectory_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = cli.main(["solve", "--problem", "example31", "--method", "methodC",
                       "--steps", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,t,x_1,u_1,p_1"
        assert len(lines) == 12  # header + N+1 nodes
        assert "Jd =" in capsys.readouterr().out

    def test_csv_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cli.main(["solve", "--problem", "spring", "--method", "methodB",
                      "--steps", "20", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_pendulum_solve_with_log(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        log = tmp_path / "log.csv"
        rc = cli.main(["solve", "--problem", "pendulum", "--method", "methodB",
                       "--steps", "50", "--out", str(out), "--log", str(log)])
        assert rc == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iter,Jd,grad_inf_norm,step_norm,alpha,slope"
        jds = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(a >= b for a, b in zip(jds, jds[1:]))
        assert all(float(row.split(",")[5]) < 0 for row in lines[1:])  # descent directions
        assert "iterations =" in capsys.readouterr().out
        # a solve without iterations, a linear one included, writes the header alone
        for problem, tol in (("pendulum", "inf"), ("spring", "1e-8")):
            rc = cli.main(["solve", "--problem", problem, "--method", "methodB", "--steps", "20",
                           "--tol", tol, "--log", str(log)])
            assert rc == 0 and log.read_text() == lines[0] + "\n"

    def test_pendulum_tanh_nodes_are_stationary(self, tmp_path, capsys):
        # the builtin whose input is not affine: its node controls come from Newton
        out = tmp_path / "tanh.csv"
        rc = cli.main(["solve", "--problem", "pendulum_tanh", "--method", "methodB",
                       "--steps", "200", "--out", str(out)])
        assert rc == 0 and "N = 200" in capsys.readouterr().out
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (201, 7)
        x, u, p = table[:, 2:4], table[:, 4:5], table[:, 5:7]
        prob, _ = builtin_problem("pendulum_tanh")
        _, Ju = prob.stage_jacobians(x, u)
        Jup, Ru = (Ju * p[:, :, None]).sum(axis=1), u @ prob.R
        assert np.all(np.abs(Jup + Ru) <= 1e-10 * np.maximum(np.abs(Jup), np.abs(Ru)))

    def test_unknown_problem_exits_2(self, capsys):
        rc = cli.main(["solve", "--problem", "nosuch", "--method", "methodA", "--steps", "4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: problem 'nosuch' is neither builtin nor a readable file\n")

    def test_unknown_method_exits_2(self, capsys):
        rc = cli.main(["solve", "--problem", "spring", "--method", "rk99", "--steps", "4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: method 'rk99' is neither builtin nor a readable file\n")

    @pytest.mark.parametrize("option, spec, message", [
        ("--method", {"a": [[0, 0], [0.5, 0]], "b": [0, 1]},
         "malformed tableau spec: missing field 's' (needs s, a, b)"),
        ("--problem", {"kind": "lq", "m": 1},
         "malformed problem spec: missing field 'n' (needs n, m, A, B, Q, R, M, x0, tf)"),
        # a size that is present but not an integer, which int() would truncate
        ("--method", {"s": 2.7, "a": [0, 0, 1, 0], "b": [0.5, 0.5]},
         "malformed tableau spec: s = 2.7 is not a positive integer"),
        ("--problem", {"kind": "lq", "n": 1.9, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                       "M": [0], "x0": [1], "tf": 1},
         "malformed problem spec: n = 1.9 is not a positive integer"),
        # a top level that is not an object
        ("--method", [1, 2], "malformed tableau spec: expected a JSON object at the top level, got list"),
        ("--problem", [1, 2], "malformed problem spec: expected a JSON object at the top level, got list"),
        # strings and booleans are not numbers, though numpy would read them as such
        ("--problem", {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                       "M": [0], "x0": [1], "tf": "4"},
         "malformed problem spec: tf holds '4', not a JSON number"),
        ("--problem", {"kind": "lq", "n": 1, "m": 1, "A": [0], "B": [1], "Q": [1], "R": [1],
                       "M": [0], "x0": [True], "tf": 1},
         "malformed problem spec: x0 holds True, not a JSON number"),
        ("--method", {"s": 2, "a": [0, 0, 1, 0], "b": ["0.5", "0.5"]},
         "malformed tableau spec: b holds '0.5', not a JSON number"),
        # a builtin problem is named directly, not through a spec
        ("--problem", {"kind": "builtin", "name": "spring"}, "malformed problem spec: unknown kind 'builtin'"),
    ], ids=["tableau", "problem", "tableau-size", "problem-size", "tableau-array", "problem-array",
            "problem-string", "problem-bool", "tableau-string", "problem-builtin"])
    def test_spec_missing_field_exits_2(self, tmp_path, capsys, option, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        args = {"--problem": "spring", "--method": "methodA", option: str(path)}
        rc = cli.main(["solve", *(tok for pair in args.items() for tok in pair), "--steps", "4"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("option", ["--problem", "--method"])
    def test_directory_spec_exits_2(self, tmp_path, capsys, option):
        args = {"--problem": "spring", "--method": "methodA", option: str(tmp_path)}
        rc = cli.main(["solve", *(tok for pair in args.items() for tok in pair), "--steps", "4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {option[2:]} {str(tmp_path)!r} is neither builtin nor a readable file\n")

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, option):
        path = tmp_path / "missing" / "out.csv"
        rc = cli.main(["solve", "--problem", "pendulum", "--method", "methodB", "--steps", "20", option, str(path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    @pytest.mark.parametrize("problem", ["spring", "pendulum"])
    def test_nonpositive_steps_exit_2(self, capsys, problem, steps):
        rc = cli.main(["solve", "--problem", problem, "--method", "methodB", "--steps", steps])
        assert rc == 2
        assert capsys.readouterr().err == "error: N must be >= 1\n"

    @pytest.mark.parametrize("extra, message", [
        (["--tol", "nan"], "error: tol must be a number > 0, not nan\n"),
        (["--tol", "0"], "error: tol must be a number > 0, not 0.0\n"),
        (["--max-iter", "0"], "error: max_iter must be an int >= 1, not 0\n"),
    ])
    @pytest.mark.parametrize("problem", ["spring", "pendulum"])
    def test_bad_stopping_rule_exits_2(self, capsys, problem, extra, message):
        # the linear problem takes no iteration, but gets the same check
        rc = cli.main(["solve", "--problem", problem, "--method", "methodB", "--steps", "50", *extra])
        assert rc == 2
        assert capsys.readouterr().err == message

    def test_missing_args_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--problem", "spring"])
        assert exc.value.code == 2

    def test_solver_failure_exits_1(self, tmp_path, capsys):
        # the midpoint rule weights stage 1 by 0, so the stage Hessians are
        # singular; the 200-step solve fails in its 25-step coarse start, at a
        # step that rounding picks, since every K is singular in exact arithmetic
        spec = tmp_path / "midpoint.json"
        write_spec(MIDPOINT, spec)
        rc = cli.main(["solve", "--problem", "pendulum", "--method", str(spec), "--steps", "200"])
        assert rc == 1
        err = re.fullmatch(r"solver failure: stage Hessian not positive definite at step (\d+), h = 0\.16\n",
                           capsys.readouterr().err)
        assert err and int(err.group(1)) < 25

    def test_near_singular_implicit_coupling_exits_1(self, capsys):
        # trapezoidal at h = 3: the iterates drive the implicit stage toward
        # cos(theta_2) = 4/9, where the coupling I - (h/2) Jx is singular, and
        # |F| reaches 1.35e7.  Kc's eigenvalues are then 0.125 and 7.95e14, so
        # it factors, and the smaller of K's rounds to 0 against 3.4e15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["solve", "--problem", "pendulum_tanh", "--method", "trapezoidal", "--steps", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "solver failure: stage Hessian not positive definite at step 0, h = 3.0\n"

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_stiff_costates_overflow_is_named(self, action):
        # h lambda = 25 at methodC N = 120 (lambda = 1000), past the explicit stability bound:
        # the costates' reverse scan through the unstable steps overflows, and
        # linearize names the largest bad k rather than a NaN gradient's
        # "rounding floor" or an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(RolloutDiverged, match=r"^costates not finite at step 45, h = 0\.025$") as exc:
                cli.solve_problem(STIFF_ACTUATOR, builtin("methodC"), 120)
        assert (exc.value.step, exc.value.h) == (45, 0.025)

    def test_overflow_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "big.json"
        write_spec(OVERFLOW, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["solve", "--problem", str(spec), "--method", "methodB", "--steps", "10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "solver failure: stage operators or Hessian not finite at step 9, h = 0.1\n")

    def test_closed_loop_overflow_exits_1(self, tmp_path, capsys):
        # the backward passes with every M rounded to 0, and the cost of the controls contradicts that value
        self._rollout_failure_exits_1(tmp_path, capsys, CLOSED_LOOP,
                                      "cost contradicts the value function at step 0, h = 0.1")

    @pytest.mark.parametrize("prob, err", [(ZERO_VALUE, "cost contradicts the value function at step 0, h = 0.1"),
                                           (HUGE_START, "cost not finite at step 0, h = 4.0")],
                             ids=["zero_value", "huge_start"])
    def test_cost_contradicting_its_value_exits_1(self, tmp_path, capsys, prob, err):
        # finite values whose cost is 1.6e100 against M = 0, or whose cost overflows
        self._rollout_failure_exits_1(tmp_path, capsys, prob, err)

    @staticmethod
    def _rollout_failure_exits_1(tmp_path, capsys, prob, err):
        spec, out = tmp_path / "big.json", tmp_path / "traj.csv"
        write_spec(prob, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["solve", "--problem", str(spec), "--method", "methodB", "--steps", "10",
                           "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"solver failure: {err}\n"
        assert not out.exists()


class TestCoarseStart:
    def test_cubic_lagrange_is_exact_on_cubics(self):
        rng = np.random.default_rng(11)
        coef = rng.standard_normal((4, 2))  # one cubic per column
        h, L = 0.3, 9

        def cubic(t):
            return np.polynomial.polynomial.polyval(t, coef).T

        t = np.concatenate([[0.0, L * h], rng.uniform(0.0, L * h, 50)])
        got = cli.cubic_lagrange(cubic(np.arange(L + 1) * h), h, t)
        np.testing.assert_allclose(got, cubic(t), rtol=0, atol=1e-12 * np.abs(cubic(t)).max())
        # further node values share the weights and come out as if interpolated alone
        nodes = cubic(np.arange(L + 1) * h)
        shared = cli.cubic_lagrange(nodes[:, :1], h, t, nodes[:, 1:], nodes)
        for got, v in zip(shared, (nodes[:, :1], nodes[:, 1:], nodes)):
            np.testing.assert_array_equal(got, cli.cubic_lagrange(v, h, t))

    def test_cubic_lagrange_needs_four_nodes(self):
        # three nodes of t would otherwise read 0.3125 at t = 0.5
        with pytest.raises(ValueError, match="at least 4 nodes, not 3"):
            cli.cubic_lagrange(np.array([[0.0], [1.0], [2.0]]), 1.0, np.array([0.5]))

    @pytest.mark.parametrize("start_steps, chain", [(200, [250, 2000]), (250, [2000]), (2000, [2000])])
    def test_start_replaces_the_rungs_it_covers(self, monkeypatch, start_steps, chain):
        # the ladder of 2000 is 31, 250, 2000; a start of 200 steps replaces
        # 31, one of 250 replaces 250 too, and one of 2000 still leaves N to solve
        prob, tab = builtin_problem("pendulum")[0], builtin("methodB")
        start, _ = cli.solve_problem(prob, builtin("methodC"), start_steps)
        levels, solve = [], ilqr.solve

        def recording_solve(prob, tab, N, **kwargs):
            levels.append((N, kwargs["U0"] is None))
            return solve(prob, tab, N, **kwargs)

        monkeypatch.setattr(ilqr, "solve", recording_solve)
        traj, _ = cli.solve_problem(prob, tab, 2000, start=start)
        assert levels == [(n, False) for n in chain]
        assert ilqr.scaled_residual(tab, traj, ilqr.gradient(prob, tab, traj)) < 1e-8

    @pytest.mark.parametrize("N, chain", [
        (199, [(199, 6)]), (200, [(25, 6), (200, 3)]), (2000, [(31, 6), (250, 3), (2000, 2)]),
    ])
    def test_coarse_levels(self, monkeypatch, N, chain):
        # N // 8 >= 25 solves at N // 8 first, and so on down; below 200 steps
        # the solve starts cold.  A fine level gets the coarse controls and
        # states, so its first rollout makes a few batched f calls, not the
        # cold start's 5 or 6 (each chain entry: steps, f calls there).  The
        # levels are one loop inside a single solve_problem call, and each
        # linearizes every iterate it reaches once, its costates included
        base = builtin_problem("pendulum")[0]
        f_calls, levels, solve, rollout = [0], [], ilqr.solve, ilqr.rollout
        entries, solve_problem, linearize, linearized, iterates = [0], cli.solve_problem, ilqr.linearize, [], []

        def counting_solve_problem(*args, **kwargs):
            entries[0] += 1
            return solve_problem(*args, **kwargs)

        def counting_f(X, U):
            f_calls[0] += 1
            return base.f_fn(X, U)

        def recording_solve(prob, tab, N, **kwargs):
            levels.append([N, kwargs["U0"] is None, kwargs["X0"] is None, None])
            linearized.append(0)
            out = solve(prob, tab, N, **kwargs)
            iterates.append(len(out[1]) + 1)
            return out

        def counting_linearize(*args):
            linearized[-1] += 1
            return linearize(*args)

        def recording_rollout(prob, tab, N, U, X=None):
            before = f_calls[0]
            out = rollout(prob, tab, N, U, X)
            if levels[-1][3] is None:  # the level's first rollout
                levels[-1][3] = f_calls[0] - before
            return out

        monkeypatch.setattr(ilqr, "solve", recording_solve)
        monkeypatch.setattr(ilqr, "rollout", recording_rollout)
        monkeypatch.setattr(ilqr, "linearize", counting_linearize)
        monkeypatch.setattr(cli, "solve_problem", counting_solve_problem)
        cli.solve_problem(dataclasses.replace(base, f_fn=counting_f), builtin("methodB"), N)
        cold = chain[0][0]
        assert levels == [[n, n == cold, n == cold, calls] for n, calls in chain]
        assert entries == [1]
        assert linearized == iterates

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 keeps call arguments alive in the caller until the call returns")
    def test_fine_rung_frees_its_start_states_after_the_first_rollout(self, monkeypatch):
        # solve_problem keeps no name for the interpolated start and
        # ilqr.solve drops X0 after its first rollout, so the X0 buffer of
        # the finest rung (250 steps, started from 31) is gone by the time
        # that rung first linearizes
        prob, tab = builtin_problem("pendulum")[0], builtin("methodB")
        starts, checked = [], []

        def recording_cubic_lagrange(u, h, t, *more):
            out = cubic_lagrange(u, h, t, *more)
            if more:  # the controls and then the states, whose result X0 reshapes
                starts.append(weakref.ref(out[-1]))
            return out

        def checked_linearize(prob, tab, state):
            if state.N == 250 and not checked:
                gc.collect()
                checked.append(starts[-1]() is None)
            return linearize(prob, tab, state)

        cubic_lagrange, linearize = cli.cubic_lagrange, ilqr.linearize
        monkeypatch.setattr(cli, "cubic_lagrange", recording_cubic_lagrange)
        monkeypatch.setattr(ilqr, "linearize", checked_linearize)
        cli.solve_problem(prob, tab, 250)
        assert len(starts) == 1 and checked == [True]

    @pytest.mark.parametrize("method, N", [("methodB", 2000), ("trapezoidal", 400)])
    def test_coarse_chain_agrees_with_a_cold_solve(self, method, N):
        # both stop below the same stage-scaled gradient, so they agree to
        # its level, not to rounding (measured 2.6e-9 and 1.6e-8 in U)
        prob, tab = builtin_problem("pendulum")[0], builtin(method)
        cold, _, _ = ilqr.solve(prob, tab, N)
        traj, info = cli.solve_problem(prob, tab, N)
        assert info["iterations"] < 4
        for got, want in ((traj.U, cold.U), (traj.x, cold.x)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-7 * np.abs(want).max())

    @pytest.mark.parametrize("N", [75, 300, 1200, 2000])
    def test_pendulum_tanh_converges_at_the_default_tol(self, N):
        # near its optimum the cost changes by rounding only; with the Armijo
        # test alone the solves at 300, 1200 and 2000 steps stall above tol
        prob, tab = builtin_problem("pendulum_tanh")[0], builtin("methodB")
        traj, _ = cli.solve_problem(prob, tab, N)
        assert ilqr.scaled_residual(tab, traj, ilqr.gradient(prob, tab, traj)) < 1e-8


# awkward values for the %.17g writer: signed zero, extreme exponents,
# integer-valued floats and values that need all 17 digits
ODD_VALUES = [-0.0, 1e-300, 1e300, 3.0, -2.0, 0.1, -1 / 3, 2.0**60, 5e-324]


def _lines(header, rows):
    return "".join(",".join(r) + "\n" for r in [header, *rows])


class TestCsvWriters:
    def test_trajectory_bytes(self, tmp_path):
        N, h = 8, 0.1
        vals = np.resize(ODD_VALUES, (N + 1, 5))
        x, u, p = vals[:, :2], vals[:, 2:3], vals[:, 3:]
        traj = DiscreteTrajectory(U=None, X=None, x=x, Jd=0.0, h=h, p=p, u=u)
        path = tmp_path / "traj.csv"
        cli.write_trajectory_csv(path, traj)
        rows = [[str(k), f"{k * h:.17g}"] + [f"{v:.17g}" for v in vals[k]] for k in range(N + 1)]
        expected = _lines(["k", "t", "x_1", "x_2", "u_1", "p_1", "p_2"], rows)
        assert path.read_bytes() == expected.encode()

    def test_order_study_bytes(self, tmp_path):
        samples = list(zip(ODD_VALUES[::-1], ODD_VALUES))
        path = tmp_path / "study.csv"
        cli.write_order_study_csv(path, cli.OrderStudy("m", "node", samples, 1.0))
        expected = _lines(["h", "max_error"], [[f"{h:.17g}", f"{e:.17g}"] for h, e in samples])
        assert path.read_bytes() == expected.encode()

    def test_iterate_log_bytes(self, tmp_path):
        recs = [IterateRecord(i + 1, *np.roll(ODD_VALUES, i)[:5]) for i in range(12)]
        path = tmp_path / "log.csv"
        cli.write_iterate_log_csv(path, recs)
        rows = [[str(r.iteration)] + [f"{v:.17g}" for v in (r.Jd, r.grad_inf_norm, r.step_norm,
                                                              r.alpha, r.slope)] for r in recs]
        expected = _lines(["iter", "Jd", "grad_inf_norm", "step_norm", "alpha", "slope"], rows)
        assert path.read_bytes() == expected.encode()

    @staticmethod
    def _check_table(path, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        cli._write_table(path, header, table)
        expected = _lines(header, [[f"{v:.17g}" for v in row] for row in table.tolist()])
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._TABLE_BLOCK + 1])
    def test_trajectory_blocks_match_percent(self, tmp_path, extra):
        # the trajectory writer stacks each block's rows from the columns:
        # one row short of a block, one block, one row past it and two
        # blocks and a row give the bytes of the whole table's check
        rows = cli._TABLE_BLOCK + extra
        rng = np.random.default_rng(rows)
        vals = rng.choice(np.concatenate([ODD_VALUES, rng.standard_normal(20)]), (rows, 5))
        traj = DiscreteTrajectory(U=None, X=None, x=vals[:, :2], Jd=0.0, h=0.1, p=vals[:, 3:], u=vals[:, 2:3])
        k = np.arange(rows)
        self._check_table(tmp_path / "table.csv", np.column_stack([k, k * traj.h, vals]))
        cli.write_trajectory_csv(tmp_path / "traj.csv", traj)
        table, written = ((tmp_path / name).read_bytes().split(b"\n", 1) for name in ("table.csv", "traj.csv"))
        assert written[0] == b"k,t,x_1,x_2,u_1,p_1,p_2" and written[1] == table[1]

    @given(st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64)))), min_size=1, max_size=60),
        st.integers(0, 300), st.integers(1, 7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_any_table_matches_percent(self, tmp_path_factory, values, rows, cols, rng):
        # floats() brings signed zeros, subnormals, infinities and nan, raw
        # 64-bit patterns every exponent; the table repeats the drawn values
        table = np.array([rng.choice(values) for _ in range(rows * cols)]).reshape(rows, cols)
        self._check_table(tmp_path_factory.mktemp("csv") / "t.csv", table)

    def test_hard_cases_match_percent(self, tmp_path):
        # neighbours of powers of ten, where log10 misjudges the exponent
        # (1e-12 is 9.9999999999999998e-13), integers, step grids k h,
        # exact ties m 2^-j (j = 2 halves the 17th digit) and the edges of the
        # range the kernel formats itself
        tens = np.array([float(f"1e{k}") for k in range(-30, 18)])
        near = np.concatenate([tens, [1e-28, 1e17, 2.0**53]])
        m = np.arange(2.0**53 - 300, 2.0**53)
        signed = np.concatenate([np.nextafter(near, 0.0), near, np.nextafter(near, np.inf),
                                 (m[:, None] * 2.0 ** -np.arange(1, 61)).ravel()])
        k = np.arange(10**5 + 1.0)
        values = np.concatenate([signed, -signed, k, -k[1:], k * 0.01, k * (4 / 31)])
        values = np.append(values, np.zeros(-len(values) % 7))
        self._check_table(tmp_path / "hard.csv", values.reshape(-1, 7))

    @pytest.mark.parametrize("problem, method, N", [
        ("pendulum", "trapezoidal", 400), ("pendulum", "methodB", 2000), ("spring", "methodC", 4000)])
    def test_bench_trajectories_rarely_reach_percent(self, tmp_path, monkeypatch, problem, method, N):
        # the kernel leaves to % the values whose exponent it may misjudge:
        # the powers of ten of these tables, 5-9 each; the writer stays fast
        # only while such values stay this rare
        decimal, by_percent = csvformat._decimal, []

        def counted(v):
            out = decimal(v)
            by_percent.append(int(np.count_nonzero(out[3] & (v != 0))))
            return out

        traj, _ = cli.solve_problem(builtin_problem(problem)[0], builtin(method), N)
        monkeypatch.setattr(csvformat, "_decimal", counted)
        cli.write_trajectory_csv(tmp_path / "traj.csv", traj)
        assert by_percent and sum(by_percent) <= 16

    @pytest.mark.parametrize("problem, method, N, percent_kib", [
        ("pendulum", "trapezoidal", 400, 183), ("pendulum", "methodB", 2000, 523),
        ("spring", "methodC", 4000, 682)])
    def test_trajectory_writer_memory(self, tmp_path, problem, method, N, percent_kib):
        # the bench trajectories: formatting them by % in 1024-row blocks
        # peaked at percent_kib; the kernel's blocks may take 150 KiB more at
        # most, so the writer lifts no workload's resident high-water
        traj, _ = cli.solve_problem(builtin_problem(problem)[0], builtin(method), N)
        path = tmp_path / "traj.csv"
        cli.write_trajectory_csv(path, traj)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cli.write_trajectory_csv(path, traj)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= (percent_kib + 150) * 1024


class TestOrderStudyCommand:
    def test_stage_study_matches_reference_errors(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodC",
                       "--h-grid", "0.1,0.05,0.04,0.02,0.01", "--target", "stage:4",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h,max_error"
        got = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        for h, expected in METHODC_STAGE4.items():
            assert got[h] == pytest.approx(expected, rel=0.05)
        assert "fitted slope" in capsys.readouterr().out

    def test_builtin_problem_uses_its_analytic_reference(self, monkeypatch):
        monkeypatch.setattr(cli, "build_reference", None)  # a fine-grid reference would raise TypeError
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodA",
                       "--h-grid", "0.1,0.05,0.025"])
        assert rc == 0

    def test_node_study_on_file_problem(self, tmp_path):
        spec = tmp_path / "prob.json"
        # example31 as a spec: no analytic reference, so the study solves one
        write_spec(builtin_problem("example31")[0], spec)
        rc = cli.main(["order-study", "--problem", str(spec), "--method", "methodA",
                       "--h-grid", "0.1,0.05,0.025"])
        assert rc == 0

    def test_bad_target_exits_2(self):
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodA",
                       "--h-grid", "0.1,0.05,0.025", "--target", "everything"])
        assert rc == 2

    @pytest.mark.parametrize("extra, message", [
        (["--h-grid", "0.1,0.05,0"], "step 0.0 must be finite and positive"),
        (["--h-grid", "0.1,nan,0.04"], "step nan must be finite and positive"),
        (["--h-grid", "0.1,-0.05,0.04"], "step -0.05 must be finite and positive"),
        (["--h-grid", "0.1,inf,0.04"], "step inf must be finite and positive"),
        (["--h-grid", "0.1,0.05,0.04", "--ref-refine", "0"], "ref_refine 0 must be >= 1"),
        (["--h-grid", ","], "the step grid is empty"),
        (["--h-grid", "0.1,0.05,0.03,0.02"], "step 0.03 does not divide tf = 4.0"),
        (["--h-grid", "0.1,0.07"], "step 0.07 does not divide tf = 4.0"),
    ], ids=["zero-h", "nan-h", "negative-h", "inf-h", "zero-refine", "empty-grid", "h-not-dividing-tf",
            "coarse-h-not-dividing-tf"])
    def test_bad_step_or_refinement_exits_2(self, monkeypatch, capsys, extra, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the step grid was checked")

        monkeypatch.setattr(cli, "solve_problem", no_solve)
        rc = cli.main(["order-study", "--problem", "pendulum", "--method", "methodB", *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf], ids=repr)
    def test_step_count_rejects_a_step_not_finite_and_positive(self, h):
        # one check of a step, read by the study's grid and its reference alike
        with pytest.raises(ValueError, match=f"^step {re.escape(repr(h))} must be finite and positive$"):
            cli.step_count(builtin_problem("pendulum")[0], h)

    @pytest.mark.parametrize("target", ["bogus", "stage:9", "stage:x", "stage:0"])
    def test_bad_target_rejected_before_any_solve(self, monkeypatch, capsys, target):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the target was checked")

        monkeypatch.setattr(cli, "solve_problem", no_solve)
        rc = cli.main(["order-study", "--problem", "pendulum", "--method", "methodB",
                       "--h-grid", "0.1,0.05,0.04", "--target", target])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unknown target {target!r} (use node or stage:<i> with 1 <= i <= 3)\n")

    def _record_starts(self, monkeypatch):
        starts, solve_problem = [], cli.solve_problem

        def recording(prob, tab, N, **kwargs):
            start = kwargs.get("start")
            starts.append((tab.name, N, None if start is None else len(start.u) - 1, kwargs.get("tol")))
            return solve_problem(prob, tab, N, **kwargs)

        monkeypatch.setattr(cli, "solve_problem", recording)
        return starts

    def test_study_solves_coarsest_first_each_from_the_one_before(self, monkeypatch):
        # N = 2 has three nodes, too few for cubic_lagrange, so N = 4 starts
        # cold; the reference (N = 160) starts from the finest sample
        starts = self._record_starts(monkeypatch)
        study = cli.run_order_study(builtin_problem("pendulum")[0], builtin("methodB"), [0.25, 2, 1, 0.5],
                                    "node", ref_refine=10)
        assert starts == [("methodB", 2, None, cli.STUDY_TOL), ("methodB", 4, None, cli.STUDY_TOL),
                          ("methodB", 8, 4, cli.STUDY_TOL), ("methodB", 16, 8, cli.STUDY_TOL),
                          ("methodC", 160, 16, cli.STUDY_TOL)]
        assert [h for h, _ in study.samples] == [2.0, 1.0, 0.5, 0.25]

    def test_reference_after_a_sample_of_three_nodes_starts_cold(self, monkeypatch):
        starts = self._record_starts(monkeypatch)
        with pytest.raises(NoFit):
            cli.run_order_study(builtin_problem("pendulum")[0], builtin("methodB"), [4, 2], "node", ref_refine=10)
        assert [start for _, _, start, _ in starts] == [None, None, None]
        assert starts[-1][:2] == ("methodC", 20)

    def test_warns_on_errors_near_the_solve_tolerance(self, capsys):
        # methodC's error at h = 0.01 is about 1.3e-10, 6.5 STUDY_TOL; at 0.02 it is 3.2e-9
        rc = cli.main(["order-study", "--problem", "pendulum", "--method", "methodC",
                       "--h-grid", "0.04,0.02,0.01", "--ref-refine", "10"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"warning: error \S+ at h = 0\.01 is within 100x of the solve tolerance 2e-11", err[0])

    def test_direct_solves_do_not_warn(self, capsys):
        # example31 is linear: methodC's errors at h = 0.02 and 0.01 (8.3e-10,
        # 5.2e-11) are below 100 STUDY_TOL, but DLQR solves without a tolerance
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodC",
                       "--h-grid", "0.1,0.05,0.02,0.01"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_off_grid_reference_time_exits_2(self, capsys):
        # the reference grid of h = 4 / 1 has no node at 5, the first node of h = 5
        rc = cli.main(["order-study", "--problem", "spring", "--method", "euler",
                       "--h-grid", "8,5,4", "--ref-refine", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: time 5.0 is not a node of the reference grid\n"

    def test_stage_out_of_range_exits_2(self):
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodA",
                       "--h-grid", "0.1,0.05,0.025", "--target", "stage:7"])
        assert rc == 2


class TestMaxError:
    @pytest.mark.parametrize("problem", ["example31", "spring"])
    def test_matches_a_loop_over_nodes_and_steps(self, problem):
        # the array expressions do the per-node arithmetic, so they agree exactly
        prob, reference = builtin_problem(problem)
        tab = builtin("methodC")
        if reference is None:
            reference = cli.build_reference(prob, tab, prob.tf / 400)
        traj, _ = cli.solve_problem(prob, tab, 50)

        def error(u, t):
            return np.linalg.norm(u - np.reshape(reference(np.array([t])), -1))

        node = max(error(traj.u[k], k * traj.h) for k in range(51))
        assert cli.max_node_error(traj, reference) == node
        for i in range(1, tab.s + 1):
            stage = max(error(traj.U[k].reshape(tab.s, -1)[i - 1], (k + tab.c[i - 1]) * traj.h)
                        for k in range(50))
            assert cli.max_stage_error(traj, tab, reference, i) == stage
        for i in (0, tab.s + 1):
            with pytest.raises(ValueError, match=rf"^stage {i} out of range 1\.\.4$"):
                cli.max_stage_error(traj, tab, reference, i)


def _predicted_orders(report: str):
    lines = report.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.split()[:2] == ["i", "q1"]) + 1
    return [int(ln.split()[-1]) for ln in lines[start:] if ln.strip()]


def test_module_entry_point_emits_no_runtime_warning():
    # python -m rklqr.cli must not find rklqr.cli already imported by the package
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "rklqr.cli", "tableau", "--method", "methodB"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0 and "method methodB" in out.stdout
    assert "RuntimeWarning" not in out.stderr
    # the package loads it on first use, as the bench reads rklqr.cli right after import rklqr
    code = ("import sys, rklqr; "
            "print('rklqr.cli' in sys.modules, rklqr.cli.solve_problem.__name__, hasattr(rklqr, 'nosuch'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False solve_problem False\n"), out.stderr


class TestTableauCommand:
    def test_methodC_report(self, capsys):
        rc = cli.main(["tableau", "--method", "methodC"])
        assert rc == 0
        outp = capsys.readouterr().out
        assert "predicted" in outp
        assert _predicted_orders(outp) == [3, 2, 2, 3]

    def test_trapezoidal_first_order_everywhere(self, capsys):
        cli.main(["tableau", "--method", "trapezoidal"])
        outp = capsys.readouterr().out
        assert _predicted_orders(outp) == [1, 1]
        assert "False" in outp

    def test_adjoint_undefined_note(self, tmp_path, capsys):
        spec = tmp_path / "tab.json"
        spec.write_text('{"s": 2, "a": [0, 0, 1, 0], "b": [1.0, 0.0], "name": "flat"}')
        rc = cli.main(["tableau", "--method", str(spec)])
        assert rc == 0
        outp = capsys.readouterr().out
        assert "adjoint undefined" in outp and "stage orders" not in outp

    def test_custom_tableau_gets_report(self, tmp_path, capsys):
        # Ralston's third-order method: classical order 3, control order 2,
        # and c_i != cbar_i at every stage
        spec = tmp_path / "tab.json"
        write_spec(RALSTON3, spec)
        rc = cli.main(["tableau", "--method", str(spec)])
        assert rc == 0
        outp = capsys.readouterr().out
        assert "stage orders at OCP order r = 2:" in outp
        assert _predicted_orders(outp) == [1, 1, 1]


class TestGradcheckCommand:
    def test_pendulum_passes(self, capsys):
        rc = cli.main(["gradcheck", "--problem", "pendulum", "--method", "euler",
                       "--steps", "3", "--seed", "42"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_dimension_small_instance(self, capsys):
        rc = cli.main(["gradcheck", "--problem", "pendulum", "--method", "methodB",
                       "--steps", "1", "--seed", "7"])
        assert rc == 0
        assert "of 3)" in capsys.readouterr().out  # s*m components at N = 1

    def test_fails_on_a_shifted_adjoint_gradient(self, monkeypatch, capsys):
        # the command checks ilqr.gradient, the gradient ilqr.solve stops on
        monkeypatch.setattr(ilqr, "gradient", lambda *args, gradient=ilqr.gradient: gradient(*args) + 1e-3)
        rc = cli.main(["gradcheck", "--problem", "pendulum", "--method", "euler",
                       "--steps", "3", "--seed", "42"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_linear_problem_passes(self, capsys):
        # the oracle reads LQ dynamics through f and stage_jacobians too
        rc = cli.main(["gradcheck", "--problem", "spring", "--method", "euler",
                       "--steps", "3", "--seed", "0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
