"""CLI surface: slope fitting, subcommands, CSV formats, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rklqr import cli
from rklqr.errors import NoFit

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

    def test_unknown_problem_exits_2(self, capsys):
        rc = cli.main(["solve", "--problem", "nosuch", "--method", "methodA", "--steps", "4"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_method_exits_2(self):
        rc = cli.main(["solve", "--problem", "spring", "--method", "rk99", "--steps", "4"])
        assert rc == 2

    @pytest.mark.parametrize("steps", ["0", "-3"])
    @pytest.mark.parametrize("problem", ["spring", "pendulum"])
    def test_nonpositive_steps_exit_2(self, capsys, problem, steps):
        rc = cli.main(["solve", "--problem", problem, "--method", "methodB", "--steps", steps])
        assert rc == 2
        assert capsys.readouterr().err == "error: N must be >= 1\n"

    def test_missing_args_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--problem", "spring"])
        assert exc.value.code == 2


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

    def test_node_study_on_file_problem(self, tmp_path):
        spec = tmp_path / "prob.json"
        spec.write_text('{"kind": "builtin", "name": "example31"}')
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
    ], ids=["zero-h", "nan-h", "negative-h", "inf-h", "zero-refine"])
    def test_bad_step_or_refinement_exits_2(self, capsys, extra, message):
        rc = cli.main(["order-study", "--problem", "pendulum", "--method", "methodB", *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stage_out_of_range_exits_2(self):
        rc = cli.main(["order-study", "--problem", "example31", "--method", "methodA",
                       "--h-grid", "0.1,0.05,0.025", "--target", "stage:7"])
        assert rc == 2


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
        rc = cli.main(["tableau", "--method", str(spec), "--order", "1"])
        assert rc == 0
        assert "adjoint undefined" in capsys.readouterr().out

    def test_custom_tableau_without_order_skips_report(self, tmp_path, capsys):
        spec = tmp_path / "tab.json"
        spec.write_text('{"s": 2, "a": [0, 0, 1, 0], "b": [0.5, 0.5], "name": "heun-like"}')
        rc = cli.main(["tableau", "--method", str(spec)])
        assert rc == 0
        assert "skipped" in capsys.readouterr().out


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

    def test_linear_problem_rejected(self, capsys):
        rc = cli.main(["gradcheck", "--problem", "spring", "--method", "euler",
                       "--steps", "3", "--seed", "0"])
        assert rc == 2
