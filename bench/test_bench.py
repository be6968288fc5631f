"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent


def _run(args, cwd):
    out = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout.strip().splitlines()


def test_two_runs_of_one_seed_give_identical_counts():
    args = ["--workload", "ilqr_pendulum_trap400", "--seed", "7", "--seconds", "1.6", "--trace", "1"]
    results = []
    for _ in range(2):
        rc, lines = _run(args, HERE.parent)
        assert rc == 0
        results.append(json.loads(lines[-1]))
    a, b = results
    assert a["correct"] and b["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]) == (2, 0)
    counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
    assert "ilqr.iterations" in counts and "problem.f.calls" in counts
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _run(["--workload", "dlqr_spring_c4000", "--seed", "1", "--seconds", "1"], tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


def test_absent_layers_are_reported_and_every_wrapper_is_restored():
    def solve_problem(*a):
        return "solved"

    cli = types.SimpleNamespace(solve_problem=solve_problem)
    rec = spans.Recorder(kernel=lambda: 1e-3)
    with pytest.raises(RuntimeError):
        with spans.wrapped_layers({"cli": cli}, rec) as absent:
            assert cli.solve_problem is not solve_problem
            assert cli.solve_problem() == "solved"
            raise RuntimeError("unit failed")
    assert cli.solve_problem is solve_problem
    assert "cli.write_trajectory_csv" in absent and "ilqr.linearize" in absent
    assert "cli.solve_problem" not in absent


def test_timer_cuts_units_and_spans_exclude_kernel_time():
    def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass

    rec = spans.Recorder(kernel=lambda: 1e-3, period=0.005)
    with pytest.raises(RuntimeError):
        rec.begin_unit(0, tracing=False)  # the timer's handler is not installed
    inner = rec.wrap("ilqr.rollout", busy)
    outer = rec.wrap("ilqr.solve", lambda: inner())
    before = signal.getsignal(signal.SIGALRM)
    with rec:
        rec.begin_unit(0, tracing=True)
        outer()
        wall, cal, segments = rec.end_unit()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    (o_name, o_start, o_end, o_parent, _, _), (i_name, _, _, i_parent, _, _) = rec.spans
    assert (o_name, o_parent, i_name, i_parent) == ("ilqr.solve", -1, "ilqr.rollout", 0)
    assert segments >= 5 and cal == pytest.approx(wall / 1e-3)
    assert o_end - o_start <= wall


def test_tail_has_ten_values_beyond_it():
    values = list(range(1, 31))
    assert run.tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert run.tail(list(range(20))) == (9.5, 50.0)
