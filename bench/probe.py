"""What one rklqr command pays before its first solve.

Run as a script, it imports numpy, scipy and rklqr from the given source
directory, builds the workload's problem and tableau, warms them up and
prints ``ready``; the benchmark times a fresh interpreter from start to that
line to get ``setup_s``.  The benchmark process calls ``prepare`` itself, so
both pay for the same set-up.

    python3 bench/probe.py <src dir> <problem> <method> <scratch dir>
"""

import os
import sys

WARM_STEPS = 8


def prepare(problem_name, method, scratch_dir):
    """Import the package, build problem and tableau, run a tiny solve and CSV write."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    from rklqr import cli, problem, tableau

    prob, _ = problem.builtin_problem(problem_name)
    tab = tableau.builtin(method)
    traj, _ = cli.solve_problem(prob, tab, WARM_STEPS)
    if method != "methodC":
        cli.solve_problem(prob, tableau.builtin("methodC"), WARM_STEPS)
    cli.write_trajectory_csv(os.path.join(scratch_dir, "warm.csv"), traj)
    return prob, tab


if __name__ == "__main__":
    src, problem_name, method, scratch_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    prepare(problem_name, method, scratch_dir)
    print("ready", flush=True)
