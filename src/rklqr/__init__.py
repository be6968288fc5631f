"""Feedback solvers for quadratic optimal control under Runge-Kutta discretization.

Modules:
  tableau  - Butcher tableaus, symplectic adjoint pairs, stage order checks
  problem  - continuous-time problem definitions and builtin benchmarks
  dlqr     - discrete LQR pipeline for linear-quadratic problems
  ilqr     - iterative LQR for nonlinear quadratic problems
  oracle   - brute-force KKT solve, its own rollout, gradient checks, quasi-Newton matrices
  cli      - command-line harness (solve / order-study / tableau / gradcheck)
  csvformat - the CLI's CSV lines, byte for byte those of %.17g, made by numpy
"""

from . import dlqr, errors, ilqr, oracle, problem, tableau

__all__ = ["cli", "dlqr", "errors", "ilqr", "oracle", "problem", "tableau"]
__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use: ``python -m rklqr.cli`` warns when the package
    # has already imported the module it is about to run as __main__
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
