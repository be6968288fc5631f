"""Exception types raised across the solver toolkit."""


class SolverError(Exception):
    """Base class for all toolkit errors."""


class AdjointUndefined(SolverError):
    """Adjoint coefficients require strictly positive weights b_i."""


class NotFound(SolverError):
    """Unknown builtin tableau or problem name."""


class DegenerateFamily(SolverError):
    """Family parameter hits a pole of the coefficient formulas."""


class StepTooLarge(SolverError):
    """The stage-coupling matrix I - A became singular at this step size."""

    def __init__(self, message, h=None, step=None):
        super().__init__(message)
        self.h = h
        self.step = step


class RolloutDiverged(SolverError):
    """The rollout's Newton sweeps did not settle the stage equations at this step size."""

    def __init__(self, message, h=None):
        super().__init__(message)
        self.h = h


class BackwardFailure(SolverError):
    """A stage Hessian of the backward sweep (DLQR or ILQR) is not positive definite at this step."""

    def __init__(self, message, h, step):
        super().__init__(message)
        self.h = h
        self.step = step


class LineSearchFailed(SolverError):
    """Backtracking reached the minimum step length without sufficient decrease."""


class NotConverged(SolverError):
    """Iteration budget exhausted; carries the last iterate and its log."""

    def __init__(self, message, state=None, log=None):
        super().__init__(message)
        self.state = state
        self.log = log if log is not None else []


class NodeControlFailure(SolverError):
    """Newton iteration for a node control did not converge."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class OracleFailure(SolverError):
    """A direct solve of the oracle failed (singular KKT or costate system)."""


class NeedsReference(SolverError):
    """Order study requires an analytic or fine-grid reference solution."""


class NoFit(SolverError):
    """Fewer than three usable samples for a convergence-slope fit."""
