"""Exception types raised across the solver toolkit."""


class SolverError(Exception):
    """Base class for all toolkit errors."""


class AdjointUndefined(SolverError):
    """Adjoint coefficients require strictly positive weights b_i."""


class NotFound(SolverError):
    """Unknown builtin tableau or problem name."""


class StepFailure(SolverError):
    """A failure at one step of a grid, carrying the step index and the step size h."""

    def __init__(self, what, step, h):
        super().__init__(f"{what} at step {step}, h = {h!r}")
        self.step = step
        self.h = h


class StepTooLarge(StepFailure):
    """The stage-coupling matrix I - A became singular at this step size."""


class RolloutDiverged(StepFailure):
    """The rollout's Newton sweeps did not settle the stage equations at this step size."""


class BackwardFailure(StepFailure):
    """A stage Hessian of the backward sweep (DLQR or ILQR) is not positive definite, or not finite, at this step."""


class LineSearchFailed(SolverError):
    """Backtracking reached the minimum step length without sufficient decrease."""


class NotConverged(SolverError):
    """Iteration budget exhausted; carries the last iterate and its log."""

    def __init__(self, message, state, log):
        super().__init__(message)
        self.state = state
        self.log = log


class NodeControlFailure(SolverError):
    """Newton iteration for a node control did not converge."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class OracleFailure(SolverError):
    """A direct solve of the oracle failed (singular KKT or costate system)."""


class NeedsReference(SolverError):
    """Order study requires an analytic or fine-grid reference solution."""


class NoFit(SolverError):
    """Fewer than three usable samples for a convergence-slope fit."""
